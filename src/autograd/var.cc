#include "autograd/var.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_set>

#include "autograd/tape_hooks.h"
#include "common/check.h"
#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/prof.h"

namespace clfd {
namespace ag {

namespace {
// One capture/replay stream per thread — each shard worker of the sharded
// trainer captures or replays its own plan (see tape_hooks.h). Thread-local
// by design: no state is shared across threads.
// clfd-analyze: allow(semantic-mutable-global)
thread_local TapeHooks* g_tape_hooks = nullptr;
}  // namespace

TapeHooks* SetTapeHooks(TapeHooks* hooks) {
  TapeHooks* prev = g_tape_hooks;
  g_tape_hooks = hooks;
  return prev;
}

TapeHooks* CurrentTapeHooks() { return g_tape_hooks; }

namespace {

// Pointer view over a contiguous Var array for OpDesc::inputs (the hooks
// take pointers to the builder's arguments, not copies; see tape_hooks.h).
// Stack storage covers every current call site — heap only beyond 64 blocks.
struct VarPtrArray {
  const Var* stack[64];
  std::vector<const Var*> heap;
  const Var* const* data;
  explicit VarPtrArray(const std::vector<Var>& vars) {
    const Var** out = stack;
    if (vars.size() > 64) {
      heap.resize(vars.size());
      out = heap.data();
    }
    for (size_t i = 0; i < vars.size(); ++i) out[i] = &vars[i];
    data = out;
  }
};

OpDesc Desc(const char* op, PlanForwardFn forward, const Var* const* inputs,
            int num_inputs) {
  OpDesc d;
  d.op = op;
  d.forward = forward;
  d.inputs = inputs;
  d.num_inputs = num_inputs;
  return d;
}

// Creates an interior node whose requires_grad is inherited from parents.
// `op` is the provenance tag the invariant checker reports; when checks are
// enabled every op output is scanned for NaN/Inf and every parent is
// verified to come from a tape that has not already been consumed by a
// backward pass (reusing one would double-propagate its gradients).
Var MakeOp(const char* op, Matrix value, std::vector<NodePtr> parents,
           std::function<void(Node*)> backward_fn) {
  // Fault probe: poisons one op output with NaN to rehearse numeric
  // corruption. With checks on, CheckFinite below turns it into an
  // InvariantError at the op boundary; with checks off it propagates to a
  // non-finite loss — both paths are watchdog-recoverable.
  if (fault::At("op.nan") && value.size() > 0) {
    value.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
  }
  if (check::Enabled()) {
    CheckFinite(value, op);
    for (const NodePtr& p : parents) {
      if (p->backward_runs > 0) {
        check::Fail(std::string("autograd tape misuse: op '") + op +
                    "' built on the output of '" + p->op +
                    "' whose tape was already consumed by a backward pass; "
                    "rebuild the forward graph instead of reusing it");
      }
    }
  }
  auto node = std::make_shared<Node>();
  node->op = op;
  node->value = std::move(value);
  bool any_grad = false;
  for (const NodePtr& p : parents) any_grad = any_grad || p->requires_grad;
  node->requires_grad = any_grad;
  if (any_grad) {
    node->parents = std::move(parents);
    node->backward_fn = std::move(backward_fn);
  }
  Var out(std::move(node));
  CLFD_METRIC_COUNT("autograd.tape.nodes_created", 1);
  if (TapeHooks* h = CurrentTapeHooks()) h->OnNodeCreated(out.node());
  return out;
}

void TopoSort(const NodePtr& root, std::vector<Node*>* order) {
  // Iterative post-order DFS (graphs can be thousands of nodes deep for
  // long LSTM unrolls; recursion would risk stack overflow).
  // Pointer-identity membership set; it is never iterated, so its
  // unspecified ordering cannot leak into results.
  // clfd-analyze: allow(determinism-unordered)
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.emplace_back(root.get(), 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Node* child = node->parents[next_child++].get();
      if (child->requires_grad && visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      order->push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

Var Constant(Matrix value) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    Var out;
    if (h->OnLeaf("ag::Constant", &value, /*requires_grad=*/false, &out)) {
      return out;
    }
  }
  CheckFinite(value, "ag::Constant");
  auto node = std::make_shared<Node>();
  node->op = "ag::Constant";
  node->value = std::move(value);
  node->requires_grad = false;
  Var out(std::move(node));
  CLFD_METRIC_COUNT("autograd.tape.nodes_created", 1);
  if (TapeHooks* h = CurrentTapeHooks()) h->OnNodeCreated(out.node());
  return out;
}

Var Param(Matrix value) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    Var out;
    if (h->OnLeaf("ag::Param", &value, /*requires_grad=*/true, &out)) {
      return out;
    }
  }
  CheckFinite(value, "ag::Param");
  auto node = std::make_shared<Node>();
  node->op = "ag::Param";
  node->value = std::move(value);
  node->requires_grad = true;
  Var out(std::move(node));
  CLFD_METRIC_COUNT("autograd.tape.nodes_created", 1);
  if (TapeHooks* h = CurrentTapeHooks()) h->OnNodeCreated(out.node());
  return out;
}

namespace {

// Shared engine for Backward / BackwardWithGrad. `seed` null means scalar
// seed 1 on every element of the root.
void BackwardImpl(const Var& root, const Matrix* seed) {
  assert(root.defined());
  if (TapeHooks* h = CurrentTapeHooks()) {
    if (h->OnBackward(root, seed)) return;
  }
  if (!root.requires_grad()) return;
  CLFD_PROF_SCOPE("autograd.backward");
  std::vector<Node*> post_order;
  TopoSort(root.node(), &post_order);
  if (TapeHooks* h = CurrentTapeHooks()) {
    h->OnBackwardOrder(root, seed, post_order);
  }
  // Tape telemetry: graph depth is the main memory driver of training
  // (thousands of nodes per LSTM unroll), so expose the last-seen size, a
  // distribution, and a cumulative node count.
  CLFD_METRIC_COUNT("autograd.backward.calls", 1);
  CLFD_METRIC_COUNT("autograd.tape.nodes_total",
                    static_cast<int64_t>(post_order.size()));
  CLFD_METRIC_GAUGE_SET("autograd.tape.nodes",
                        static_cast<double>(post_order.size()));
  CLFD_METRIC_HIST_RECORD(
      "autograd.tape.size",
      ::clfd::obs::Histogram::ExponentialBounds(16.0, 2.0, 16),
      static_cast<double>(post_order.size()));
  for (Node* n : post_order) n->EnsureGrad();
  Node* r = root.node().get();
  if (seed != nullptr) {
    if (check::Enabled() && !seed->SameShape(r->value)) {
      check::Fail(std::string("BackwardWithGrad: seed shape does not match "
                              "root '") +
                  r->op + "' value shape");
    }
    assert(seed->SameShape(r->value));
    if (check::Enabled()) CheckFinite(*seed, "BackwardWithGrad seed");
    r->grad.AddInPlace(*seed);
  } else {
    // d root / d root = 1.
    for (int i = 0; i < r->grad.size(); ++i) r->grad[i] += 1.0f;
  }
  // Reverse topological order = post-order reversed.
  for (auto it = post_order.rbegin(); it != post_order.rend(); ++it) {
    Node* n = *it;
    if (!n->backward_fn) continue;
    if (check::Enabled() && n->backward_runs > 0) {
      check::Fail(std::string("autograd tape misuse: backward through op '") +
                  n->op + "' ran twice; Backward was called again on a "
                  "consumed tape (grads would double-count)");
    }
    ++n->backward_runs;
    n->backward_fn(n);
  }
}

}  // namespace

void Backward(const Var& root) { BackwardImpl(root, nullptr); }

void BackwardWithGrad(const Var& root, const Matrix& seed) {
  BackwardImpl(root, &seed);
}

namespace {

// Planned forward bodies write through the *Into kernels so replay reuses
// the plan's persistent output buffers instead of allocating fresh ones
// each step (DESIGN.md §15). The Into kernels share loop bodies with the
// value-returning kernels the dynamic builders call, so both modes stay
// bitwise identical.
void FwdMatMul(Node* out, Node* const* p, int, const OpCall&) {
  clfd::MatMulInto(p[0]->value, p[1]->value, &out->value);
}

}  // namespace

Var MatMul(const Var& a, const Var& b) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a, &b};
    Var out;
    if (h->OnOp(Desc("ag::MatMul", &FwdMatMul, ins, 2),
                                 &out)) {
      return out;
    }
  }
  NodePtr an = a.node(), bn = b.node();
  return MakeOp("ag::MatMul", clfd::MatMul(an->value, bn->value), {an, bn},
                [an, bn](Node* out) {
                  if (an->requires_grad) {
                    an->EnsureGrad();
                    an->grad.AddInPlace(MatMulTransposeB(out->grad, bn->value));
                  }
                  if (bn->requires_grad) {
                    bn->EnsureGrad();
                    bn->grad.AddInPlace(MatMulTransposeA(an->value, out->grad));
                  }
                });
}

namespace {

void FwdMatMulTransposeB(Node* out, Node* const* p, int, const OpCall&) {
  clfd::MatMulTransposeBInto(p[0]->value, p[1]->value, &out->value);
}

}  // namespace

Var MatMulTransposeB(const Var& a, const Var& b) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a, &b};
    Var out;
    if (h->OnOp(
            Desc("ag::MatMulTransposeB", &FwdMatMulTransposeB, ins, 2),
            &out)) {
      return out;
    }
  }
  NodePtr an = a.node(), bn = b.node();
  return MakeOp("ag::MatMulTransposeB", clfd::MatMulTransposeB(an->value, bn->value), {an, bn},
                [an, bn](Node* out) {
                  // out = a b^T; d a = g b; d b = g^T a.
                  if (an->requires_grad) {
                    an->EnsureGrad();
                    an->grad.AddInPlace(clfd::MatMul(out->grad, bn->value));
                  }
                  if (bn->requires_grad) {
                    bn->EnsureGrad();
                    bn->grad.AddInPlace(MatMulTransposeA(out->grad, an->value));
                  }
                });
}

namespace {

void FwdAdd(Node* out, Node* const* p, int, const OpCall&) {
  clfd::AddInto(p[0]->value, p[1]->value, &out->value);
}

}  // namespace

Var Add(const Var& a, const Var& b) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a, &b};
    Var out;
    if (h->OnOp(Desc("ag::Add", &FwdAdd, ins, 2), &out)) {
      return out;
    }
  }
  NodePtr an = a.node(), bn = b.node();
  return MakeOp("ag::Add", clfd::Add(an->value, bn->value), {an, bn}, [an, bn](Node* out) {
    if (an->requires_grad) {
      an->EnsureGrad();
      an->grad.AddInPlace(out->grad);
    }
    if (bn->requires_grad) {
      bn->EnsureGrad();
      bn->grad.AddInPlace(out->grad);
    }
  });
}

namespace {

void FwdSub(Node* out, Node* const* p, int, const OpCall&) {
  clfd::SubInto(p[0]->value, p[1]->value, &out->value);
}

}  // namespace

Var Sub(const Var& a, const Var& b) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a, &b};
    Var out;
    if (h->OnOp(Desc("ag::Sub", &FwdSub, ins, 2), &out)) {
      return out;
    }
  }
  NodePtr an = a.node(), bn = b.node();
  return MakeOp("ag::Sub", clfd::Sub(an->value, bn->value), {an, bn}, [an, bn](Node* out) {
    if (an->requires_grad) {
      an->EnsureGrad();
      an->grad.AddInPlace(out->grad);
    }
    if (bn->requires_grad) {
      bn->EnsureGrad();
      bn->grad.AddScaled(out->grad, -1.0f);
    }
  });
}

namespace {

void FwdMul(Node* out, Node* const* p, int, const OpCall&) {
  clfd::MulInto(p[0]->value, p[1]->value, &out->value);
}

}  // namespace

Var Mul(const Var& a, const Var& b) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a, &b};
    Var out;
    if (h->OnOp(Desc("ag::Mul", &FwdMul, ins, 2), &out)) {
      return out;
    }
  }
  NodePtr an = a.node(), bn = b.node();
  return MakeOp("ag::Mul", clfd::Mul(an->value, bn->value), {an, bn}, [an, bn](Node* out) {
    if (an->requires_grad) {
      an->EnsureGrad();
      an->grad.AddInPlace(clfd::Mul(out->grad, bn->value));
    }
    if (bn->requires_grad) {
      bn->EnsureGrad();
      bn->grad.AddInPlace(clfd::Mul(out->grad, an->value));
    }
  });
}

namespace {

void FwdAddScalar(Node* out, Node* const* p, int, const OpCall& call) {
  clfd::AddScalarInto(p[0]->value, call.f0, &out->value);
}

}  // namespace

Var AddScalar(const Var& a, float s) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a};
    OpDesc d = Desc("ag::AddScalar", &FwdAddScalar, ins, 1);
    d.call.f0 = s;
    Var out;
    if (h->OnOp(d, &out)) return out;
  }
  NodePtr an = a.node();
  return MakeOp("ag::AddScalar", clfd::AddScalar(an->value, s), {an}, [an](Node* out) {
    an->EnsureGrad();
    an->grad.AddInPlace(out->grad);
  });
}

namespace {

void FwdScale(Node* out, Node* const* p, int, const OpCall& call) {
  clfd::MulScalarInto(p[0]->value, call.f0, &out->value);
}

}  // namespace

Var Scale(const Var& a, float s) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a};
    OpDesc d = Desc("ag::Scale", &FwdScale, ins, 1);
    d.call.f0 = s;
    Var out;
    if (h->OnOp(d, &out)) return out;
  }
  NodePtr an = a.node();
  return MakeOp("ag::Scale", clfd::MulScalar(an->value, s), {an}, [an, s](Node* out) {
    an->EnsureGrad();
    an->grad.AddScaled(out->grad, s);
  });
}

namespace {

void FwdAddRowBroadcast(Node* out, Node* const* p, int, const OpCall&) {
  clfd::AddRowBroadcastInto(p[0]->value, p[1]->value, &out->value);
}

}  // namespace

Var AddRowBroadcast(const Var& a, const Var& bias) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a, &bias};
    Var out;
    if (h->OnOp(
            Desc("ag::AddRowBroadcast", &FwdAddRowBroadcast, ins, 2), &out)) {
      return out;
    }
  }
  NodePtr an = a.node(), bn = bias.node();
  return MakeOp("ag::AddRowBroadcast", clfd::AddRowBroadcast(an->value, bn->value), {an, bn},
                [an, bn](Node* out) {
                  if (an->requires_grad) {
                    an->EnsureGrad();
                    an->grad.AddInPlace(out->grad);
                  }
                  if (bn->requires_grad) {
                    bn->EnsureGrad();
                    for (int r = 0; r < out->grad.rows(); ++r) {
                      const float* grow = out->grad.row(r);
                      for (int c = 0; c < out->grad.cols(); ++c) {
                        bn->grad[c] += grow[c];
                      }
                    }
                  }
                });
}

namespace {

void RowScaleForwardInto(const Matrix& a, const Matrix& col, Matrix* out) {
  clfd::CopyInto(a, out);
  for (int r = 0; r < out->rows(); ++r) {
    float s = col.at(r, 0);
    float* row = out->row(r);
    for (int c = 0; c < out->cols(); ++c) row[c] *= s;
  }
}

Matrix RowScaleForward(const Matrix& a, const Matrix& col) {
  Matrix value;
  RowScaleForwardInto(a, col, &value);
  return value;
}

void FwdRowScaleConst(Node* out, Node* const* p, int, const OpCall& call) {
  RowScaleForwardInto(p[0]->value, *call.aux_copy, &out->value);
  // CopyInto (not assignment) so replay reuses the node's persistent aux
  // buffer instead of reallocating it from the current arena context.
  clfd::CopyInto(*call.aux_copy, &out->aux);
}

}  // namespace

Var RowScaleConst(const Var& a, const Matrix& col) {
  assert(col.cols() == 1 && col.rows() == a.rows());
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a};
    OpDesc d = Desc("ag::RowScaleConst", &FwdRowScaleConst, ins, 1);
    d.call.aux_copy = &col;
    Var out;
    if (h->OnOp(d, &out)) return out;
  }
  NodePtr an = a.node();
  Var v = MakeOp("ag::RowScaleConst", RowScaleForward(an->value, col), {an},
                 [an](Node* out) {
                   an->EnsureGrad();
                   for (int r = 0; r < out->grad.rows(); ++r) {
                     float s = out->aux.at(r, 0);
                     const float* grow = out->grad.row(r);
                     float* arow = an->grad.row(r);
                     for (int c = 0; c < out->grad.cols(); ++c) {
                       arow[c] += s * grow[c];
                     }
                   }
                 });
  v.node()->aux = col;
  return v;
}

namespace {

void FwdExp(Node* out, Node* const* p, int, const OpCall&) {
  clfd::ExpInto(p[0]->value, &out->value);
}

}  // namespace

Var Exp(const Var& a) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a};
    Var out;
    if (h->OnOp(Desc("ag::Exp", &FwdExp, ins, 1), &out)) {
      return out;
    }
  }
  NodePtr an = a.node();
  return MakeOp("ag::Exp", clfd::Exp(an->value), {an}, [an](Node* out) {
    an->EnsureGrad();
    an->grad.AddInPlace(clfd::Mul(out->grad, out->value));
  });
}

namespace {

void FwdLog(Node* out, Node* const* p, int, const OpCall&) {
  clfd::LogInto(p[0]->value, &out->value);
}

}  // namespace

Var Log(const Var& a) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a};
    Var out;
    if (h->OnOp(Desc("ag::Log", &FwdLog, ins, 1), &out)) {
      return out;
    }
  }
  NodePtr an = a.node();
  return MakeOp("ag::Log", clfd::Log(an->value), {an}, [an](Node* out) {
    an->EnsureGrad();
    for (int i = 0; i < out->grad.size(); ++i) {
      an->grad[i] += out->grad[i] / std::max(an->value[i], 1e-12f);
    }
  });
}

namespace {

void FwdPow(Node* out, Node* const* p, int, const OpCall& call) {
  clfd::PowInto(p[0]->value, call.f0, &out->value);
}

}  // namespace

Var Pow(const Var& a, float p) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a};
    OpDesc d = Desc("ag::Pow", &FwdPow, ins, 1);
    d.call.f0 = p;
    Var out;
    if (h->OnOp(d, &out)) return out;
  }
  NodePtr an = a.node();
  return MakeOp("ag::Pow", clfd::Pow(an->value, p), {an}, [an, p](Node* out) {
    an->EnsureGrad();
    for (int i = 0; i < out->grad.size(); ++i) {
      // d/dx x^p = p x^(p-1); clamp the base so p < 1 stays finite at 0.
      float base = std::max(an->value[i], 1e-12f);
      an->grad[i] += out->grad[i] * p * std::pow(base, p - 1.0f);
    }
  });
}

namespace {

void FwdTanh(Node* out, Node* const* p, int, const OpCall&) {
  clfd::TanhInto(p[0]->value, &out->value);
}

}  // namespace

Var Tanh(const Var& a) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a};
    Var out;
    if (h->OnOp(Desc("ag::Tanh", &FwdTanh, ins, 1), &out)) {
      return out;
    }
  }
  NodePtr an = a.node();
  return MakeOp("ag::Tanh", clfd::Tanh(an->value), {an}, [an](Node* out) {
    an->EnsureGrad();
    for (int i = 0; i < out->grad.size(); ++i) {
      float y = out->value[i];
      an->grad[i] += out->grad[i] * (1.0f - y * y);
    }
  });
}

namespace {

void FwdSigmoid(Node* out, Node* const* p, int, const OpCall&) {
  clfd::SigmoidInto(p[0]->value, &out->value);
}

}  // namespace

Var Sigmoid(const Var& a) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a};
    Var out;
    if (h->OnOp(Desc("ag::Sigmoid", &FwdSigmoid, ins, 1),
                                 &out)) {
      return out;
    }
  }
  NodePtr an = a.node();
  return MakeOp("ag::Sigmoid", clfd::Sigmoid(an->value), {an}, [an](Node* out) {
    an->EnsureGrad();
    for (int i = 0; i < out->grad.size(); ++i) {
      float y = out->value[i];
      an->grad[i] += out->grad[i] * y * (1.0f - y);
    }
  });
}

namespace {

void FwdRelu(Node* out, Node* const* p, int, const OpCall&) {
  clfd::ReluInto(p[0]->value, &out->value);
}

}  // namespace

Var Relu(const Var& a) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a};
    Var out;
    if (h->OnOp(Desc("ag::Relu", &FwdRelu, ins, 1), &out)) {
      return out;
    }
  }
  NodePtr an = a.node();
  return MakeOp("ag::Relu", clfd::Relu(an->value), {an}, [an](Node* out) {
    an->EnsureGrad();
    for (int i = 0; i < out->grad.size(); ++i) {
      if (an->value[i] > 0.0f) an->grad[i] += out->grad[i];
    }
  });
}

namespace {

void FwdLeakyRelu(Node* out, Node* const* p, int, const OpCall& call) {
  clfd::LeakyReluInto(p[0]->value, call.f0, &out->value);
}

}  // namespace

Var LeakyRelu(const Var& a, float slope) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a};
    OpDesc d = Desc("ag::LeakyRelu", &FwdLeakyRelu, ins, 1);
    d.call.f0 = slope;
    Var out;
    if (h->OnOp(d, &out)) return out;
  }
  NodePtr an = a.node();
  return MakeOp("ag::LeakyRelu", clfd::LeakyRelu(an->value, slope), {an}, [an, slope](Node* out) {
    an->EnsureGrad();
    for (int i = 0; i < out->grad.size(); ++i) {
      an->grad[i] += out->grad[i] * (an->value[i] > 0.0f ? 1.0f : slope);
    }
  });
}

namespace {

void FwdSoftmaxRows(Node* out, Node* const* p, int, const OpCall&) {
  clfd::SoftmaxRowsInto(p[0]->value, &out->value);
}

}  // namespace

Var SoftmaxRows(const Var& a) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a};
    Var out;
    if (h->OnOp(
            Desc("ag::SoftmaxRows", &FwdSoftmaxRows, ins, 1), &out)) {
      return out;
    }
  }
  NodePtr an = a.node();
  return MakeOp("ag::SoftmaxRows", clfd::SoftmaxRows(an->value), {an}, [an](Node* out) {
    an->EnsureGrad();
    // d x_j = s_j * (g_j - sum_k g_k s_k) per row.
    for (int r = 0; r < out->value.rows(); ++r) {
      const float* s = out->value.row(r);
      const float* g = out->grad.row(r);
      float* ar = an->grad.row(r);
      double dot = 0.0;
      for (int c = 0; c < out->value.cols(); ++c) dot += g[c] * s[c];
      for (int c = 0; c < out->value.cols(); ++c) {
        ar[c] += s[c] * (g[c] - static_cast<float>(dot));
      }
    }
  });
}

namespace {

void FwdSumAll(Node* out, Node* const* p, int, const OpCall&) {
  clfd::EnsureShape(&out->value, 1, 1, /*zeroed=*/false);
  out->value[0] = clfd::SumAll(p[0]->value);
}

}  // namespace

Var SumAll(const Var& a) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a};
    Var out;
    if (h->OnOp(Desc("ag::SumAll", &FwdSumAll, ins, 1),
                                 &out)) {
      return out;
    }
  }
  NodePtr an = a.node();
  Matrix value(1, 1);
  value[0] = clfd::SumAll(an->value);
  return MakeOp("ag::SumAll", std::move(value), {an}, [an](Node* out) {
    an->EnsureGrad();
    float g = out->grad[0];
    for (int i = 0; i < an->grad.size(); ++i) an->grad[i] += g;
  });
}

Var MeanAll(const Var& a) {
  float inv = a.value().size() > 0
                  ? 1.0f / static_cast<float>(a.value().size())
                  : 0.0f;
  return Scale(SumAll(a), inv);
}

namespace {

void FwdSumRows(Node* out, Node* const* p, int, const OpCall&) {
  clfd::SumRowsInto(p[0]->value, &out->value);
}

}  // namespace

Var SumRows(const Var& a) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a};
    Var out;
    if (h->OnOp(Desc("ag::SumRows", &FwdSumRows, ins, 1),
                                 &out)) {
      return out;
    }
  }
  NodePtr an = a.node();
  return MakeOp("ag::SumRows", clfd::SumRows(an->value), {an}, [an](Node* out) {
    an->EnsureGrad();
    for (int r = 0; r < an->grad.rows(); ++r) {
      float g = out->grad.at(r, 0);
      float* row = an->grad.row(r);
      for (int c = 0; c < an->grad.cols(); ++c) row[c] += g;
    }
  });
}

namespace {

// Pointer view over the parents' values for the pointer-based concat
// kernels — no per-call Matrix copies. Stack storage covers every current
// call site; heap only beyond 64 blocks (mirrors VarPtrArray above).
struct MatrixPtrArray {
  const Matrix* stack[64];
  std::vector<const Matrix*> heap;
  const Matrix* const* data;
  MatrixPtrArray(Node* const* p, int np) {
    const Matrix** out = stack;
    if (np > 64) {
      heap.resize(np);
      out = heap.data();
    }
    for (int i = 0; i < np; ++i) out[i] = &p[i]->value;
    data = out;
  }
};

void FwdConcatRows(Node* out, Node* const* p, int np, const OpCall&) {
  MatrixPtrArray blocks(p, np);
  clfd::ConcatRowsInto(blocks.data, np, &out->value);
}

}  // namespace

Var ConcatRows(const std::vector<Var>& blocks) {
  assert(!blocks.empty());
  if (TapeHooks* h = CurrentTapeHooks()) {
    VarPtrArray ins(blocks);
    Var out;
    if (h->OnOp(
            Desc("ag::ConcatRows", &FwdConcatRows, ins.data,
                 static_cast<int>(blocks.size())),
            &out)) {
      return out;
    }
  }
  std::vector<Matrix> values;
  std::vector<NodePtr> parents;
  values.reserve(blocks.size());
  for (const Var& b : blocks) {
    values.push_back(b.value());
    parents.push_back(b.node());
  }
  return MakeOp("ag::ConcatRows", clfd::ConcatRows(values), parents, [parents](Node* out) {
    int r = 0;
    for (const NodePtr& p : parents) {
      if (p->requires_grad) {
        p->EnsureGrad();
        for (int pr = 0; pr < p->value.rows(); ++pr) {
          const float* grow = out->grad.row(r + pr);
          float* prow = p->grad.row(pr);
          for (int c = 0; c < p->value.cols(); ++c) prow[c] += grow[c];
        }
      }
      r += p->value.rows();
    }
  });
}

namespace {

void FwdSliceRows(Node* out, Node* const* p, int, const OpCall& call) {
  clfd::SliceRowsInto(p[0]->value, call.i0, call.i1, &out->value);
}

}  // namespace

Var SliceRows(const Var& a, int begin, int end) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a};
    OpDesc d = Desc("ag::SliceRows", &FwdSliceRows, ins, 1);
    d.call.i0 = begin;
    d.call.i1 = end;
    Var out;
    if (h->OnOp(d, &out)) return out;
  }
  NodePtr an = a.node();
  return MakeOp("ag::SliceRows", clfd::SliceRows(an->value, begin, end), {an},
                [an, begin](Node* out) {
                  an->EnsureGrad();
                  for (int r = 0; r < out->grad.rows(); ++r) {
                    const float* grow = out->grad.row(r);
                    float* arow = an->grad.row(begin + r);
                    for (int c = 0; c < out->grad.cols(); ++c) {
                      arow[c] += grow[c];
                    }
                  }
                });
}

namespace {

void FwdConcatCols(Node* out, Node* const* p, int np, const OpCall&) {
  MatrixPtrArray blocks(p, np);
  clfd::ConcatColsInto(blocks.data, np, &out->value);
}

}  // namespace

Var ConcatCols(const std::vector<Var>& blocks) {
  assert(!blocks.empty());
  if (TapeHooks* h = CurrentTapeHooks()) {
    VarPtrArray ins(blocks);
    Var out;
    if (h->OnOp(
            Desc("ag::ConcatCols", &FwdConcatCols, ins.data,
                 static_cast<int>(blocks.size())),
            &out)) {
      return out;
    }
  }
  std::vector<Matrix> values;
  std::vector<NodePtr> parents;
  values.reserve(blocks.size());
  for (const Var& b : blocks) {
    values.push_back(b.value());
    parents.push_back(b.node());
  }
  return MakeOp("ag::ConcatCols", clfd::ConcatCols(values), parents,
                [parents](Node* out) {
                  int c0 = 0;
                  for (const NodePtr& p : parents) {
                    if (p->requires_grad) {
                      p->EnsureGrad();
                      for (int r = 0; r < p->value.rows(); ++r) {
                        const float* grow = out->grad.row(r);
                        float* prow = p->grad.row(r);
                        for (int c = 0; c < p->value.cols(); ++c) {
                          prow[c] += grow[c0 + c];
                        }
                      }
                    }
                    c0 += p->value.cols();
                  }
                });
}

namespace {

void FwdSliceCols(Node* out, Node* const* p, int, const OpCall& call) {
  clfd::SliceColsInto(p[0]->value, call.i0, call.i1, &out->value);
}

}  // namespace

Var SliceCols(const Var& a, int begin, int end) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a};
    OpDesc d = Desc("ag::SliceCols", &FwdSliceCols, ins, 1);
    d.call.i0 = begin;
    d.call.i1 = end;
    Var out;
    if (h->OnOp(d, &out)) return out;
  }
  NodePtr an = a.node();
  return MakeOp("ag::SliceCols", clfd::SliceCols(an->value, begin, end), {an},
                [an, begin](Node* out) {
                  an->EnsureGrad();
                  for (int r = 0; r < out->grad.rows(); ++r) {
                    const float* grow = out->grad.row(r);
                    float* arow = an->grad.row(r);
                    for (int c = 0; c < out->grad.cols(); ++c) {
                      arow[begin + c] += grow[c];
                    }
                  }
                });
}

namespace {

void FwdLstmPackedMatMul(Node* out, Node* const* p, int, const OpCall&) {
  clfd::MatMulInto(p[0]->value, p[1]->value, &out->value);
}

}  // namespace

Var LstmPackedMatMul(const Var& x, const Var& w) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&x, &w};
    Var out;
    if (h->OnOp(
            Desc("ag::LstmPackedMatMul", &FwdLstmPackedMatMul, ins, 2),
            &out)) {
      return out;
    }
  }
  NodePtr xn = x.node(), wn = w.node();
  return MakeOp("ag::LstmPackedMatMul", clfd::MatMul(xn->value, wn->value),
                {xn, wn}, [xn, wn](Node* out) {
                  if (xn->requires_grad) {
                    xn->EnsureGrad();
                    MatMulTransposeBGateBlockedAddInto(out->grad, wn->value,
                                                       &xn->grad);
                  }
                  if (wn->requires_grad) {
                    wn->EnsureGrad();
                    wn->grad.AddInPlace(MatMulTransposeA(xn->value, out->grad));
                  }
                });
}

namespace {

void FwdLstmInputProjection(Node* out, Node* const* p, int,
                            const OpCall& call) {
  clfd::MatMulInto(*call.aux_move, p[0]->value, &out->value);
  // The input block is fresh per step (built by the caller), so the aux
  // binding stays a move — it is compute input, not a reusable buffer.
  out->aux = std::move(*call.aux_move);
}

}  // namespace

Var LstmInputProjection(Matrix xcat, const Var& w, int block_rows) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&w};
    OpDesc d = Desc("ag::LstmInputProjection", &FwdLstmInputProjection, ins, 1);
    d.call.i0 = block_rows;
    d.call.aux_move = &xcat;
    Var out;
    if (h->OnOp(d, &out)) return out;
  }
  NodePtr wn = w.node();
  Matrix value = clfd::MatMul(xcat, wn->value);
  Var v = MakeOp("ag::LstmInputProjection", std::move(value), {wn},
                 [wn, block_rows](Node* out) {
                   wn->EnsureGrad();
                   MatMulTransposeATimeBlockedAddInto(out->aux, out->grad,
                                                      block_rows, &wn->grad);
                 });
  v.node()->aux = std::move(xcat);
  return v;
}

namespace {

void FwdLstmGates(Node* out, Node* const* p, int, const OpCall&) {
  clfd::LstmGatesForward(p[0]->value, p[1]->value, &out->value, &out->aux);
}

}  // namespace

Var LstmGates(const Var& pre, const Var& hc_prev) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&pre, &hc_prev};
    Var out;
    if (h->OnOp(Desc("ag::LstmGates", &FwdLstmGates, ins, 2),
                                 &out)) {
      return out;
    }
  }
  NodePtr pn = pre.node(), hn = hc_prev.node();
  Matrix hc, acts;
  clfd::LstmGatesForward(pn->value, hn->value, &hc, &acts);
  Var v = MakeOp("ag::LstmGates", std::move(hc), {pn, hn},
                 [pn, hn](Node* out) {
                   Matrix scratch;
                   Matrix* dpre = nullptr;
                   if (pn->requires_grad) {
                     pn->EnsureGrad();
                     dpre = &pn->grad;
                   } else {
                     scratch = Matrix(pn->value.rows(), pn->value.cols());
                     dpre = &scratch;
                   }
                   Matrix* dhc = nullptr;
                   if (hn->requires_grad) {
                     hn->EnsureGrad();
                     dhc = &hn->grad;
                   }
                   clfd::LstmGatesBackward(out->grad, out->aux, hn->value,
                                           dpre, dhc);
                 });
  v.node()->aux = std::move(acts);
  return v;
}

namespace {

void NormalizeRowsForwardInto(const Matrix& a, Matrix* value, Matrix* norms) {
  clfd::CopyInto(a, value);
  clfd::EnsureShape(norms, a.rows(), 1, /*zeroed=*/false);
  for (int r = 0; r < a.rows(); ++r) {
    float n = RowNorm(a, r);
    norms->at(r, 0) = n;
    float* row = value->row(r);
    for (int c = 0; c < a.cols(); ++c) row[c] /= n;
  }
}

Matrix NormalizeRowsForward(const Matrix& a, Matrix* norms) {
  Matrix value;
  NormalizeRowsForwardInto(a, &value, norms);
  return value;
}

void FwdNormalizeRows(Node* out, Node* const* p, int, const OpCall&) {
  NormalizeRowsForwardInto(p[0]->value, &out->value, &out->aux);
}

}  // namespace

Var NormalizeRows(const Var& a) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    const Var* ins[] = {&a};
    Var out;
    if (h->OnOp(
            Desc("ag::NormalizeRows", &FwdNormalizeRows, ins, 1), &out)) {
      return out;
    }
  }
  NodePtr an = a.node();
  Matrix norms;
  Var v = MakeOp("ag::NormalizeRows", NormalizeRowsForward(an->value, &norms),
                 {an}, [an](Node* out) {
                   an->EnsureGrad();
                   // For y = x / |x|: dx = (g - y (g . y)) / |x|.
                   for (int r = 0; r < out->grad.rows(); ++r) {
                     const float* g = out->grad.row(r);
                     const float* x = an->value.row(r);
                     float* ar = an->grad.row(r);
                     float inv = 1.0f / out->aux.at(r, 0);
                     double dot = 0.0;
                     for (int c = 0; c < out->grad.cols(); ++c) {
                       dot += g[c] * x[c] * inv;
                     }
                     for (int c = 0; c < out->grad.cols(); ++c) {
                       ar[c] += inv * (g[c] - static_cast<float>(dot) * x[c] * inv);
                     }
                   }
                 });
  v.node()->aux = std::move(norms);
  return v;
}

}  // namespace ag
}  // namespace clfd
