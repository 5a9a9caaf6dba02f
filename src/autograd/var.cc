#include "autograd/var.h"

#include <algorithm>
#include <cassert>
#include <cmath>
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

void FinishForward(Node* out) {
  // Fault probe: poisons one op output with NaN to rehearse numeric
  // corruption. With checks on, CheckFinite below turns it into an
  // InvariantError at the op boundary; with checks off it propagates to a
  // non-finite loss — both paths are watchdog-recoverable.
  if (fault::At("op.nan") && out->value.size() > 0) {
    out->value.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
  }
  if (check::Enabled()) CheckFinite(out->value, out->op);
}

namespace {

// `n` pointers on the stack; heap storage only beyond 64, which no current
// call site reaches.
template <typename T>
class PtrArray {
 public:
  explicit PtrArray(int n) : data_(stack_) {
    if (n > kStack) {
      heap_.resize(n);
      data_ = heap_.data();
    }
  }
  T*& operator[](int i) { return data_[i]; }
  T* const* data() const { return data_; }

 private:
  static constexpr int kStack = 64;
  T* stack_[kStack];
  std::vector<T*> heap_;
  T** data_;
};

OpDesc Desc(const char* op, PlanForwardFn forward, const Var* const* inputs,
            int num_inputs, OpCall call = {}) {
  OpDesc d;
  d.op = op;
  d.forward = forward;
  d.inputs = inputs;
  d.num_inputs = num_inputs;
  d.call = call;
  return d;
}

// Counts a freshly built node and reports it to the hooks.
Var Publish(NodePtr node) {
  Var out(std::move(node));
  CLFD_METRIC_COUNT("autograd.tape.nodes_created", 1);
  if (TapeHooks* h = CurrentTapeHooks()) h->OnNodeCreated(out.node());
  return out;
}

// The dynamic half of MakeOp: a node whose value (and aux) desc.forward
// fills, followed by the shared post-forward probe and finite check. With
// checks on, every parent is also verified to come from a tape that has not
// already been consumed by a backward pass (reusing one would
// double-propagate its gradients). The node keeps its parents only when one
// of them requires a gradient.
NodePtr NewOpNode(const OpDesc& desc) {
  const int n = desc.num_inputs;
  PtrArray<Node> parents(n);
  bool any_grad = false;
  for (int i = 0; i < n; ++i) {
    parents[i] = desc.inputs[i]->node().get();
    any_grad = any_grad || parents[i]->requires_grad;
  }
  auto node = std::make_shared<Node>();
  node->op = desc.op;
  desc.forward(node.get(), parents.data(), n, desc.call);
  FinishForward(node.get());
  if (check::Enabled()) {
    for (int i = 0; i < n; ++i) {
      if (parents[i]->backward_runs > 0) {
        check::Fail(std::string("autograd tape misuse: op '") + desc.op +
                    "' built on the output of '" + parents[i]->op +
                    "' whose tape was already consumed by a backward pass; "
                    "rebuild the forward graph instead of reusing it");
      }
    }
  }
  node->requires_grad = any_grad;
  if (any_grad) {
    node->parents.reserve(n);
    for (int i = 0; i < n; ++i) node->parents.push_back(desc.inputs[i]->node());
  }
  return node;
}

// Every op builder ends here. The hooks are asked once; a replaying plan
// satisfies the op and nothing is built. Otherwise the node is filled by
// desc.forward, the function the replayer calls, so a dynamic and a
// replayed step run one forward body. `backward` reads the op's inputs from
// out->parents and captures at most the op's scalar arguments; it becomes
// the node's std::function only when an input requires a gradient.
template <typename Backward>
Var MakeOp(const OpDesc& desc, Backward&& backward) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    Var out;
    if (h->OnOp(desc, &out)) return out;
  }
  NodePtr node = NewOpNode(desc);
  if (node->requires_grad) node->backward_fn = std::forward<Backward>(backward);
  return Publish(std::move(node));
}

// Constant and Param: the hooks may bind *value into a plan's leaf slot.
Var MakeLeaf(const char* op, Matrix* value, bool requires_grad) {
  if (TapeHooks* h = CurrentTapeHooks()) {
    Var out;
    if (h->OnLeaf(op, value, requires_grad, &out)) return out;
  }
  CheckFinite(*value, op);
  auto node = std::make_shared<Node>();
  node->op = op;
  node->value = std::move(*value);
  node->requires_grad = requires_grad;
  return Publish(std::move(node));
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
  return MakeLeaf("ag::Constant", &value, /*requires_grad=*/false);
}

Var Param(Matrix value) {
  return MakeLeaf("ag::Param", &value, /*requires_grad=*/true);
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

// Each op's one forward body: MakeOp calls it on a fresh node, the plan
// replayer on the node's persistent buffers (DESIGN.md §15). Both write
// through the *Into kernels, which reuse a same-shape output and allocate
// exactly as a value-returning kernel would otherwise.
void FwdMatMul(Node* out, Node* const* p, int, const OpCall&) {
  clfd::MatMulInto(p[0]->value, p[1]->value, &out->value);
}

}  // namespace

Var MatMul(const Var& a, const Var& b) {
  const Var* ins[] = {&a, &b};
  return MakeOp(Desc("ag::MatMul", &FwdMatMul, ins, 2), [](Node* out) {
    Node* an = out->parents[0].get();
    Node* bn = out->parents[1].get();
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
  const Var* ins[] = {&a, &b};
  return MakeOp(
      Desc("ag::MatMulTransposeB", &FwdMatMulTransposeB, ins, 2),
      [](Node* out) {
        // out = a b^T; d a = g b; d b = g^T a.
        Node* an = out->parents[0].get();
        Node* bn = out->parents[1].get();
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
  const Var* ins[] = {&a, &b};
  return MakeOp(Desc("ag::Add", &FwdAdd, ins, 2), [](Node* out) {
    Node* an = out->parents[0].get();
    Node* bn = out->parents[1].get();
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
  const Var* ins[] = {&a, &b};
  return MakeOp(Desc("ag::Sub", &FwdSub, ins, 2), [](Node* out) {
    Node* an = out->parents[0].get();
    Node* bn = out->parents[1].get();
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
  const Var* ins[] = {&a, &b};
  return MakeOp(Desc("ag::Mul", &FwdMul, ins, 2), [](Node* out) {
    Node* an = out->parents[0].get();
    Node* bn = out->parents[1].get();
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
  const Var* ins[] = {&a};
  return MakeOp(Desc("ag::AddScalar", &FwdAddScalar, ins, 1, {.f0 = s}),
                [](Node* out) {
                  Node* an = out->parents[0].get();
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
  const Var* ins[] = {&a};
  return MakeOp(Desc("ag::Scale", &FwdScale, ins, 1, {.f0 = s}),
                [s](Node* out) {
                  Node* an = out->parents[0].get();
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
  const Var* ins[] = {&a, &bias};
  return MakeOp(
      Desc("ag::AddRowBroadcast", &FwdAddRowBroadcast, ins, 2),
      [](Node* out) {
        Node* an = out->parents[0].get();
        Node* bn = out->parents[1].get();
        if (an->requires_grad) {
          an->EnsureGrad();
          an->grad.AddInPlace(out->grad);
        }
        if (bn->requires_grad) {
          bn->EnsureGrad();
          for (int r = 0; r < out->grad.rows(); ++r) {
            const float* grow = out->grad.row(r);
            for (int c = 0; c < out->grad.cols(); ++c) bn->grad[c] += grow[c];
          }
        }
      });
}

namespace {

void FwdRowScaleConst(Node* out, Node* const* p, int, const OpCall& call) {
  const Matrix& col = *call.aux_copy;
  clfd::CopyInto(p[0]->value, &out->value);
  for (int r = 0; r < out->value.rows(); ++r) {
    float s = col.at(r, 0);
    float* row = out->value.row(r);
    for (int c = 0; c < out->value.cols(); ++c) row[c] *= s;
  }
  // CopyInto (not assignment) so replay reuses the node's persistent aux
  // buffer instead of reallocating it from the current arena context.
  clfd::CopyInto(col, &out->aux);
}

}  // namespace

Var RowScaleConst(const Var& a, const Matrix& col) {
  assert(col.cols() == 1 && col.rows() == a.rows());
  const Var* ins[] = {&a};
  return MakeOp(
      Desc("ag::RowScaleConst", &FwdRowScaleConst, ins, 1,
           {.aux_copy = &col}),
      [](Node* out) {
        Node* an = out->parents[0].get();
        an->EnsureGrad();
        for (int r = 0; r < out->grad.rows(); ++r) {
          float s = out->aux.at(r, 0);
          const float* grow = out->grad.row(r);
          float* arow = an->grad.row(r);
          for (int c = 0; c < out->grad.cols(); ++c) arow[c] += s * grow[c];
        }
      });
}

namespace {

void FwdExp(Node* out, Node* const* p, int, const OpCall&) {
  clfd::ExpInto(p[0]->value, &out->value);
}

}  // namespace

Var Exp(const Var& a) {
  const Var* ins[] = {&a};
  return MakeOp(Desc("ag::Exp", &FwdExp, ins, 1), [](Node* out) {
    Node* an = out->parents[0].get();
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
  const Var* ins[] = {&a};
  return MakeOp(Desc("ag::Log", &FwdLog, ins, 1), [](Node* out) {
    Node* an = out->parents[0].get();
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
  const Var* ins[] = {&a};
  return MakeOp(Desc("ag::Pow", &FwdPow, ins, 1, {.f0 = p}), [p](Node* out) {
    Node* an = out->parents[0].get();
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
  const Var* ins[] = {&a};
  return MakeOp(Desc("ag::Tanh", &FwdTanh, ins, 1), [](Node* out) {
    Node* an = out->parents[0].get();
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
  const Var* ins[] = {&a};
  return MakeOp(Desc("ag::Sigmoid", &FwdSigmoid, ins, 1), [](Node* out) {
    Node* an = out->parents[0].get();
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
  const Var* ins[] = {&a};
  return MakeOp(Desc("ag::Relu", &FwdRelu, ins, 1), [](Node* out) {
    Node* an = out->parents[0].get();
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
  const Var* ins[] = {&a};
  return MakeOp(Desc("ag::LeakyRelu", &FwdLeakyRelu, ins, 1, {.f0 = slope}),
                [slope](Node* out) {
                  Node* an = out->parents[0].get();
                  an->EnsureGrad();
                  for (int i = 0; i < out->grad.size(); ++i) {
                    an->grad[i] +=
                        out->grad[i] * (an->value[i] > 0.0f ? 1.0f : slope);
                  }
                });
}

namespace {

void FwdSoftmaxRows(Node* out, Node* const* p, int, const OpCall&) {
  clfd::SoftmaxRowsInto(p[0]->value, &out->value);
}

}  // namespace

Var SoftmaxRows(const Var& a) {
  const Var* ins[] = {&a};
  return MakeOp(Desc("ag::SoftmaxRows", &FwdSoftmaxRows, ins, 1),
                [](Node* out) {
                  Node* an = out->parents[0].get();
                  an->EnsureGrad();
                  // d x_j = s_j * (g_j - sum_k g_k s_k) per row.
                  for (int r = 0; r < out->value.rows(); ++r) {
                    const float* s = out->value.row(r);
                    const float* g = out->grad.row(r);
                    float* ar = an->grad.row(r);
                    double dot = 0.0;
                    for (int c = 0; c < out->value.cols(); ++c) {
                      dot += g[c] * s[c];
                    }
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
  const Var* ins[] = {&a};
  return MakeOp(Desc("ag::SumAll", &FwdSumAll, ins, 1), [](Node* out) {
    Node* an = out->parents[0].get();
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
  const Var* ins[] = {&a};
  return MakeOp(Desc("ag::SumRows", &FwdSumRows, ins, 1), [](Node* out) {
    Node* an = out->parents[0].get();
    an->EnsureGrad();
    for (int r = 0; r < an->grad.rows(); ++r) {
      float g = out->grad.at(r, 0);
      float* row = an->grad.row(r);
      for (int c = 0; c < an->grad.cols(); ++c) row[c] += g;
    }
  });
}

namespace {

// The concat forwards read the parents' values through pointers — no
// per-call Matrix copies.
void FwdConcatRows(Node* out, Node* const* p, int np, const OpCall&) {
  PtrArray<const Matrix> blocks(np);
  for (int i = 0; i < np; ++i) blocks[i] = &p[i]->value;
  clfd::ConcatRowsInto(blocks.data(), np, &out->value);
}

}  // namespace

Var ConcatRows(const std::vector<Var>& blocks) {
  assert(!blocks.empty());
  const int n = static_cast<int>(blocks.size());
  PtrArray<const Var> ins(n);
  for (int i = 0; i < n; ++i) ins[i] = &blocks[i];
  return MakeOp(Desc("ag::ConcatRows", &FwdConcatRows, ins.data(), n),
                [](Node* out) {
                  int r = 0;
                  for (const NodePtr& p : out->parents) {
                    if (p->requires_grad) {
                      p->EnsureGrad();
                      for (int pr = 0; pr < p->value.rows(); ++pr) {
                        const float* grow = out->grad.row(r + pr);
                        float* prow = p->grad.row(pr);
                        for (int c = 0; c < p->value.cols(); ++c) {
                          prow[c] += grow[c];
                        }
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
  const Var* ins[] = {&a};
  return MakeOp(
      Desc("ag::SliceRows", &FwdSliceRows, ins, 1, {.i0 = begin, .i1 = end}),
      [begin](Node* out) {
        Node* an = out->parents[0].get();
        an->EnsureGrad();
        for (int r = 0; r < out->grad.rows(); ++r) {
          const float* grow = out->grad.row(r);
          float* arow = an->grad.row(begin + r);
          for (int c = 0; c < out->grad.cols(); ++c) arow[c] += grow[c];
        }
      });
}

namespace {

void FwdSliceCols(Node* out, Node* const* p, int, const OpCall& call) {
  clfd::SliceColsInto(p[0]->value, call.i0, call.i1, &out->value);
}

}  // namespace

Var SliceCols(const Var& a, int begin, int end) {
  const Var* ins[] = {&a};
  return MakeOp(
      Desc("ag::SliceCols", &FwdSliceCols, ins, 1, {.i0 = begin, .i1 = end}),
      [begin](Node* out) {
        Node* an = out->parents[0].get();
        an->EnsureGrad();
        for (int r = 0; r < out->grad.rows(); ++r) {
          const float* grow = out->grad.row(r);
          float* arow = an->grad.row(r);
          for (int c = 0; c < out->grad.cols(); ++c) arow[begin + c] += grow[c];
        }
      });
}

namespace {

void FwdLstmPackedMatMul(Node* out, Node* const* p, int, const OpCall&) {
  clfd::MatMulInto(p[0]->value, p[1]->value, &out->value);
}

}  // namespace

Var LstmPackedMatMul(const Var& x, const Var& w) {
  const Var* ins[] = {&x, &w};
  return MakeOp(
      Desc("ag::LstmPackedMatMul", &FwdLstmPackedMatMul, ins, 2),
      [](Node* out) {
        Node* xn = out->parents[0].get();
        Node* wn = out->parents[1].get();
        if (xn->requires_grad) {
          xn->EnsureGrad();
          MatMulTransposeBGateBlockedAddInto(out->grad, wn->value, &xn->grad);
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
  const Var* ins[] = {&w};
  return MakeOp(
      Desc("ag::LstmInputProjection", &FwdLstmInputProjection, ins, 1,
           {.i0 = block_rows, .aux_move = &xcat}),
      [block_rows](Node* out) {
        Node* wn = out->parents[0].get();
        wn->EnsureGrad();
        MatMulTransposeATimeBlockedAddInto(out->aux, out->grad, block_rows,
                                           &wn->grad);
      });
}

namespace {

void FwdLstmGates(Node* out, Node* const* p, int, const OpCall&) {
  clfd::LstmGatesForward(p[0]->value, p[1]->value, &out->value, &out->aux);
}

}  // namespace

Var LstmGates(const Var& pre, const Var& hc_prev) {
  const Var* ins[] = {&pre, &hc_prev};
  return MakeOp(Desc("ag::LstmGates", &FwdLstmGates, ins, 2), [](Node* out) {
    Node* pn = out->parents[0].get();
    Node* hn = out->parents[1].get();
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
    clfd::LstmGatesBackward(out->grad, out->aux, hn->value, dpre, dhc);
  });
}

namespace {

void FwdNormalizeRows(Node* out, Node* const* p, int, const OpCall&) {
  const Matrix& a = p[0]->value;
  clfd::CopyInto(a, &out->value);
  clfd::EnsureShape(&out->aux, a.rows(), 1, /*zeroed=*/false);
  for (int r = 0; r < a.rows(); ++r) {
    float n = RowNorm(a, r);
    out->aux.at(r, 0) = n;
    float* row = out->value.row(r);
    for (int c = 0; c < a.cols(); ++c) row[c] /= n;
  }
}

}  // namespace

Var NormalizeRows(const Var& a) {
  const Var* ins[] = {&a};
  return MakeOp(Desc("ag::NormalizeRows", &FwdNormalizeRows, ins, 1),
                [](Node* out) {
                  Node* an = out->parents[0].get();
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
                      ar[c] +=
                          inv * (g[c] - static_cast<float>(dot) * x[c] * inv);
                    }
                  }
                });
}

}  // namespace ag
}  // namespace clfd
