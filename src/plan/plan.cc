#include "plan/plan.h"

#include <atomic>
#include <cstring>

#include "obs/metrics.h"
#include "tensor/arena.h"
#include "tensor/matrix.h"

namespace clfd {
namespace plan {

namespace detail {

namespace {

[[noreturn]] void Mismatch(const char* what, const char* op) {
  throw ReplayMismatch(std::string("plan replay mismatch at '") +
                       (op != nullptr ? op : "<end>") + "': " + what);
}

}  // namespace

// ---------------------------------------------------------------- Capturer

namespace {

// Source of Node::plan_tag values; see the field's comment in plan.h.
// clfd-analyze: allow(semantic-mutable-global)
std::atomic<uint64_t> g_capture_ids{0};

}  // namespace

Capturer::Capturer(const arena::Arena* workspace)
    : workspace_(workspace), plan_(std::make_unique<ExecutionPlan>()) {
  uint64_t id = g_capture_ids.fetch_add(1, std::memory_order_relaxed) + 1;
  interior_tag_ = id * 2;
  external_tag_ = id * 2 + 1;
}
Capturer::~Capturer() = default;

bool Capturer::OnOp(const ag::OpDesc& desc, ag::Var*) {
  if (broken_) return false;
  if (pending_valid_) {
    broken_ = true;  // unpaired previous record; protocol violated
    return false;
  }
  pending_.is_leaf = false;
  pending_.op = desc.op;
  pending_.forward = desc.forward;
  pending_.f0 = desc.call.f0;
  pending_.i0 = desc.call.i0;
  pending_.i1 = desc.call.i1;
  pending_.aux = desc.call.aux_copy != nullptr   ? ExecutionPlan::Aux::kCopy
                 : desc.call.aux_move != nullptr ? ExecutionPlan::Aux::kMove
                                                 : ExecutionPlan::Aux::kNone;
  pending_.parents.clear();
  for (int i = 0; i < desc.num_inputs; ++i) {
    const ag::NodePtr& p = desc.inputs[i]->node();
    ag::Node* raw = p.get();
    if (raw->plan_tag != interior_tag_ && raw->plan_tag != external_tag_) {
      // First sighting of an input this capture did not itself build (model
      // parameter, pre-existing constant): pin it so the raw parent pointer
      // stays valid for the plan's lifetime. The tag doubles as the dedup
      // set, so a weight referenced by every LSTM timestep is pinned once.
      raw->plan_tag = external_tag_;
      plan_->externals_.push_back(p);
    }
    pending_.parents.push_back(raw);
  }
  pending_valid_ = true;
  return false;
}

bool Capturer::OnLeaf(const char* op, Matrix*, bool requires_grad, ag::Var*) {
  if (broken_) return false;
  if (pending_valid_) {
    broken_ = true;
    return false;
  }
  pending_.is_leaf = true;
  pending_.op = op;
  pending_.forward = nullptr;
  pending_.aux = ExecutionPlan::Aux::kNone;
  pending_.leaf_requires_grad = requires_grad;
  pending_.parents.clear();
  pending_valid_ = true;
  return false;
}

void Capturer::OnNodeCreated(const ag::NodePtr& node) {
  if (broken_) return;
  if (!pending_valid_) {
    broken_ = true;  // a node was built outside the interception protocol
    return;
  }
  if (!pending_.is_leaf && arena::Current() != workspace_) {
    // The op's value (and aux) landed in an arena the plan does not own,
    // whose owner would recycle it under the plan. Leaves are exempt:
    // replay rebinds their values by move every step.
    broken_ = true;
    return;
  }
  ExecutionPlan::Slot slot;
  slot.node = node;
  slot.op = pending_.op;
  slot.forward = pending_.forward;
  slot.f0 = pending_.f0;
  slot.i0 = pending_.i0;
  slot.i1 = pending_.i1;
  slot.aux = pending_.aux;
  slot.leaf = pending_.is_leaf;
  slot.leaf_requires_grad = pending_.leaf_requires_grad;
  slot.parent_off = static_cast<uint32_t>(plan_->parent_pool_.size());
  slot.parent_count = static_cast<uint32_t>(pending_.parents.size());
  plan_->parent_pool_.insert(plan_->parent_pool_.end(),
                             pending_.parents.begin(),
                             pending_.parents.end());
  node->plan_tag = interior_tag_;
  plan_->slots_.push_back(std::move(slot));
  pending_valid_ = false;
}

bool Capturer::OnBackward(const ag::Var&, const Matrix*) {
  return false;  // let the dynamic engine run; OnBackwardOrder records it
}

void Capturer::OnBackwardOrder(const ag::Var& root, const Matrix* seed,
                               const std::vector<ag::Node*>& post_order) {
  if (broken_) return;
  if (arena::Current() != workspace_) {
    broken_ = true;  // the tape gradients would land off the workspace
    return;
  }
  ExecutionPlan::BackwardRecord rec;
  rec.root = root.node().get();
  rec.seeded = seed != nullptr;
  rec.order.reserve(post_order.size());
  for (ag::Node* n : post_order) {
    ExecutionPlan::BackwardEntry entry;
    entry.node = n;
    entry.interior = n->plan_tag == interior_tag_;
    rec.order.push_back(entry);
  }
  plan_->backwards_.push_back(std::move(rec));
}

std::unique_ptr<ExecutionPlan> Capturer::Finalize() {
  if (broken_ || pending_valid_ || plan_->slots_.empty()) return nullptr;
  for (const auto& rec : plan_->backwards_) {
    if (rec.root->plan_tag != interior_tag_) {
      return nullptr;  // backward through a graph this plan did not capture
    }
    for (const auto& entry : rec.order) {
      // Externals in the backward order must be pure accumulation leaves
      // (parameters). An external *interior* node would re-run a closure
      // over state the plan does not refresh.
      if (!entry.interior && entry.node->backward_fn) return nullptr;
    }
  }
  // The plan keeps the buffers the capture step built in the workspace:
  // replay recomputes each value *into* them (FwdX → EnsureShape reuses a
  // same-shape matrix), which is what drives per-step tape allocations to
  // zero. Every op's forward has filled its value and aux before
  // OnNodeCreated sees the node, so the shapes read here are final.
  for (auto& slot : plan_->slots_) {
    slot.value_rows = slot.node->value.rows();
    slot.value_cols = slot.node->value.cols();
    if (slot.aux != ExecutionPlan::Aux::kNone) {
      slot.aux_rows = slot.node->aux.rows();
      slot.aux_cols = slot.node->aux.cols();
    }
  }
  return std::move(plan_);
}

// ---------------------------------------------------------------- Replayer

Replayer::Replayer(ExecutionPlan* plan) : plan_(plan) {}

ExecutionPlan::Slot& Replayer::NextSlot() {
  if (cursor_ >= plan_->slots_.size()) {
    Mismatch("step builds more ops than the plan", nullptr);
  }
  return plan_->slots_[cursor_];
}

bool Replayer::OnOp(const ag::OpDesc& desc, ag::Var* out) {
  ExecutionPlan::Slot& slot = NextSlot();
  if (slot.leaf) Mismatch("op where the plan has a leaf", desc.op);
  // Builders pass the same string literal every call, so pointer equality is
  // the common case; strcmp only breaks ties across translation units.
  if (slot.op != desc.op && std::strcmp(slot.op, desc.op) != 0) {
    Mismatch("op kind changed", desc.op);
  }
  ag::Node* const* parents = plan_->parent_pool_.data() + slot.parent_off;
  if (desc.num_inputs != static_cast<int>(slot.parent_count)) {
    Mismatch("op input count changed", desc.op);
  }
  for (int i = 0; i < desc.num_inputs; ++i) {
    if (desc.inputs[i]->node().get() != parents[i]) {
      Mismatch("op input rewired", desc.op);
    }
  }
  // Bit-compare the float argument so even NaN payload changes invalidate.
  if (std::memcmp(&desc.call.f0, &slot.f0, sizeof(float)) != 0 ||
      desc.call.i0 != slot.i0 || desc.call.i1 != slot.i1) {
    Mismatch("op scalar argument changed", desc.op);
  }
  switch (slot.aux) {
    case ExecutionPlan::Aux::kNone:
      if (desc.call.aux_copy != nullptr || desc.call.aux_move != nullptr) {
        Mismatch("unexpected aux binding", desc.op);
      }
      break;
    case ExecutionPlan::Aux::kCopy:
      if (desc.call.aux_copy == nullptr ||
          desc.call.aux_copy->rows() != slot.aux_rows ||
          desc.call.aux_copy->cols() != slot.aux_cols) {
        Mismatch("aux binding shape changed", desc.op);
      }
      break;
    case ExecutionPlan::Aux::kMove:
      if (desc.call.aux_move == nullptr ||
          desc.call.aux_move->rows() != slot.aux_rows ||
          desc.call.aux_move->cols() != slot.aux_cols) {
        Mismatch("aux binding shape changed", desc.op);
      }
      break;
  }
  ag::Node* n = slot.node.get();
  // The op's one forward body, then the probe and finite check the dynamic
  // MakeOp runs after it, so fault injection and the watchdog behave
  // identically under replay.
  slot.forward(n, parents, static_cast<int>(slot.parent_count), desc.call);
  ag::FinishForward(n);
  ++cursor_;
  *out = ag::Var(slot.node);
  return true;
}

bool Replayer::OnLeaf(const char* op, Matrix* value, bool requires_grad,
                      ag::Var* out) {
  ExecutionPlan::Slot& slot = NextSlot();
  if (!slot.leaf) Mismatch("leaf where the plan has an op", op);
  if (slot.op != op && std::strcmp(slot.op, op) != 0) {
    Mismatch("leaf kind changed", op);
  }
  if (slot.leaf_requires_grad != requires_grad) {
    Mismatch("leaf requires_grad changed", op);
  }
  if (value->rows() != slot.value_rows || value->cols() != slot.value_cols) {
    Mismatch("leaf binding shape changed", op);
  }
  CheckFinite(*value, op);
  slot.node->value = std::move(*value);
  ++cursor_;
  *out = ag::Var(slot.node);
  return true;
}

void Replayer::OnNodeCreated(const ag::NodePtr& node) {
  // Every builder is intercepted, so a dynamic node can only appear here if
  // an op bypassed the protocol (e.g. a new op kind without a hook
  // prologue). Invalidate rather than replay a graph we cannot see.
  Mismatch("node built outside the plan protocol", node->op);
}

bool Replayer::OnBackward(const ag::Var& root, const Matrix* seed) {
  if (!root.requires_grad()) return true;  // dynamic backward is a no-op too
  if (bw_cursor_ >= plan_->backwards_.size()) {
    Mismatch("step runs more backward passes than the plan", root.node()->op);
  }
  const ExecutionPlan::BackwardRecord& rec = plan_->backwards_[bw_cursor_];
  if (cursor_ != plan_->slots_.size()) {
    Mismatch("backward before the forward consumed the whole plan",
             root.node()->op);
  }
  if (root.node().get() != rec.root) Mismatch("backward root changed",
                                              root.node()->op);
  if ((seed != nullptr) != rec.seeded) Mismatch("backward seed presence changed",
                                                root.node()->op);
  if (seed != nullptr && !seed->SameShape(rec.root->value)) {
    Mismatch("backward seed shape changed", root.node()->op);
  }
  // Nothing below throws ReplayMismatch: gradients mutate from here on.
  CLFD_PROF_SCOPE("plan.replay.backward");
  for (const ExecutionPlan::BackwardEntry& entry : rec.order) {
    if (entry.interior) {
      entry.node->backward_runs = 0;
      // Interior tape grads must start from zero every step, exactly like a
      // fresh node's. The capture step built them in the workspace at the
      // value's shape, so the steady state is a pure Fill — no allocation.
      // The fallback only runs if a grad was never touched at capture (then
      // the null scope keeps the new buffer off the step arena, where it
      // would die at the next Reset).
      ag::Node* n = entry.node;
      if (n->grad.SameShape(n->value)) {
        n->grad.Fill(0.0f);
      } else {
        arena::ScopedArena heap_scope(nullptr);
        n->grad = Matrix(n->value.rows(), n->value.cols());
      }
    } else {
      entry.node->EnsureGrad();  // parameters keep accumulating across steps
    }
  }
  ag::Node* r = rec.root;
  if (seed != nullptr) {
    if (check::Enabled()) CheckFinite(*seed, "BackwardWithGrad seed");
    r->grad.AddInPlace(*seed);
  } else {
    // d root / d root = 1.
    for (int i = 0; i < r->grad.size(); ++i) r->grad[i] += 1.0f;
  }
  for (auto it = rec.order.rbegin(); it != rec.order.rend(); ++it) {
    ag::Node* n = it->node;
    if (!n->backward_fn) continue;
    if (check::Enabled() && n->backward_runs > 0) {
      check::Fail(std::string("autograd tape misuse: backward through op '") +
                  n->op + "' ran twice within one plan replay");
    }
    ++n->backward_runs;
    n->backward_fn(n);
  }
  ++bw_cursor_;
  backward_ran_ = true;
  return true;
}

void Replayer::OnBackwardOrder(const ag::Var&, const Matrix*,
                               const std::vector<ag::Node*>&) {
  // Unreachable: OnBackward either replays or throws. Nothing to record.
}

void Replayer::CheckForwardComplete() const {
  if (cursor_ != plan_->slots_.size()) {
    Mismatch("step built fewer ops than the plan", nullptr);
  }
}

}  // namespace detail

// ----------------------------------------------------------------- Planner

const ExecutionPlan* Planner::plan(uint64_t key) const {
  auto it = entries_.find(key);
  return it != entries_.end() ? it->second.plan.get() : nullptr;
}

void Planner::EndStep() {
  if (mode_ == Mode::kCapture) {
    if (std::unique_ptr<ExecutionPlan> p = capturer_->Finalize()) {
      entry_->plan = std::move(p);
      ++captures_;
      CLFD_METRIC_COUNT("plan.captures", 1);
    } else {
      // Not capturable (see Capturer::Finalize): pin this key to the
      // dynamic tape instead of re-trying every step.
      entry_->blacklisted = true;
      CLFD_METRIC_COUNT("plan.uncapturable", 1);
    }
  } else if (mode_ == Mode::kReplay) {
    ++replays_;
    CLFD_METRIC_COUNT("plan.replays", 1);
  }
  mode_ = Mode::kDynamic;
  capturer_.reset();
  replayer_.reset();
}

void Planner::Invalidate(const ReplayMismatch& m, bool fatal) {
  mode_ = Mode::kDynamic;
  replayer_.reset();
  entry_->plan.reset();
  ++invalidations_;
  CLFD_METRIC_COUNT("plan.invalidations", 1);
  if (++entry_->mismatches >= kMaxMismatchesPerKey) {
    entry_->blacklisted = true;
  }
  if (fatal) {
    check::Fail(std::string("execution plan invalidated once its backward "
                            "began: ") +
                m.what());
  }
}

}  // namespace plan
}  // namespace clfd
