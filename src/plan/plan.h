#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "autograd/tape_hooks.h"
#include "common/check.h"
#include "common/rng.h"
#include "obs/prof.h"
#include "tensor/arena.h"

namespace clfd {
namespace plan {

// Static execution plans (DESIGN.md §15).
//
// The four training phases each run a fixed-topology graph for thousands of
// steps, yet the dynamic tape rebuilds it node-by-node every step — a
// shared_ptr<Node>, a std::function closure and a shape check per op. An
// ExecutionPlan captures ONE representative step through the tape hooks
// (autograd/tape_hooks.h): the flat construction-ordered node list with
// resolved forward bodies, scalar op arguments, parent wiring and leaf
// binding shapes, plus the backward pass's exact post-order execution
// sequence. The capture step runs on its Planner's workspace arena, and the
// plan keeps the buffers that step built there. Every later step with the
// same shape key REPLAYS that plan: leaves are rebound by move, each node's
// value is recomputed *in place* into its workspace buffer by a plain
// function pointer (the *Into kernels in tensor/matrix.h), interior
// gradients are re-zeroed in place, and the backward runs the captured
// closures in the captured order — zero graph construction and zero
// per-step tape allocations (kernel-internal compute scratch aside), all
// structural validation hoisted to cheap identity/shape comparisons.
//
// Step memory: the Planner owns the memory its steps run on and opens the
// arena scope around every step body itself. A capture runs on the
// workspace; replayed steps, fallback reruns and dynamic-only keys run on
// the Planner's step arena. A plan body therefore opens no ScopedArena of
// its own: a plan would keep buffers in an arena whose owner recycles them
// under it, so a capture that builds an op node or a backward pass on any
// other arena is refused and its key pinned dynamic ("plan.uncapturable").
//
// Workspace sharing: all plans of one Planner live in one workspace, and
// each capture Resets it and lays its plan out from the workspace's start,
// so a Planner holds its largest plan rather than the sum of its plans. The
// plans therefore overlap in memory, which is safe because a Planner runs
// one plan per step and no plan buffer carries anything into the next step:
// values are recomputed, interior gradients are re-zeroed, leaves are
// rebound by move, aux is copied or moved in, and parameters are external
// (never in the workspace). The caller's side of the contract is stated on
// Planner below. Under check::Enabled() every capture NaN-poisons the
// workspace (Arena::Reset), so a stale read across plans fails the next
// CheckFinite.
//
// Bitwise contract: a replayed step runs exactly the kernel calls of the
// dynamic step, in the same order, on the same buffers — including
// kLstmGateBackwardOrder and every gradient accumulation order — so a
// planned loop is bitwise identical to the same loop run on the dynamic
// tape without a Planner (tests/plan_test.cc), and full runs keep the
// committed run fingerprint (eval_test's BackendInvarianceTest).
//
// Invalidation: any divergence between a step and its plan (different op
// sequence, op scalar arguments, input rewiring, leaf binding shape,
// backward root/seed) throws ReplayMismatch *before* any gradient is
// mutated; the Planner then discards the plan, restores the step's RNG
// snapshot and reruns the step on the dynamic tape. Keys that keep
// mismatching are pinned dynamic-only. Plans are derived state: they are
// never serialized, and a resume-from-checkpoint simply re-captures
// (tests/recovery_test.cc).

// Always true: every training loop steps through a Planner, whose
// dynamic tape is the capture and fallback path. Kept only for the
// end-to-end benchmark's settings record.
inline bool Enabled() { return true; }

// Thrown by the replayer when the current step diverges from the captured
// plan. Always thrown before any gradient mutation, so the Planner can fall
// back to a clean dynamic rerun. Deliberately NOT a check::InvariantError:
// the fault watchdog must keep treating InvariantError as numeric
// corruption, while a mismatch is a benign structural invalidation.
class ReplayMismatch : public std::runtime_error {
 public:
  explicit ReplayMismatch(const std::string& message)
      : std::runtime_error(message) {}
};

namespace detail {
class Capturer;
class Replayer;
}  // namespace detail

// One captured step: the slot list in construction order plus the recorded
// backward pass(es). Owns its interior nodes (and pins external inputs such
// as model parameters) for the lifetime of the plan; the nodes' buffers
// live in the owning Planner's workspace.
class ExecutionPlan {
 public:
  enum class Aux { kNone, kCopy, kMove };

  struct Slot {
    ag::NodePtr node;
    const char* op = nullptr;
    ag::PlanForwardFn forward = nullptr;  // null for leaf slots
    float f0 = 0.0f;
    int i0 = 0;
    int i1 = 0;
    Aux aux = Aux::kNone;
    int aux_rows = 0, aux_cols = 0;
    bool leaf = false;
    bool leaf_requires_grad = false;
    int value_rows = 0, value_cols = 0;
    // Parent nodes in input order, stored as an [offset, count) window into
    // the plan's shared parent_pool_ (one flat array instead of a heap
    // vector per slot; the pointers are kept alive by earlier slots or by
    // externals_).
    uint32_t parent_off = 0;
    uint32_t parent_count = 0;
  };

  struct BackwardEntry {
    ag::Node* node = nullptr;
    // True → plan-owned tape node: its gradient is freshly zeroed every
    // replay. False → external (model parameter): EnsureGrad only, so
    // accumulation across steps keeps the dynamic tape's semantics.
    bool interior = false;
  };

  struct BackwardRecord {
    ag::Node* root = nullptr;
    bool seeded = false;
    std::vector<BackwardEntry> order;  // post-order, leaves toward root
  };

  size_t num_slots() const { return slots_.size(); }
  const std::vector<Slot>& slots() const { return slots_; }
  const std::vector<BackwardRecord>& backwards() const { return backwards_; }

 private:
  friend class detail::Capturer;
  friend class detail::Replayer;

  std::vector<Slot> slots_;
  std::vector<ag::Node*> parent_pool_;  // backing store for Slot parents
  std::vector<BackwardRecord> backwards_;
  std::vector<ag::NodePtr> externals_;  // keep-alive for external parents
};

namespace detail {

// Capture-mode tape hooks: observe the dynamic step and record it. The
// dynamic builders still run, so the capture step *is* a normal step, and
// it must run on `workspace`, where the plan keeps the buffers it builds.
class Capturer : public ag::TapeHooks {
 public:
  explicit Capturer(const arena::Arena* workspace);
  ~Capturer() override;

  bool OnOp(const ag::OpDesc& desc, ag::Var* out) override;
  bool OnLeaf(const char* op, Matrix* value, bool requires_grad,
              ag::Var* out) override;
  void OnNodeCreated(const ag::NodePtr& node) override;
  bool OnBackward(const ag::Var& root, const Matrix* seed) override;
  void OnBackwardOrder(const ag::Var& root, const Matrix* seed,
                       const std::vector<ag::Node*>& post_order) override;

  // Completes the capture and records every slot's shapes; null when the
  // step was not capturable (a node was created outside the interception
  // protocol, an op node or a backward pass ran off the workspace, or an
  // already-consumed external subgraph leaked into the backward order).
  std::unique_ptr<ExecutionPlan> Finalize();

 private:
  struct Pending {
    bool is_leaf = false;
    const char* op = nullptr;
    ag::PlanForwardFn forward = nullptr;
    float f0 = 0.0f;
    int i0 = 0, i1 = 0;
    ExecutionPlan::Aux aux = ExecutionPlan::Aux::kNone;
    bool leaf_requires_grad = false;
    // Raw parent pointers; externals are pinned (and tagged) in OnOp, so no
    // refcount traffic or per-op vector allocation happens here — the
    // vector's capacity is reused across ops via clear().
    std::vector<ag::Node*> parents;
  };

  const arena::Arena* workspace_;
  std::unique_ptr<ExecutionPlan> plan_;
  Pending pending_;
  bool pending_valid_ = false;
  bool broken_ = false;
  // Node::plan_tag values for this capture, minted from a process-global
  // monotonic counter (interior = 2*id, external = 2*id + 1) so tags from
  // dead plans can never be mistaken for this capture's. Tag comparison
  // replaces the hash lookups a slot-index map would need per op.
  uint64_t interior_tag_ = 0;
  uint64_t external_tag_ = 0;
};

// Replay-mode tape hooks: satisfy every op/leaf/backward from the plan,
// validating structure as it goes. Any divergence throws ReplayMismatch
// before gradients are touched.
class Replayer : public ag::TapeHooks {
 public:
  explicit Replayer(ExecutionPlan* plan);

  bool OnOp(const ag::OpDesc& desc, ag::Var* out) override;
  bool OnLeaf(const char* op, Matrix* value, bool requires_grad,
              ag::Var* out) override;
  void OnNodeCreated(const ag::NodePtr& node) override;
  bool OnBackward(const ag::Var& root, const Matrix* seed) override;
  void OnBackwardOrder(const ag::Var& root, const Matrix* seed,
                       const std::vector<ag::Node*>& post_order) override;

  // Throws ReplayMismatch unless the whole forward slot list was consumed.
  void CheckForwardComplete() const;
  bool backward_ran() const { return backward_ran_; }

 private:
  ExecutionPlan::Slot& NextSlot();

  ExecutionPlan* plan_;
  size_t cursor_ = 0;
  size_t bw_cursor_ = 0;
  bool backward_ran_ = false;
};

// Installs tape hooks for the current scope (restores the previous hooks on
// exit, including on exceptions).
class HooksGuard {
 public:
  explicit HooksGuard(ag::TapeHooks* hooks) : prev_(ag::SetTapeHooks(hooks)) {}
  ~HooksGuard() { ag::SetTapeHooks(prev_); }
  HooksGuard(const HooksGuard&) = delete;
  HooksGuard& operator=(const HooksGuard&) = delete;

 private:
  ag::TapeHooks* prev_;
};

}  // namespace detail

// Packs a shape tuple into a plan cache key.
inline uint64_t MakeKey(uint64_t a, uint64_t b = 0) {
  return (a << 32) | (b & 0xffffffffu);
}

// Per-training-loop plan cache + capture/replay driver, and the owner of
// the memory its steps run on (see "Step memory" above). One Planner per
// logical tape stream: the classifier trainer owns one, the sharded trainer
// owns one per shard replica plus one for the serial loss head. A Planner
// is NOT thread-safe — each instance must be driven by one worker at a time
// (the sharded trainer's per-shard ownership plus the pool join's
// happens-before give exactly that).
//
// Buffer lifetime: every plan's buffers live in the Planner's one
// workspace, shared by all of its keys (see "Workspace sharing" above),
// and every other step's tape lives in its step arena. A Var built inside
// a planned step — its value, grad and aux — stays valid until this
// Planner's next Step or ForwardStep, whatever that step's key, and never
// past the Planner's life. Copy out anything needed longer.
class Planner {
 public:
  Planner() = default;
  Planner(const Planner&) = delete;
  Planner& operator=(const Planner&) = delete;

  // One-shot step: the whole step — batch assembly, RNG draws, forward,
  // backward, optimizer update — inside `body`, which returns the step
  // loss. ForwardStep's rules apply to all of it.
  template <typename Body>
  float Step(uint64_t key, Rng* rng, Body&& body) {
    float loss = ForwardStep(key, rng, body);
    EndStep();
    return loss;
  }

  // The one capture/replay driver. The first step per key captures, later
  // steps replay. On a replay mismatch the plan is invalidated, `rng`
  // (optional) is restored to its pre-step snapshot, and `body` is rerun
  // on the dynamic tape — callers must therefore put the whole forward
  // inside `body`, including batch assembly and any RNG draws. A mismatch
  // after the planned backward ran, or in BackwardStep, is a check::Fail
  // instead: a rerun would double-accumulate gradients (the fault watchdog
  // zeroes grads and skips the batch). A key that mismatches twice is
  // pinned to the dynamic tape.
  //
  // Split use, for the sharded trainer, whose forward and backward run in
  // separate pool regions with a serial loss head in between: ForwardStep
  // returns body()'s result (the shard's tape root), and BackwardStep runs
  // the backward (the BackwardWithGrad call) in the forward's arena,
  // without resetting it, and ends the step. The pool join between regions
  // orders the Planner's internal state handoff.
  template <typename Body>
  auto ForwardStep(uint64_t key, Rng* rng, Body&& body) -> decltype(body()) {
    Entry& e = entries_[key];
    entry_ = &e;
    mode_ = Mode::kDynamic;
    if (e.blacklisted) return RunDynamic(body);
    if (e.plan == nullptr) {
      mode_ = Mode::kCapture;
      capturer_.emplace(&workspace_);
      CLFD_PROF_SCOPE("plan.capture");
      workspace_.Reset();
      arena::ScopedArena scope(&workspace_);
      detail::HooksGuard guard(&*capturer_);
      return body();
    }
    // Plain object copy, not SaveState(): the text round-trip formats the
    // whole mt19937_64 state through a stringstream, which is orders of
    // magnitude slower than this stack copy and would tax every replayed
    // step for the rare mismatch that actually needs the undo.
    std::optional<Rng> rng_snapshot;
    if (rng != nullptr) rng_snapshot = *rng;
    replayer_.emplace(e.plan.get());
    try {
      CLFD_PROF_SCOPE("plan.replay");
      step_arena_.Reset();
      arena::ScopedArena scope(&step_arena_);
      detail::HooksGuard guard(&*replayer_);
      auto out = body();
      replayer_->CheckForwardComplete();
      mode_ = Mode::kReplay;
      return out;
    } catch (const ReplayMismatch& m) {
      Invalidate(m, replayer_->backward_ran());
      if (rng != nullptr) *rng = *rng_snapshot;
      return RunDynamic(body);
    }
  }

  template <typename Body>
  void BackwardStep(Body&& body) {
    switch (mode_) {
      case Mode::kDynamic: {
        arena::ScopedArena scope(&step_arena_);
        body();
        break;
      }
      case Mode::kCapture: {
        CLFD_PROF_SCOPE("plan.capture");
        arena::ScopedArena scope(&workspace_);
        detail::HooksGuard guard(&*capturer_);
        body();
        break;
      }
      case Mode::kReplay: {
        try {
          CLFD_PROF_SCOPE("plan.replay");
          arena::ScopedArena scope(&step_arena_);
          detail::HooksGuard guard(&*replayer_);
          body();
        } catch (const ReplayMismatch& m) {
          // The backward topology is fixed once the forward replayed; a
          // mismatch here cannot be silently retried (gradients may be in
          // an intermediate state).
          Invalidate(m, /*fatal=*/true);
        }
        break;
      }
    }
    EndStep();
  }

  // Introspection (tests, benchmarks).
  const ExecutionPlan* plan(uint64_t key) const;
  int64_t captures() const { return captures_; }
  int64_t replays() const { return replays_; }
  int64_t invalidations() const { return invalidations_; }

 private:
  struct Entry {
    std::unique_ptr<ExecutionPlan> plan;
    int mismatches = 0;
    bool blacklisted = false;
  };
  // What the current step's forward did, so its backward and EndStep can
  // finish it the same way.
  enum class Mode { kDynamic, kCapture, kReplay };

  // A key that keeps invalidating is pinned dynamic-only so a shape-
  // thrashing loop does not pay capture cost every step.
  static constexpr int kMaxMismatchesPerKey = 2;

  template <typename Body>
  auto RunDynamic(Body& body) -> decltype(body()) {
    step_arena_.Reset();
    arena::ScopedArena scope(&step_arena_);
    return body();
  }

  // Finalizes a capture or counts a replay, and returns to kDynamic.
  void EndStep();
  // Discards the current step's plan after `m`; check::Fail when `fatal`.
  void Invalidate(const ReplayMismatch& m, bool fatal);

  // Backing store of every plan's slot buffers. Declared before entries_
  // so it outlives the plans whose nodes point into it.
  arena::Arena workspace_;
  // Every step that does not capture: replays, fallback reruns and
  // dynamic-only keys.
  arena::Arena step_arena_;
  // Key lookup only; never iterated.
  // clfd-analyze: allow(determinism-unordered)
  std::unordered_map<uint64_t, Entry> entries_;
  int64_t captures_ = 0;
  int64_t replays_ = 0;
  int64_t invalidations_ = 0;

  Mode mode_ = Mode::kDynamic;
  Entry* entry_ = nullptr;
  // Held in place so a replayed step makes no heap allocation for them.
  std::optional<detail::Capturer> capturer_;
  std::optional<detail::Replayer> replayer_;
};

}  // namespace plan
}  // namespace clfd
