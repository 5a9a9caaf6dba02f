#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "autograd/var.h"
#include "data/session.h"
#include "encoders/session_encoder.h"
#include "plan/plan.h"

namespace clfd {

// Shard width for example-level data parallelism in the contrastive
// training loops. Shard boundaries are a function of the batch size and
// this constant alone — never of the thread count — so the per-shard
// padding, the per-shard autograd tapes, and the gradient merge tree are
// identical at any parallel width. Changing this constant changes float
// results in the same benign way changing the batch size does; changing
// CLFD_THREADS never does.
inline constexpr int kExampleShardGrain = 16;

// Data-parallel forward/backward driver for one encoder training step.
//
// The batch is cut into fixed shards of kExampleShardGrain examples. Each
// shard runs the encoder forward on its own autograd tape against a
// *replica* of the encoder (parameter values copied from the live module
// before every step), so shard backward passes touch disjoint gradient
// buffers and need no locks. The loss head — projection + contrastive loss,
// a tiny fraction of the step's flops — is built serially on the
// concatenated shard encodings; its input gradient is then sliced back to
// the shards, each shard resumes its own tape in parallel
// (ag::BackwardWithGrad), and the replica gradients are folded into the
// live module with a fixed balanced tree (parallel/reduce.h). The caller
// clips and steps the optimizer as usual.
class ShardedEncoderTrainer {
 public:
  // `live` must outlive the trainer; replicas mirror its dimensions.
  explicit ShardedEncoderTrainer(SessionEncoder* live);

  // One training step: encodes `sessions`, applies `head` (which must map
  // the [B x hidden] encoding Var to a [1 x 1] loss Var), and leaves the
  // batch's gradients accumulated in the live encoder's parameters and in
  // any live parameters `head` captured. Returns the loss value.
  float Step(const std::vector<const Session*>& sessions,
             const Matrix& embeddings,
             const std::function<ag::Var(const ag::Var&)>& head);

 private:
  void EnsureReplicas(int count);

  SessionEncoder* live_;
  std::vector<std::unique_ptr<SessionEncoder>> replicas_;
  // Replica parameter values and gradients are deliberately heap-backed —
  // allocated in EnsureReplicas outside any planned step and refreshed in
  // place afterwards — because they must outlive the per-step tapes.
  std::vector<std::vector<ag::Var>> replica_params_;
  // Plan caches: one per shard replica (keyed by shard rows x max session
  // length, the only shape degrees of freedom of the shard tape) plus one
  // for the serial loss head (keyed by total batch rows). Each Planner's
  // arenas hold its tape from one step to the next. Each shard planner is
  // driven by exactly one pool worker per region and the pool joins order
  // the forward->backward handoff, so no locks are needed. Plans are
  // derived state — a trainer rebuilt on resume just re-captures.
  std::vector<std::unique_ptr<plan::Planner>> shard_planners_;
  plan::Planner head_planner_;
};

}  // namespace clfd

