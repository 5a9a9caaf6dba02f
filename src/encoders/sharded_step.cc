#include "encoders/sharded_step.h"

#include <algorithm>
#include <cassert>

#include "nn/module.h"
#include "obs/prof.h"
#include "parallel/reduce.h"
#include "parallel/thread_pool.h"

namespace clfd {

ShardedEncoderTrainer::ShardedEncoderTrainer(SessionEncoder* live)
    : live_(live) {}

void ShardedEncoderTrainer::EnsureReplicas(int count) {
  while (static_cast<int>(replicas_.size()) < count) {
    // The init draws are overwritten by CopyParameterValues every step; the
    // seed only has to make construction deterministic.
    Rng init_rng(0x5eedu + replicas_.size());
    replicas_.push_back(std::make_unique<SessionEncoder>(
        live_->emb_dim(), live_->hidden_dim(), live_->num_layers(),
        &init_rng));
    replica_params_.push_back(replicas_.back()->Parameters());
    // Pre-allocate the replica gradients here, outside any arena scope, so
    // they are heap-backed: the per-step ZeroGrads/EnsureGrad calls then
    // recycle these buffers in place and never touch the shard's arenas.
    nn::ZeroGrads(replica_params_.back());
    shard_planners_.push_back(std::make_unique<plan::Planner>());
  }
}

float ShardedEncoderTrainer::Step(
    const std::vector<const Session*>& sessions, const Matrix& embeddings,
    const std::function<ag::Var(const ag::Var&)>& head) {
  const int batch = static_cast<int>(sessions.size());
  assert(batch > 0);
  CLFD_PROF_SCOPE("encoder.step");
  const int num_shards =
      (batch + kExampleShardGrain - 1) / kExampleShardGrain;
  EnsureReplicas(num_shards);
  std::vector<ag::Var> live_params = live_->Parameters();
  // Make sure the live gradients exist before any arena scope opens, so
  // EnsureGrad during the backward passes finds heap-backed buffers and
  // gradient accumulation survives the per-step arena resets.
  for (ag::Var& p : live_params) p.node()->EnsureGrad();

  // Refresh replica weights from the live module and run the shard
  // forwards, each on its own tape in its shard Planner's arenas. Shards
  // write disjoint slots. The tape (values and intermediate grads) stays
  // valid until the shard Planner's *next* step, so the root encodings and
  // the resumed backward below both read valid memory.
  std::vector<ag::Var> shard_roots(num_shards);
  parallel::ParallelFor(0, num_shards, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      int row0 = static_cast<int>(s) * kExampleShardGrain;
      int row1 = std::min(row0 + kExampleShardGrain, batch);
      std::vector<const Session*> shard(sessions.begin() + row0,
                                        sessions.begin() + row1);
      // The shard tape's topology is a function of the shard's row count
      // and its padded (max) session length alone, so those two numbers
      // form the plan key. The forward draws nothing, so a mismatch
      // fallback has no RNG to restore.
      int max_len = 0;
      for (const Session* sess : shard) {
        max_len = std::max(max_len, sess->length());
      }
      shard_roots[s] = shard_planners_[s]->ForwardStep(
          plan::MakeKey(static_cast<uint64_t>(row1 - row0),
                        static_cast<uint64_t>(max_len)),
          nullptr, [&]() -> ag::Var {
            nn::CopyParameterValues(live_params, replica_params_[s]);
            return replicas_[s]->EncodeBatch(shard, embeddings);
          });
    }
  });

  // Serial loss head on the concatenated encodings. The Param leaf cuts the
  // tape: Backward stops here and deposits dL/dz in the leaf's grad. The
  // head is its own plan stream (forward and backward together: any
  // mismatch throws during forward validation, before gradients move, so
  // the dynamic rerun is safe), and dL/dz stays in the head Planner's
  // arenas until its next step.
  std::vector<Matrix> shard_values;
  shard_values.reserve(num_shards);
  for (const ag::Var& r : shard_roots) shard_values.push_back(r.value());
  ag::Var z;
  float loss_value = head_planner_.Step(
      plan::MakeKey(static_cast<uint64_t>(batch)), nullptr, [&]() -> float {
        z = ag::Param(ConcatRows(shard_values));
        ag::Var loss = head(z);
        float v = loss.value()[0];
        ag::Backward(loss);
        return v;
      });

  // Resume each shard's tape from its slice of dL/dz, accumulating into
  // the shard replica's private (heap-backed) gradient buffers. The shard
  // Planner re-enters the forward's arena *without* resetting it: the
  // forward tape is still live there, and the intermediate tape gradients
  // join it.
  parallel::ParallelFor(0, num_shards, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      int row0 = static_cast<int>(s) * kExampleShardGrain;
      int row1 = std::min(row0 + kExampleShardGrain, batch);
      shard_planners_[s]->BackwardStep([&]() {
        ag::BackwardWithGrad(shard_roots[s],
                             SliceRows(z.grad(), row0, row1));
      });
    }
  });

  // Merge: per parameter, fold the shard gradients with a fixed balanced
  // tree, then add to the live gradient. The add order depends only on the
  // shard count, so the merged gradient is thread-count-invariant.
  // Parameters are disjoint buffers, so the merge itself parallelizes.
  const int num_params = static_cast<int>(live_params.size());
  parallel::ParallelFor(0, num_params, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t p = lo; p < hi; ++p) {
      std::vector<Matrix*> slots(num_shards);
      for (int s = 0; s < num_shards; ++s) {
        slots[s] = &replica_params_[s][p].mutable_grad();
      }
      Matrix* total = parallel::TreeReduce(
          &slots, [](Matrix** into, Matrix* from) {
            (*into)->AddInPlace(*from);
          });
      live_params[p].node()->EnsureGrad();
      live_params[p].mutable_grad().AddInPlace(*total);
    }
  });
  return loss_value;
}

}  // namespace clfd
