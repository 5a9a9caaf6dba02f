#include "encoders/simclr.h"

#include "augment/augment.h"
#include "autograd/var.h"
#include "encoders/sharded_step.h"
#include "losses/contrastive.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "obs/log.h"
#include "parallel/thread_pool.h"
#include "recovery/run_checkpointer.h"

namespace clfd {

void SimclrPretrain(SessionEncoder* encoder, ProjectionHead* projection,
                    const SessionDataset& train, const Matrix& embeddings,
                    const SimclrOptions& options, Rng* rng,
                    recovery::RunCheckpointer* rc) {
  std::vector<ag::Var> params = encoder->Parameters();
  auto proj_params = projection->Parameters();
  params.insert(params.end(), proj_params.begin(), proj_params.end());
  nn::Adam optimizer(params, options.learning_rate);

  ShardedEncoderTrainer trainer(encoder);
  recovery::PhaseLoop loop(rc, recovery::kPhasePretrain, options.epochs,
                           &optimizer, "simclr.epoch", options.metric_scope);
  // No loop-local state beyond params/optimizer/rng: batches and
  // augmentations are re-derived from the rng stream each epoch.
  loop.Run([&] {
    for (const auto& batch : train.MakeBatches(options.batch_size, rng)) {
      if (batch.size() < 2) continue;
      const int b = static_cast<int>(batch.size());
      // Two reordering-augmented views per session; rows (i, i + B) pair
      // up. Each view draws from a child stream keyed by its view index —
      // one serial Fork() per batch gives the nonce, Child(view) splits it
      // — so the augmentations are independent of how views are
      // distributed over workers.
      Rng batch_rng = rng->Fork();
      std::vector<Session> augmented(2 * b);
      parallel::ParallelFor(0, 2 * b, kExampleShardGrain,
                            [&](int64_t lo, int64_t hi) {
        for (int64_t v = lo; v < hi; ++v) {
          int idx = batch[static_cast<int>(v) % b];
          Rng view_rng = batch_rng.Child(static_cast<uint64_t>(v));
          augmented[v] = ReorderAugment(train.sessions[idx].session,
                                        &view_rng, options.reorder_sub_len);
        }
      });
      std::vector<const Session*> views;
      views.reserve(augmented.size());
      for (const Session& s : augmented) views.push_back(&s);

      loop.Batch([&]() -> float {
        float batch_loss =
            trainer.Step(views, embeddings, [&](const ag::Var& z) {
              return NtXentLoss(projection->Forward(z), options.temperature);
            });
        nn::ClipGradNorm(params, options.grad_clip);
        optimizer.Step();
        return batch_loss;
      });
    }
  });
  CLFD_LOG(INFO) << "simclr pretrain done"
                 << obs::Kv("scope", options.metric_scope)
                 << obs::Kv("epochs", options.epochs)
                 << obs::Kv("sessions", train.size());
}

}  // namespace clfd
