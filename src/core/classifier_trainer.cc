#include "core/classifier_trainer.h"

#include <cassert>
#include <functional>

#include "autograd/var.h"
#include "losses/mixup.h"
#include "losses/robust_losses.h"
#include "losses/sce.h"
#include "nn/optimizer.h"
#include "obs/log.h"
#include "plan/plan.h"
#include "recovery/checkpoint.h"
#include "recovery/run_checkpointer.h"

namespace clfd {

void TrainClassifierOnFeatures(nn::FeedForwardClassifier* classifier,
                               const Matrix& features,
                               const std::vector<int>& labels,
                               const ClfdConfig& config, Rng* rng,
                               const char* metric_scope,
                               recovery::RunCheckpointer* rc, int phase) {
  assert(features.rows() == static_cast<int>(labels.size()));
  int n = features.rows();
  if (n == 0) return;

  // Constructed outside the planned steps so the parameter gradient and
  // moment buffers are heap-backed and survive the per-batch arena resets.
  nn::Adam optimizer(classifier->Parameters(), config.learning_rate);
  // Plan cache for this training loop, keyed by batch row count (the only
  // shape degree of freedom here): the first full batch and the final
  // partial batch each capture once, every other batch replays. The
  // Planner's arenas hold each batch's tape: batch matrices, forward
  // activations and intermediate gradients. Local to the call, so a
  // resume-from-checkpoint naturally re-captures — plan state is derived,
  // never serialized.
  plan::Planner planner;
  recovery::PhaseLoop loop(rc, phase, config.budget.classifier_epochs,
                           &optimizer, "classifier.epoch", metric_scope);

  // The shuffle order is mutated in place every epoch (consecutive
  // Fisher-Yates passes), so on resume it must come back from the snapshot
  // — rebuilding it as iota would change every subsequent batch
  // composition and break exact resume.
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  if (!loop.local_state().empty()) {
    recovery::ByteReader reader(loop.local_state());
    std::vector<int> restored = reader.GetInts();
    if (static_cast<int>(restored.size()) != n) {
      throw recovery::CheckpointError(
          recovery::CheckpointStatus::kShapeMismatch,
          "classifier shuffle order holds " +
              std::to_string(restored.size()) + " entries, dataset has " +
              std::to_string(n));
    }
    order = std::move(restored);
  }

  // Auxiliary minority rows per batch, mirroring the auxiliary malicious
  // batch S^1 the paper uses in supervised contrastive pre-training (Sec.
  // III-B1): without it the (possibly extreme) class imbalance lets the
  // majority anchors' mixup targets flood the minority region and recall of
  // the minority class collapses. The minority class is whichever label is
  // rarer in `labels`.
  std::vector<int> minority_pool;
  {
    int count1 = 0;
    for (int label : labels) count1 += (label == 1);
    int minority_label = 2 * count1 <= n ? 1 : 0;
    for (int i = 0; i < n; ++i) {
      if (labels[i] == minority_label) minority_pool.push_back(i);
    }
    if (minority_pool.size() >= static_cast<size_t>(n) / 4) {
      minority_pool.clear();  // balanced enough already
    }
  }
  int aux = minority_pool.empty()
                ? 0
                : std::max(1, config.batch_size / 5);
  // Mixup partner candidates: the whole training table, grouped by label.
  const MixupPartners partners(labels);

  // The batch loss, picked once; the three mixup variants share one step.
  const bool mixup = config.classifier_loss == ClassifierLoss::kMixupGce ||
                     config.classifier_loss == ClassifierLoss::kMixupMae ||
                     config.classifier_loss == ClassifierLoss::kMixupSce;
  std::function<ag::Var(const ag::Var&, const Matrix&)> loss_of;
  switch (config.classifier_loss) {
    case ClassifierLoss::kMixupGce:
    case ClassifierLoss::kVanillaGce:
      loss_of = [q = config.gce_q](const ag::Var& probs,
                                   const Matrix& targets) {
        return GceLoss(probs, targets, q);
      };
      break;
    case ClassifierLoss::kCce:
      loss_of = CceLoss;
      break;
    case ClassifierLoss::kMixupMae:
      // Future-work extension: mixup unhinged/MAE (GCE at q = 1).
      loss_of = MaeLoss;
      break;
    case ClassifierLoss::kMixupSce:
      // Future-work extension: mixup Symmetric Cross Entropy.
      loss_of = [](const ag::Var& probs, const Matrix& targets) {
        return SceLoss(probs, targets);
      };
      break;
  }

  auto save_order = [&order] {
    recovery::ByteWriter writer;
    writer.PutInts(order);
    return writer.Take();
  };
  loop.Run([&] {
    rng->Shuffle(&order);
    for (int start = 0; start < n; start += config.batch_size) {
      loop.Batch([&]() -> float {
      int end = std::min(start + config.batch_size, n);
      int b = end - start + (end - start == config.batch_size ? aux : 0);
      // The whole step — batch assembly, RNG draws, forward, backward,
      // optimizer update — sits inside the plan body so a replay mismatch
      // can rerun it on the dynamic tape from a clean slate (the planner
      // resets its arena and restores the RNG snapshot).
      return planner.Step(plan::MakeKey(static_cast<uint64_t>(b)), rng,
                          [&]() -> float {
      Matrix batch_features(b, features.cols());
      std::vector<int> batch_labels(b);
      for (int i = 0; i < end - start; ++i) {
        batch_features.CopyRowFrom(features, order[start + i], i);
        batch_labels[i] = labels[order[start + i]];
      }
      for (int i = end - start; i < b; ++i) {
        int idx = minority_pool[rng->UniformInt(
            static_cast<int>(minority_pool.size()))];
        batch_features.CopyRowFrom(features, idx, i);
        batch_labels[i] = labels[idx];
      }

      ag::Var loss;
      if (mixup) {
        // Mixup (Eq. 2-3) applied as an augmentation: the batch loss
        // averages the loss on the mixed samples with the loss on the pure
        // samples. The pure term keeps the per-region label votes (without
        // it the minority cluster's recall collapses at reduced data
        // scales); the mixed term supplies the label-memorization
        // protection the paper credits mixup with.
        MixupBatch mixed =
            MakeMixupBatch(batch_features, batch_labels, features, partners,
                           config.mixup_beta, rng);
        ag::Var mixed_probs =
            classifier->ForwardProbs(ag::Constant(mixed.features));
        ag::Var pure_probs =
            classifier->ForwardProbs(ag::Constant(batch_features));
        loss = ag::Scale(
            ag::Add(loss_of(mixed_probs, mixed.targets),
                    loss_of(pure_probs, OneHot(batch_labels))),
            0.5f);
      } else {
        ag::Var probs =
            classifier->ForwardProbs(ag::Constant(batch_features));
        loss = loss_of(probs, OneHot(batch_labels));
      }
      ag::Backward(loss);
      optimizer.Step();
      return loss.value()[0];
      });
      });
    }
  }, save_order);
  CLFD_LOG(INFO) << "classifier training done"
                 << obs::Kv("scope", metric_scope)
                 << obs::Kv("epochs", config.budget.classifier_epochs)
                 << obs::Kv("samples", n);
}

}  // namespace clfd
