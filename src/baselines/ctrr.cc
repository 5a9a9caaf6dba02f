#include "baselines/ctrr.h"

#include <algorithm>

#include "losses/contrastive.h"
#include "losses/mixup.h"
#include "losses/robust_losses.h"
#include "nn/module.h"
#include "nn/optimizer.h"

namespace clfd {

CtrrModel::CtrrModel(const ClfdConfig& config, uint64_t seed,
                     double reg_weight, double confidence_threshold)
    : config_(config), rng_(seed), reg_weight_(reg_weight),
      confidence_threshold_(confidence_threshold) {}

void CtrrModel::Train(const SessionDataset& train, const Matrix& embeddings) {
  RequireTrainingSessions(train);
  embeddings_ = embeddings;
  net_ = std::make_unique<LstmClassifier>(config_, &rng_);

  std::vector<int> noisy = NoisyLabels(train);

  auto params = net_->Parameters();
  nn::Adam optimizer(params, config_.learning_rate);

  int total_epochs =
      config_.budget.contrastive_epochs + config_.budget.sequence_epochs;
  for (int epoch = 0; epoch < total_epochs; ++epoch) {
    for (const auto& batch : train.MakeBatches(config_.batch_size, &rng_)) {
      if (batch.size() < 2) continue;
      int b = static_cast<int>(batch.size());
      std::vector<const Session*> sessions;
      std::vector<int> batch_labels;
      for (int idx : batch) {
        sessions.push_back(&train.sessions[idx].session);
        batch_labels.push_back(noisy[idx]);
      }

      ag::Var reps = net_->ForwardRepresentations(sessions, embeddings_);
      ag::Var probs = net_->HeadProbs(reps);

      // Confidence of the *given* noisy label under the current model; only
      // pairs of samples the model itself believes participate in the
      // regularizer (zero-confidence rows drop out of every pair weight).
      const Matrix& prob_values = probs.value();
      std::vector<double> confidences(b);
      for (int i = 0; i < b; ++i) {
        double p = prob_values.at(i, batch_labels[i]);
        confidences[i] = p >= confidence_threshold_ ? p : 0.0;
      }

      ag::Var ce = CceLoss(probs, OneHot(batch_labels));
      ag::Var reg = SupConLoss(reps, batch_labels, confidences, b, 1.0f,
                               SupConVariant::kWeighted);
      ag::Var loss =
          ag::Add(ce, ag::Scale(reg, static_cast<float>(reg_weight_)));
      ag::Backward(loss);
      nn::ClipGradNorm(params, config_.grad_clip);
      optimizer.Step();
    }
  }
}

std::vector<double> CtrrModel::Score(const SessionDataset& data) const {
  Matrix probs = net_->PredictProbs(data, embeddings_);
  std::vector<double> scores(data.size());
  for (int i = 0; i < data.size(); ++i) scores[i] = probs.at(i, kMalicious);
  return scores;
}

}  // namespace clfd
