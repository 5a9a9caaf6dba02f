#include "baselines/ulc.h"

#include <algorithm>
#include <cmath>

#include "losses/mixup.h"
#include "nn/optimizer.h"

namespace clfd {

UlcModel::UlcModel(const BaselineConfig& config, uint64_t seed,
                   int warmup_epochs, double relabel_confidence)
    : config_(config), rng_(seed), warmup_epochs_(warmup_epochs),
      relabel_confidence_(relabel_confidence) {}

void UlcModel::Train(const SessionDataset& train, const Matrix& embeddings) {
  RequireTrainingSessions(train);
  embeddings_ = embeddings;
  net_a_ = std::make_unique<LstmClassifier>(config_, &rng_);
  net_b_ = std::make_unique<LstmClassifier>(config_, &rng_);

  std::vector<int> labels(train.size());
  for (int i = 0; i < train.size(); ++i) {
    labels[i] = train.sessions[i].noisy_label;
  }

  nn::Adam opt_a(net_a_->Parameters(), config_.learning_rate);
  nn::Adam opt_b(net_b_->Parameters(), config_.learning_rate);

  // Warm-up on the raw noisy labels.
  for (int epoch = 0; epoch < warmup_epochs_; ++epoch) {
    Matrix onehot = OneHot(labels);
    TrainCeEpoch(net_a_.get(), train, onehot, embeddings_, config_, &opt_a,
                 &rng_);
    TrainCeEpoch(net_b_.get(), train, onehot, embeddings_, config_, &opt_b,
                 &rng_);
  }

  // Correction rounds.
  for (int round = 0; round < config_.budget.contrastive_epochs; ++round) {
    Matrix pa = net_a_->PredictProbs(train, embeddings_);
    Matrix pb = net_b_->PredictProbs(train, embeddings_);

    // Class-aware relabel thresholds: the minority (malicious) class gets a
    // slightly laxer threshold so imbalance does not freeze its corrections.
    double threshold[2] = {relabel_confidence_,
                           std::max(0.6, relabel_confidence_ - 0.1)};

    Matrix targets(train.size(), 2);
    std::vector<double> sample_weight(train.size(), 1.0);
    for (int i = 0; i < train.size(); ++i) {
      float agree1 = 0.5f * (pa.at(i, 1) + pb.at(i, 1));
      int predicted = agree1 > 0.5f ? 1 : 0;
      double confidence = predicted == 1 ? agree1 : 1.0f - agree1;
      // Epistemic proxy: disagreement between the two networks.
      double disagreement = std::abs(pa.at(i, 1) - pb.at(i, 1));
      double uncertainty = std::min(1.0, disagreement + 2.0 * (1 - confidence));

      int label = labels[i];
      if (predicted != label && confidence > threshold[predicted]) {
        label = predicted;  // confident correction
      }
      targets.at(i, label) = 1.0f;
      sample_weight[i] = 1.0 - 0.5 * uncertainty;
      labels[i] = label;
    }

    // One epoch per network on the corrected, uncertainty-weighted targets.
    for (int i = 0; i < train.size(); ++i) {
      for (int k = 0; k < 2; ++k) {
        targets.at(i, k) *= static_cast<float>(sample_weight[i]);
      }
    }
    TrainCeEpoch(net_a_.get(), train, targets, embeddings_, config_, &opt_a,
                 &rng_);
    TrainCeEpoch(net_b_.get(), train, targets, embeddings_, config_, &opt_b,
                 &rng_);
  }
}

std::vector<double> UlcModel::Score(const SessionDataset& data) const {
  Matrix pa = net_a_->PredictProbs(data, embeddings_);
  Matrix pb = net_b_->PredictProbs(data, embeddings_);
  std::vector<double> scores(data.size());
  for (int i = 0; i < data.size(); ++i) {
    scores[i] = 0.5 * (pa.at(i, kMalicious) + pb.at(i, kMalicious));
  }
  return scores;
}

}  // namespace clfd
