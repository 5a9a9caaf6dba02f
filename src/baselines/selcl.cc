#include "baselines/selcl.h"

#include <algorithm>

#include "autograd/var.h"
#include "baselines/knn.h"
#include "core/classifier_trainer.h"
#include "encoders/simclr.h"
#include "losses/contrastive.h"
#include "nn/module.h"
#include "nn/optimizer.h"

namespace clfd {

SelClModel::SelClModel(const ClfdConfig& config, uint64_t seed, int knn_k)
    : config_(config),
      rng_(seed),
      knn_k_(knn_k),
      encoder_(config.emb_dim, config.hidden_dim, config.num_layers, &rng_),
      projection_(config.hidden_dim, config.hidden_dim, &rng_),
      classifier_(config.hidden_dim, config.hidden_dim, 2, &rng_) {}

void SelClModel::Train(const SessionDataset& train, const Matrix& embeddings) {
  RequireTrainingSessions(train);
  embeddings_ = embeddings;

  // 1) SimCLR warm-up (label-free).
  SimclrOptions options;
  options.epochs = config_.budget.contrastive_epochs;
  options.batch_size = config_.batch_size;
  options.learning_rate = config_.simclr_learning_rate;
  options.grad_clip = config_.grad_clip;
  SimclrPretrain(&encoder_, &projection_, train, embeddings, options, &rng_);

  // 2) kNN label correction in the representation space.
  Matrix reps = encoder_.EncodeDataset(train, embeddings_);
  std::vector<int> noisy = NoisyLabels(train);
  std::vector<int> corrected = KnnCorrectLabels(reps, noisy, knn_k_);

  // 3) Confident samples: corrected label agrees with the given label.
  confident_.clear();
  for (int i = 0; i < train.size(); ++i) {
    if (corrected[i] == noisy[i]) confident_.push_back(i);
  }
  if (confident_.size() < 4) {
    // Degenerate: fall back to using everything.
    confident_.resize(train.size());
    for (int i = 0; i < train.size(); ++i) confident_[i] = i;
  }

  // 4) Supervised contrastive training on confident pairs only.
  std::vector<ag::Var> params = encoder_.Parameters();
  nn::Adam optimizer(params, config_.learning_rate);
  std::vector<int> pool = confident_;
  for (int epoch = 0; epoch < config_.budget.contrastive_epochs; ++epoch) {
    rng_.Shuffle(&pool);
    for (size_t start = 0; start < pool.size();
         start += config_.batch_size) {
      size_t end = std::min(start + config_.batch_size, pool.size());
      if (end - start < 2) continue;
      std::vector<const Session*> sessions;
      std::vector<int> labels;
      std::vector<double> ones;
      for (size_t i = start; i < end; ++i) {
        sessions.push_back(&train.sessions[pool[i]].session);
        labels.push_back(corrected[pool[i]]);
        ones.push_back(1.0);
      }
      ag::Var z = encoder_.EncodeBatch(sessions, embeddings_);
      ag::Var loss =
          SupConLoss(z, labels, ones, static_cast<int>(labels.size()), 1.0f,
                     SupConVariant::kUnweighted);
      ag::Backward(loss);
      nn::ClipGradNorm(params, config_.grad_clip);
      optimizer.Step();
    }
  }

  // 5) Classifier on the confident samples' (re-encoded) representations.
  SessionDataset confident_set;
  confident_set.vocab = train.vocab;
  std::vector<int> confident_labels;
  for (int idx : confident_) {
    confident_set.sessions.push_back(train.sessions[idx]);
    confident_labels.push_back(corrected[idx]);
  }
  Matrix features = encoder_.EncodeDataset(confident_set, embeddings_);
  ClfdConfig trainer_config = config_;
  trainer_config.classifier_loss = ClassifierLoss::kCce;
  TrainClassifierOnFeatures(&classifier_, features, confident_labels,
                            trainer_config, &rng_);
}

std::vector<double> SelClModel::Score(const SessionDataset& data) const {
  Matrix features = encoder_.EncodeDataset(data, embeddings_);
  Matrix probs = classifier_.PredictProbs(features);
  std::vector<double> scores(data.size());
  for (int i = 0; i < data.size(); ++i) scores[i] = probs.at(i, kMalicious);
  return scores;
}

}  // namespace clfd
