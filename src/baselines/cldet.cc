#include "baselines/cldet.h"

#include "core/classifier_trainer.h"
#include "encoders/simclr.h"

namespace clfd {

CldetModel::CldetModel(const BaselineConfig& config, uint64_t seed)
    : config_(config),
      rng_(seed),
      encoder_(config.emb_dim, config.hidden_dim, config.num_layers, &rng_),
      projection_(config.hidden_dim, config.hidden_dim, &rng_),
      classifier_(config.hidden_dim, config.hidden_dim, 2, &rng_) {}

void CldetModel::Train(const SessionDataset& train, const Matrix& embeddings) {
  RequireTrainingSessions(train);
  embeddings_ = embeddings;
  SimclrOptions options;
  options.epochs = config_.budget.contrastive_epochs;
  options.batch_size = config_.batch_size;
  options.learning_rate = config_.simclr_learning_rate;
  options.grad_clip = config_.grad_clip;
  SimclrPretrain(&encoder_, &projection_, train, embeddings, options, &rng_);

  Matrix features = encoder_.EncodeDataset(train, embeddings_);
  std::vector<int> noisy(train.size());
  for (int i = 0; i < train.size(); ++i) {
    noisy[i] = train.sessions[i].noisy_label;
  }
  // Original CLDet: plain cross entropy (noise sensitive).
  ClfdConfig trainer_config;
  trainer_config.classifier_loss = ClassifierLoss::kCce;
  trainer_config.batch_size = config_.batch_size;
  trainer_config.learning_rate = config_.learning_rate;
  trainer_config.budget = config_.budget;
  TrainClassifierOnFeatures(&classifier_, features, noisy, trainer_config,
                            &rng_);
}

std::vector<double> CldetModel::Score(const SessionDataset& data) const {
  Matrix features = encoder_.EncodeDataset(data, embeddings_);
  Matrix probs = classifier_.PredictProbs(features);
  std::vector<double> scores(data.size());
  for (int i = 0; i < data.size(); ++i) scores[i] = probs.at(i, kMalicious);
  return scores;
}

}  // namespace clfd
