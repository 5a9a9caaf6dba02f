#include "core/label_corrector.h"

#include <algorithm>

#include "core/classifier_trainer.h"
#include "core/detector.h"
#include "encoders/simclr.h"
#include "obs/log.h"
#include "obs/prof.h"
#include "recovery/run_checkpointer.h"

namespace clfd {

LabelCorrector::LabelCorrector(const ClfdConfig& config, uint64_t seed)
    : config_(config),
      rng_(seed),
      encoder_(config.emb_dim, config.hidden_dim, config.num_layers, &rng_),
      projection_(config.hidden_dim, config.hidden_dim, &rng_),
      classifier_(config.hidden_dim, config.hidden_dim, 2, &rng_) {}

void LabelCorrector::RegisterState(recovery::RunCheckpointer* rc) {
  rc->RegisterParams("corrector.encoder", encoder_.Parameters());
  rc->RegisterParams("corrector.projection", projection_.Parameters());
  rc->RegisterParams("corrector.classifier", classifier_.Parameters());
  rc->RegisterRng("corrector.rng", &rng_);
}

void LabelCorrector::Train(const SessionDataset& train,
                           const Matrix& embeddings,
                           recovery::RunCheckpointer* rc) {
  RequireTrainingSessions(train);
  embeddings_ = embeddings;
  {
    CLFD_PROF_SPAN("pretrain");
    SelfSupervisedPretrain(train, embeddings, rc);
  }

  // Stage 2: classifier over frozen representations, trained on the noisy
  // labels with the configured noise-robust loss. The features are
  // recomputed even on resume — a pure deterministic function of the
  // restored encoder parameters.
  CLFD_PROF_SPAN("corrector");
  Matrix features = encoder_.EncodeDataset(train, embeddings_);
  std::vector<int> noisy_labels(train.size());
  for (int i = 0; i < train.size(); ++i) {
    noisy_labels[i] = train.sessions[i].noisy_label;
  }
  TrainClassifierOnFeatures(&classifier_, features, noisy_labels, config_,
                            &rng_, "corrector.classifier", rc,
                            recovery::kPhaseCorrector);
  CLFD_LOG(INFO) << "label corrector trained"
                 << obs::Kv("sessions", train.size());
}

void LabelCorrector::SelfSupervisedPretrain(const SessionDataset& train,
                                            const Matrix& embeddings,
                                            recovery::RunCheckpointer* rc) {
  SimclrOptions options;
  options.epochs = config_.budget.contrastive_epochs;
  options.batch_size = config_.batch_size;
  options.temperature = config_.simclr_temp;
  options.learning_rate = config_.simclr_learning_rate;
  options.grad_clip = config_.grad_clip;
  options.metric_scope = "corrector.simclr";
  SimclrPretrain(&encoder_, &projection_, train, embeddings, options, &rng_,
                 rc);
}

std::vector<Correction> LabelCorrector::Correct(
    const SessionDataset& data) const {
  CLFD_PROF_SCOPE("corrector.correct");
  Matrix features = encoder_.EncodeDataset(data, embeddings_);
  Matrix probs = classifier_.PredictProbs(features);
  std::vector<Correction> corrections(data.size());
  for (int i = 0; i < data.size(); ++i) {
    float p_mal = probs.at(i, kMalicious);
    corrections[i].label = p_mal > 0.5f ? kMalicious : kNormal;
    corrections[i].confidence = std::max(p_mal, 1.0f - p_mal);
  }
  return corrections;
}

Matrix LabelCorrector::Representations(const SessionDataset& data) const {
  return encoder_.EncodeDataset(data, embeddings_);
}

std::vector<double> LabelCorrector::MaliciousProbabilities(
    const SessionDataset& data) const {
  Matrix features = encoder_.EncodeDataset(data, embeddings_);
  Matrix probs = classifier_.PredictProbs(features);
  std::vector<double> out(data.size());
  for (int i = 0; i < data.size(); ++i) out[i] = probs.at(i, kMalicious);
  return out;
}

}  // namespace clfd
