#include "core/fraud_detector.h"

#include <algorithm>
#include <cmath>

#include "autograd/var.h"
#include "core/classifier_trainer.h"
#include "encoders/sharded_step.h"
#include "losses/contrastive.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "obs/log.h"
#include "obs/prof.h"
#include "recovery/run_checkpointer.h"

namespace clfd {

FraudDetector::FraudDetector(const ClfdConfig& config, uint64_t seed)
    : config_(config),
      rng_(seed),
      encoder_(config.emb_dim, config.hidden_dim, config.num_layers, &rng_),
      classifier_(config.hidden_dim, config.hidden_dim, 2, &rng_) {}

void FraudDetector::RegisterState(recovery::RunCheckpointer* rc) {
  rc->RegisterParams("detector.encoder", encoder_.Parameters());
  rc->RegisterParams("detector.classifier", classifier_.Parameters());
  rc->RegisterRng("detector.rng", &rng_);
}

void FraudDetector::Train(const SessionDataset& train,
                          const std::vector<Correction>& corrections,
                          const Matrix& embeddings,
                          recovery::RunCheckpointer* rc) {
  embeddings_ = embeddings;
  {
    CLFD_PROF_SPAN("detector");
    SupervisedPretrain(train, corrections, embeddings, rc);
  }

  CLFD_PROF_SPAN("classifier");
  // Frozen representations for stage 2 and for centroid inference. Always
  // recomputed (even on resume): they are a pure deterministic function of
  // the restored encoder parameters.
  Matrix features = encoder_.EncodeDataset(train, embeddings_);
  std::vector<int> corrected_labels(train.size());
  for (int i = 0; i < train.size(); ++i) {
    corrected_labels[i] = corrections[i].label;
  }

  if (config_.use_classifier) {
    TrainClassifierOnFeatures(&classifier_, features, corrected_labels,
                              config_, &rng_, "detector.classifier", rc,
                              recovery::kPhaseClassifier);
  } else {
    // "w/o classifier (FD)": per-class centroids of the corrected labels in
    // the encoded representation space [4].
    centroid_normal_ = Matrix(1, features.cols());
    centroid_malicious_ = Matrix(1, features.cols());
    int n_norm = 0, n_mal = 0;
    for (int i = 0; i < train.size(); ++i) {
      Matrix* target = corrected_labels[i] == kMalicious
                           ? &centroid_malicious_
                           : &centroid_normal_;
      int& count = corrected_labels[i] == kMalicious ? n_mal : n_norm;
      for (int d = 0; d < features.cols(); ++d) {
        target->at(0, d) += features.at(i, d);
      }
      ++count;
    }
    if (n_norm > 0) centroid_normal_.Scale(1.0f / n_norm);
    if (n_mal > 0) centroid_malicious_.Scale(1.0f / n_mal);
    has_centroids_ = n_norm > 0 && n_mal > 0;
  }
}

void FraudDetector::SupervisedPretrain(
    const SessionDataset& train, const std::vector<Correction>& corrections,
    const Matrix& embeddings, recovery::RunCheckpointer* rc) {
  std::vector<ag::Var> params = encoder_.Parameters();
  nn::Adam optimizer(params, config_.learning_rate);
  ShardedEncoderTrainer trainer(&encoder_);
  recovery::PhaseLoop loop(rc, recovery::kPhaseDetector,
                           config_.budget.contrastive_epochs, &optimizer,
                           "supcon.epoch", "detector.supcon");

  // T-tilde^1: sessions the corrector predicted malicious (Algorithm 1
  // line 2), from which the auxiliary batches S^1 are drawn.
  std::vector<int> corrected_malicious;
  for (int i = 0; i < train.size(); ++i) {
    if (corrections[i].label == kMalicious) corrected_malicious.push_back(i);
  }

  // No loop-local state beyond params/optimizer/rng: batches and aux
  // sampling are re-derived from the rng stream each epoch.
  loop.Run([&] {
    for (const auto& batch : train.MakeBatches(config_.batch_size, &rng_)) {
      if (batch.size() < 2) continue;
      std::vector<int> indices = batch;  // S, the anchors
      int num_anchors = static_cast<int>(indices.size());
      if (!corrected_malicious.empty()) {
        // Auxiliary batch S^1 of M corrected-malicious sessions.
        for (int k = 0; k < config_.aux_batch_size; ++k) {
          indices.push_back(corrected_malicious[rng_.UniformInt(
              static_cast<int>(corrected_malicious.size()))]);
        }
      }
      std::vector<const Session*> sessions;
      std::vector<int> labels;
      std::vector<double> confidences;
      sessions.reserve(indices.size());
      for (int idx : indices) {
        sessions.push_back(&train.sessions[idx].session);
        labels.push_back(corrections[idx].label);
        confidences.push_back(corrections[idx].confidence);
      }

      loop.Batch([&]() -> float {
        float batch_loss =
            trainer.Step(sessions, embeddings, [&](const ag::Var& z) {
              return SupConLoss(z, labels, confidences, num_anchors,
                                config_.supcon_alpha, config_.supcon_variant,
                                config_.filter_tau);
            });
        nn::ClipGradNorm(params, config_.grad_clip);
        optimizer.Step();
        return batch_loss;
      });
    }
  });
  CLFD_LOG(INFO) << "fraud detector pretrain done"
                 << obs::Kv("epochs", config_.budget.contrastive_epochs)
                 << obs::Kv("corrected_malicious",
                            corrected_malicious.size());
}

std::vector<double> FraudDetector::Score(const SessionDataset& data) const {
  Matrix features = encoder_.EncodeDataset(data, embeddings_);
  std::vector<double> scores(data.size());
  if (config_.use_classifier) {
    Matrix probs = classifier_.PredictProbs(features);
    for (int i = 0; i < data.size(); ++i) {
      scores[i] = probs.at(i, kMalicious);
    }
  } else {
    // Centroid proximity: sigmoid of (distance-to-normal - distance-to-
    // malicious), so > 0.5 means the malicious centroid is closer.
    for (int i = 0; i < data.size(); ++i) {
      if (!has_centroids_) {
        scores[i] = 0.0;
        continue;
      }
      double d_norm = 0.0, d_mal = 0.0;
      for (int d = 0; d < features.cols(); ++d) {
        double dn = features.at(i, d) - centroid_normal_.at(0, d);
        double dm = features.at(i, d) - centroid_malicious_.at(0, d);
        d_norm += dn * dn;
        d_mal += dm * dm;
      }
      double margin = std::sqrt(d_norm) - std::sqrt(d_mal);
      scores[i] = 1.0 / (1.0 + std::exp(-margin));
    }
  }
  return scores;
}

Matrix FraudDetector::Representations(const SessionDataset& data) const {
  return encoder_.EncodeDataset(data, embeddings_);
}

}  // namespace clfd
