#include "baselines/divmix.h"

#include <algorithm>
#include <cmath>

#include "augment/augment.h"
#include "losses/mixup.h"
#include "metrics/gmm1d.h"
#include "nn/module.h"
#include "nn/optimizer.h"

namespace clfd {

namespace {

// MixMatch-style sharpening with temperature 0.5.
void SharpenRow(Matrix* m, int row) {
  double total = 0.0;
  for (int k = 0; k < m->cols(); ++k) {
    m->at(row, k) = std::sqrt(std::max(m->at(row, k), 0.0f));
    total += m->at(row, k);
  }
  if (total <= 0) return;
  for (int k = 0; k < m->cols(); ++k) {
    m->at(row, k) = static_cast<float>(m->at(row, k) / total);
  }
}

}  // namespace

DivMixModel::DivMixModel(const BaselineConfig& config, uint64_t seed,
                         int warmup_epochs, double clean_threshold)
    : config_(config), rng_(seed), warmup_epochs_(warmup_epochs),
      clean_threshold_(clean_threshold) {}

Matrix DivMixModel::BuildTargets(const SessionDataset& train,
                                 const LstmClassifier& partner,
                                 const LstmClassifier& learner,
                                 const std::vector<int>& noisy_labels) const {
  // GMM over the partner's per-sample losses -> clean probability w_i.
  std::vector<double> losses =
      partner.PerSampleCce(train, embeddings_, noisy_labels);
  GaussianMixture1D gmm;
  gmm.Fit(losses);

  Matrix pred_a = partner.PredictProbs(train, embeddings_);
  Matrix pred_b = learner.PredictProbs(train, embeddings_);

  Matrix targets(train.size(), 2);
  for (int i = 0; i < train.size(); ++i) {
    double w = gmm.LowComponentPosterior(losses[i]);
    float avg0 = 0.5f * (pred_a.at(i, 0) + pred_b.at(i, 0));
    float avg1 = 0.5f * (pred_a.at(i, 1) + pred_b.at(i, 1));
    if (w > clean_threshold_) {
      // Label refinement: trust the noisy label proportionally to w.
      float wf = static_cast<float>(w);
      targets.at(i, noisy_labels[i]) = wf;
      targets.at(i, 0) += (1.0f - wf) * avg0;
      targets.at(i, 1) += (1.0f - wf) * avg1;
    } else {
      // Co-guessing for the noisy part.
      targets.at(i, 0) = avg0;
      targets.at(i, 1) = avg1;
    }
    SharpenRow(&targets, i);
  }
  return targets;
}

void DivMixModel::Train(const SessionDataset& train,
                        const Matrix& embeddings) {
  RequireTrainingSessions(train);
  embeddings_ = embeddings;
  net_a_ = std::make_unique<LstmClassifier>(config_, &rng_);
  net_b_ = std::make_unique<LstmClassifier>(config_, &rng_);

  std::vector<int> noisy(train.size());
  for (int i = 0; i < train.size(); ++i) {
    noisy[i] = train.sessions[i].noisy_label;
  }
  Matrix noisy_onehot = OneHot(noisy);

  nn::Adam opt_a(net_a_->Parameters(), config_.learning_rate);
  nn::Adam opt_b(net_b_->Parameters(), config_.learning_rate);

  // Warm-up: plain CE on the noisy labels.
  for (int epoch = 0; epoch < warmup_epochs_; ++epoch) {
    TrainCeEpoch(net_a_.get(), train, noisy_onehot, embeddings_, config_,
                 &opt_a, &rng_);
    TrainCeEpoch(net_b_.get(), train, noisy_onehot, embeddings_, config_,
                 &opt_b, &rng_);
  }

  // Co-training epochs with GMM division + representation-level mixup.
  auto train_one = [&](LstmClassifier* learner, const LstmClassifier& partner,
                       nn::Adam* optimizer) {
    Matrix targets = BuildTargets(train, partner, *learner, noisy);
    auto params = learner->Parameters();
    for (const auto& batch : train.MakeBatches(config_.batch_size, &rng_)) {
      if (batch.size() < 2) continue;
      int b = static_cast<int>(batch.size());
      std::vector<const Session*> sessions;
      Matrix batch_targets(b, 2);
      for (int i = 0; i < b; ++i) {
        sessions.push_back(&train.sessions[batch[i]].session);
        batch_targets.CopyRowFrom(targets, batch[i], i);
      }
      // In-batch mixup of the encoded representations (lambda' >= 0.5 so
      // the mixed sample stays closer to its own identity, as in [31]).
      std::vector<int> perm(b);
      for (int i = 0; i < b; ++i) perm[i] = i;
      rng_.Shuffle(&perm);
      Matrix perm_matrix(b, b);
      Matrix lambda_col(b, 1);
      Matrix mixed_targets(b, 2);
      for (int i = 0; i < b; ++i) {
        perm_matrix.at(i, perm[i]) = 1.0f;
        float lambda =
            static_cast<float>(SampleMixupLambda(4.0, &rng_));
        lambda = std::max(lambda, 1.0f - lambda);
        lambda_col.at(i, 0) = lambda;
        for (int k = 0; k < 2; ++k) {
          mixed_targets.at(i, k) = lambda * batch_targets.at(i, k) +
                                   (1.0f - lambda) *
                                       batch_targets.at(perm[i], k);
        }
      }
      Matrix inv_lambda(b, 1);
      for (int i = 0; i < b; ++i) {
        inv_lambda.at(i, 0) = 1.0f - lambda_col.at(i, 0);
      }

      ag::Var reps = learner->ForwardRepresentations(sessions, embeddings_);
      ag::Var permuted = ag::MatMul(ag::Constant(perm_matrix), reps);
      ag::Var mixed = ag::Add(ag::RowScaleConst(reps, lambda_col),
                              ag::RowScaleConst(permuted, inv_lambda));
      ag::Var probs = learner->HeadProbs(mixed);
      ag::Var loss = ag::Scale(
          ag::SumAll(ag::Mul(ag::Constant(mixed_targets), ag::Log(probs))),
          -1.0f / static_cast<float>(b));
      ag::Backward(loss);
      nn::ClipGradNorm(params, config_.grad_clip);
      optimizer->Step();
    }
  };

  for (int epoch = 0; epoch < config_.budget.contrastive_epochs; ++epoch) {
    train_one(net_a_.get(), *net_b_, &opt_a);
    train_one(net_b_.get(), *net_a_, &opt_b);
  }
}

std::vector<double> DivMixModel::Score(const SessionDataset& data) const {
  Matrix pa = net_a_->PredictProbs(data, embeddings_);
  Matrix pb = net_b_->PredictProbs(data, embeddings_);
  std::vector<double> scores(data.size());
  for (int i = 0; i < data.size(); ++i) {
    scores[i] = 0.5 * (pa.at(i, kMalicious) + pb.at(i, kMalicious));
  }
  return scores;
}

}  // namespace clfd
