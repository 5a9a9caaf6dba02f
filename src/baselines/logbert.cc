#include "baselines/logbert.h"

#include <utility>

#include "nn/module.h"
#include "nn/optimizer.h"

namespace clfd {

LogBertModel::LogBertModel(const ClfdConfig& config, uint64_t seed,
                           int top_g, double mask_prob)
    : config_(config), rng_(seed), top_g_(top_g), mask_prob_(mask_prob) {}

ag::Var LogBertModel::MaskedLogits(
    const Session& session, const std::vector<int>& masked_positions) const {
  int t_len = session.length();
  Matrix x(t_len, embeddings_.cols());
  Matrix selector(t_len, 1);
  for (int t = 0; t < t_len; ++t) {
    x.CopyRowFrom(embeddings_, session.activities[t], t);
  }
  for (int t : masked_positions) {
    for (int d = 0; d < x.cols(); ++d) x.at(t, d) = 0.0f;
    selector.at(t, 0) = 1.0f;
  }
  // masked_input = x (masked rows zeroed) + selector * mask_embedding;
  // gradients flow into the learned mask embedding.
  ag::Var input = ag::Add(ag::Constant(std::move(x)),
                          ag::MatMul(ag::Constant(selector), mask_embedding_));
  ag::Var hidden = encoder_->Forward(input);
  return output_->Forward(hidden);
}

void LogBertModel::Train(const SessionDataset& train,
                         const Matrix& embeddings) {
  RequireTrainingSessions(train);
  embeddings_ = embeddings;
  int vocab = embeddings.rows();
  encoder_ = std::make_unique<nn::SelfAttentionEncoder>(
      config_.emb_dim, 2 * config_.emb_dim, &rng_);
  output_ = std::make_unique<nn::Linear>(config_.emb_dim, vocab, &rng_);
  mask_embedding_ = ag::Param(Matrix::Randn(1, config_.emb_dim, 0.1f, &rng_));

  std::vector<int> normals;
  for (int i = 0; i < train.size(); ++i) {
    if (train.sessions[i].noisy_label == kNormal &&
        train.sessions[i].session.length() >= 2) {
      normals.push_back(i);
    }
  }
  if (normals.empty()) return;

  std::vector<ag::Var> params = encoder_->Parameters();
  auto op = output_->Parameters();
  params.insert(params.end(), op.begin(), op.end());
  params.push_back(mask_embedding_);
  nn::Adam optimizer(params, config_.learning_rate);

  const int accumulate = 16;  // sessions per optimizer step
  for (int epoch = 0; epoch < config_.budget.sequence_epochs; ++epoch) {
    rng_.Shuffle(&normals);
    int pending = 0;
    for (int idx : normals) {
      const Session& session = train.sessions[idx].session;
      std::vector<int> masked;
      for (int t = 0; t < session.length(); ++t) {
        if (rng_.Bernoulli(mask_prob_)) masked.push_back(t);
      }
      if (masked.empty()) masked.push_back(rng_.UniformInt(session.length()));

      ag::Var logits = MaskedLogits(session, masked);
      Matrix targets(session.length(), logits.cols());
      for (int t : masked) targets.at(t, session.activities[t]) = 1.0f;
      ag::Var probs = ag::SoftmaxRows(logits);
      ag::Var loss = ag::Scale(
          ag::SumAll(ag::Mul(ag::Constant(targets), ag::Log(probs))),
          -1.0f / static_cast<float>(masked.size() * accumulate));
      ag::Backward(loss);
      if (++pending == accumulate) {
        nn::ClipGradNorm(params, config_.grad_clip);
        optimizer.Step();
        pending = 0;
      }
    }
    if (pending > 0) {
      nn::ClipGradNorm(params, config_.grad_clip);
      optimizer.Step();
    }
  }

  // Threshold calibration on training-normal scores (90th percentile).
  std::vector<double> scores;
  scores.reserve(normals.size());
  for (int idx : normals) {
    scores.push_back(ScoreSession(train.sessions[idx].session));
  }
  threshold_ = NormalScoreThreshold(std::move(scores));
}

double LogBertModel::ScoreSession(const Session& session) const {
  if (!encoder_ || session.length() < 2) return 0.0;
  int misses = 0, total = 0;
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<int> masked;
    for (int t = 0; t < session.length(); ++t) {
      if (rng_.Bernoulli(mask_prob_)) masked.push_back(t);
    }
    if (masked.empty()) masked.push_back(rng_.UniformInt(session.length()));
    Matrix logits = MaskedLogits(session, masked).value();
    for (int t : masked) {
      int target = session.activities[t];
      int better = 0;
      for (int v = 0; v < logits.cols(); ++v) {
        if (logits.at(t, v) > logits.at(t, target)) ++better;
      }
      if (better >= top_g_) ++misses;
      ++total;
    }
  }
  return total > 0 ? static_cast<double>(misses) / total : 0.0;
}

std::vector<double> LogBertModel::Score(const SessionDataset& data) const {
  std::vector<double> scores(data.size());
  for (int i = 0; i < data.size(); ++i) {
    scores[i] = ScoreSession(data.sessions[i].session);
  }
  return scores;
}

}  // namespace clfd
