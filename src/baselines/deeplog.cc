#include "baselines/deeplog.h"

#include <utility>
#include <cmath>

#include "encoders/session_encoder.h"
#include "nn/module.h"
#include "nn/optimizer.h"

namespace clfd {

DeepLogModel::DeepLogModel(const ClfdConfig& config, uint64_t seed,
                           int top_g)
    : config_(config), rng_(seed), top_g_(top_g) {}

void DeepLogModel::Train(const SessionDataset& train,
                         const Matrix& embeddings) {
  RequireTrainingSessions(train);
  embeddings_ = embeddings;
  int vocab = embeddings.rows();
  lstm_ = std::make_unique<nn::Lstm>(config_.emb_dim, config_.hidden_dim,
                                     config_.num_layers, &rng_);
  output_ = std::make_unique<nn::Linear>(config_.hidden_dim, vocab, &rng_);

  // DeepLog trains only on (noisily) normal sessions of length >= 2.
  SessionDataset normals;
  normals.vocab = train.vocab;
  for (const auto& ls : train.sessions) {
    if (ls.noisy_label == kNormal && ls.session.length() >= 2) {
      normals.sessions.push_back(ls);
    }
  }
  if (normals.size() == 0) return;

  std::vector<ag::Var> params = lstm_->Parameters();
  auto op = output_->Parameters();
  params.insert(params.end(), op.begin(), op.end());
  nn::Adam optimizer(params, config_.learning_rate);

  for (int epoch = 0; epoch < config_.budget.sequence_epochs; ++epoch) {
    for (const auto& batch : normals.MakeBatches(config_.batch_size, &rng_)) {
      std::vector<const Session*> sessions;
      for (int idx : batch) sessions.push_back(&normals.sessions[idx].session);
      PaddedBatch padded = BuildPaddedBatch(sessions, embeddings);
      int t_max = static_cast<int>(padded.steps.size());
      if (t_max < 2) continue;

      std::vector<ag::Var> steps;
      for (int t = 0; t < t_max - 1; ++t) {
        steps.push_back(ag::Constant(padded.steps[t]));
      }
      std::vector<ag::Var> hiddens = lstm_->Forward(steps);

      // Next-activity cross entropy at every valid position, averaged.
      ag::Var total;
      int positions = 0;
      for (int t = 0; t + 1 < t_max; ++t) {
        Matrix targets(static_cast<int>(sessions.size()), vocab);
        bool any = false;
        for (size_t i = 0; i < sessions.size(); ++i) {
          if (t + 1 < sessions[i]->length()) {
            targets.at(static_cast<int>(i),
                       sessions[i]->activities[t + 1]) = 1.0f;
            ++positions;
            any = true;
          }
        }
        if (!any) break;
        ag::Var probs = ag::SoftmaxRows(output_->Forward(hiddens[t]));
        ag::Var step_loss = ag::Scale(
            ag::SumAll(ag::Mul(ag::Constant(targets), ag::Log(probs))), -1.0f);
        total = total.defined() ? ag::Add(total, step_loss) : step_loss;
      }
      if (!total.defined() || positions == 0) continue;
      ag::Var loss = ag::Scale(total, 1.0f / static_cast<float>(positions));
      ag::Backward(loss);
      nn::ClipGradNorm(params, config_.grad_clip);
      optimizer.Step();
    }
  }

  // Calibrate the detection threshold on the training-normal scores.
  std::vector<double> normal_scores(normals.size());
  for (int i = 0; i < normals.size(); ++i) {
    normal_scores[i] = ScoreSession(normals.sessions[i].session);
  }
  threshold_ = NormalScoreThreshold(std::move(normal_scores));
}

double DeepLogModel::ScoreSession(const Session& session) const {
  if (!lstm_ || session.length() < 2) return 0.0;
  std::vector<ag::Var> steps;
  for (int t = 0; t + 1 < session.length(); ++t) {
    Matrix x(1, embeddings_.cols());
    x.CopyRowFrom(embeddings_, session.activities[t], 0);
    steps.push_back(ag::Constant(std::move(x)));
  }
  std::vector<ag::Var> hiddens = lstm_->Forward(steps);
  int violations = 0;
  for (size_t t = 0; t < hiddens.size(); ++t) {
    Matrix logits = output_->Forward(hiddens[t]).value();
    int target = session.activities[t + 1];
    // Count how many activities out-score the target: violation if the
    // target is not among the top-g candidates.
    int better = 0;
    for (int v = 0; v < logits.cols(); ++v) {
      if (logits.at(0, v) > logits.at(0, target)) ++better;
    }
    if (better >= top_g_) ++violations;
  }
  return static_cast<double>(violations) / static_cast<double>(hiddens.size());
}

std::vector<double> DeepLogModel::Score(const SessionDataset& data) const {
  std::vector<double> scores(data.size());
  for (int i = 0; i < data.size(); ++i) {
    scores[i] = ScoreSession(data.sessions[i].session);
  }
  return scores;
}

}  // namespace clfd
