#include "baselines/few_shot.h"

#include <algorithm>

#include "losses/mixup.h"
#include "losses/robust_losses.h"
#include "nn/module.h"
#include "nn/optimizer.h"

namespace clfd {

FewShotModel::FewShotModel(const ClfdConfig& config, uint64_t seed)
    : config_(config), rng_(seed) {}

ag::Var FewShotModel::PooledBatch(
    const std::vector<const Session*>& sessions) const {
  std::vector<ag::Var> pooled;
  pooled.reserve(sessions.size());
  for (const Session* s : sessions) {
    Matrix x(s->length(), embeddings_.cols());
    for (int t = 0; t < s->length(); ++t) {
      x.CopyRowFrom(embeddings_, s->activities[t], t);
    }
    pooled.push_back(encoder_->ForwardPooled(ag::Constant(std::move(x))));
  }
  return ag::ConcatRows(pooled);
}

void FewShotModel::Train(const SessionDataset& train,
                         const Matrix& embeddings) {
  RequireTrainingSessions(train);
  embeddings_ = embeddings;
  encoder_ = std::make_unique<nn::SelfAttentionEncoder>(
      config_.emb_dim, 2 * config_.emb_dim, &rng_);
  head_ = std::make_unique<nn::Linear>(config_.emb_dim, 2, &rng_);

  std::vector<ag::Var> params = encoder_->Parameters();
  auto hp = head_->Parameters();
  params.insert(params.end(), hp.begin(), hp.end());
  nn::Adam optimizer(params, config_.learning_rate);

  Matrix targets = OneHot(NoisyLabels(train));

  for (int epoch = 0; epoch < config_.budget.sequence_epochs; ++epoch) {
    for (const auto& batch : train.MakeBatches(config_.batch_size, &rng_)) {
      std::vector<const Session*> sessions;
      Matrix batch_targets(static_cast<int>(batch.size()), 2);
      for (size_t i = 0; i < batch.size(); ++i) {
        sessions.push_back(&train.sessions[batch[i]].session);
        batch_targets.CopyRowFrom(targets, batch[i], static_cast<int>(i));
      }
      ag::Var probs = ag::SoftmaxRows(head_->Forward(PooledBatch(sessions)));
      ag::Var loss = CceLoss(probs, batch_targets);
      ag::Backward(loss);
      nn::ClipGradNorm(params, config_.grad_clip);
      optimizer.Step();
    }
  }
}

std::vector<double> FewShotModel::Score(const SessionDataset& data) const {
  std::vector<double> scores(data.size());
  const int chunk = 64;
  for (int start = 0; start < data.size(); start += chunk) {
    int end = std::min(start + chunk, data.size());
    std::vector<const Session*> sessions;
    for (int i = start; i < end; ++i) {
      sessions.push_back(&data.sessions[i].session);
    }
    Matrix probs =
        ag::SoftmaxRows(head_->Forward(PooledBatch(sessions))).value();
    for (int i = start; i < end; ++i) {
      scores[i] = probs.at(i - start, kMalicious);
    }
  }
  return scores;
}

}  // namespace clfd
