#include "baselines/lstm_classifier.h"

#include <algorithm>
#include <cmath>

#include "losses/robust_losses.h"
#include "nn/optimizer.h"
#include "tensor/arena.h"

namespace clfd {

LstmClassifier::LstmClassifier(const ClfdConfig& config, Rng* rng)
    : encoder_(config.emb_dim, config.hidden_dim, config.num_layers, rng),
      head_(config.hidden_dim, 2, rng) {}

ag::Var LstmClassifier::ForwardRepresentations(
    const std::vector<const Session*>& sessions,
    const Matrix& embeddings) const {
  return encoder_.EncodeBatch(sessions, embeddings);
}

ag::Var LstmClassifier::HeadProbs(const ag::Var& reps) const {
  return ag::SoftmaxRows(head_.Forward(reps));
}

ag::Var LstmClassifier::ForwardProbs(
    const std::vector<const Session*>& sessions,
    const Matrix& embeddings) const {
  return HeadProbs(ForwardRepresentations(sessions, embeddings));
}

Matrix LstmClassifier::PredictProbs(const SessionDataset& data,
                                    const Matrix& embeddings) const {
  return HeadProbs(ag::Constant(encoder_.EncodeDataset(data, embeddings)))
      .value();
}

std::vector<double> LstmClassifier::PerSampleCce(
    const SessionDataset& data, const Matrix& embeddings,
    const std::vector<int>& labels) const {
  Matrix probs = PredictProbs(data, embeddings);
  std::vector<double> losses(data.size());
  for (int i = 0; i < data.size(); ++i) {
    losses[i] = -std::log(std::max(probs.at(i, labels[i]), 1e-12f));
  }
  return losses;
}

void TrainCeEpoch(LstmClassifier* model, const SessionDataset& train,
                  const Matrix& targets, const Matrix& embeddings,
                  const ClfdConfig& config, nn::Adam* optimizer, Rng* rng) {
  auto params = model->Parameters();
  // Heap-allocate any missing parameter gradients before the arena scopes
  // open (the optimizer normally did this at construction; this covers
  // callers that build the optimizer lazily).
  for (ag::Var& p : params) p.node()->EnsureGrad();
  arena::Arena step_arena;
  for (const auto& batch : train.MakeBatches(config.batch_size, rng)) {
    step_arena.Reset();
    arena::ScopedArena step_scope(&step_arena);
    std::vector<const Session*> sessions;
    Matrix batch_targets(static_cast<int>(batch.size()), 2);
    for (size_t i = 0; i < batch.size(); ++i) {
      sessions.push_back(&train.sessions[batch[i]].session);
      batch_targets.CopyRowFrom(targets, batch[i], static_cast<int>(i));
    }
    ag::Var loss =
        CceLoss(model->ForwardProbs(sessions, embeddings), batch_targets);
    ag::Backward(loss);
    nn::ClipGradNorm(params, config.grad_clip);
    optimizer->Step();
  }
}

std::vector<ag::Var> LstmClassifier::Parameters() const {
  std::vector<ag::Var> params = encoder_.Parameters();
  auto hp = head_.Parameters();
  params.insert(params.end(), hp.begin(), hp.end());
  return params;
}

std::vector<double> TwoNetworkScores(const LstmClassifier& a,
                                     const LstmClassifier& b,
                                     const SessionDataset& data,
                                     const Matrix& embeddings) {
  Matrix pa = a.PredictProbs(data, embeddings);
  Matrix pb = b.PredictProbs(data, embeddings);
  std::vector<double> scores(data.size());
  for (int i = 0; i < data.size(); ++i) {
    scores[i] = 0.5 * (pa.at(i, kMalicious) + pb.at(i, kMalicious));
  }
  return scores;
}

}  // namespace clfd
