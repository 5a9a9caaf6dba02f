#pragma once

#include <vector>

#include "autograd/var.h"
#include "common/rng.h"
#include "core/config.h"
#include "data/session.h"
#include "encoders/session_encoder.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/optimizer.h"

namespace clfd {

// End-to-end LSTM session classifier: the backbone the paper substitutes
// for the image networks when adapting DivMix, ULC and CTRR to sessions
// (Sec. IV-A3). An LSTM session encoder feeds a linear softmax head; the
// whole stack trains jointly.
class LstmClassifier : public nn::Module {
 public:
  LstmClassifier(const ClfdConfig& config, Rng* rng);

  // Graph-building forward over a batch of sessions -> probabilities [B x 2].
  ag::Var ForwardProbs(const std::vector<const Session*>& sessions,
                       const Matrix& embeddings) const;

  // Encoder representations only (graph-building), for contrastive
  // regularisers (CTRR).
  ag::Var ForwardRepresentations(const std::vector<const Session*>& sessions,
                                 const Matrix& embeddings) const;
  ag::Var HeadProbs(const ag::Var& reps) const;

  // Inference over a whole dataset -> [N x 2]: the head over
  // SessionEncoder::EncodeDataset's parallel chunked forward.
  Matrix PredictProbs(const SessionDataset& data,
                      const Matrix& embeddings) const;

  // Per-sample cross-entropy of `labels` under the current model; the
  // signal DivideMix fits its loss-GMM to.
  std::vector<double> PerSampleCce(const SessionDataset& data,
                                   const Matrix& embeddings,
                                   const std::vector<int>& labels) const;

  std::vector<ag::Var> Parameters() const override;

 private:
  SessionEncoder encoder_;
  nn::Linear head_;
};

// One epoch of (soft-target) cross-entropy training. `targets` is [N x 2];
// rows indexed consistently with `train`. Returns nothing; updates in place.
void TrainCeEpoch(LstmClassifier* model, const SessionDataset& train,
                  const Matrix& targets, const Matrix& embeddings,
                  const ClfdConfig& config, nn::Adam* optimizer, Rng* rng);

// Scores of a two-network model (DivMix, ULC): the mean of the two
// classifiers' malicious-class probabilities.
std::vector<double> TwoNetworkScores(const LstmClassifier& a,
                                     const LstmClassifier& b,
                                     const SessionDataset& data,
                                     const Matrix& embeddings);

}  // namespace clfd

