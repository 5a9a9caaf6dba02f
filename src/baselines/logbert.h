#pragma once

#include <memory>
#include <vector>

#include "core/config.h"
#include "core/detector.h"
#include "nn/attention.h"
#include "nn/linear.h"

namespace clfd {

// LogBert (Guo et al. [48]): masked activity ("log key") prediction with a
// transformer encoder, trained on sessions labeled normal. Detection masks
// random positions and scores the fraction whose true activity falls
// outside the model's top-g candidates. The BERT backbone is substituted by
// the compact single-block self-attention encoder (see nn/attention.h).
class LogBertModel : public DetectorModel {
 public:
  LogBertModel(const ClfdConfig& config, uint64_t seed, int top_g = 3,
               double mask_prob = 0.3);

  void Train(const SessionDataset& train, const Matrix& embeddings) override;
  // Draws fresh masks from the model's Rng on every call, so two calls
  // score the same sessions differently.
  std::vector<double> Score(const SessionDataset& data) const override;
  // The 90th percentile of training-normal scores.
  double threshold() const override { return threshold_; }

 private:
  // Masked forward: returns per-position vocab logits [T x V] with the
  // given positions replaced by the learned mask embedding.
  ag::Var MaskedLogits(const Session& session,
                       const std::vector<int>& masked_positions) const;
  double ScoreSession(const Session& session) const;

  ClfdConfig config_;
  mutable Rng rng_;
  int top_g_;
  double mask_prob_;
  std::unique_ptr<nn::SelfAttentionEncoder> encoder_;
  std::unique_ptr<nn::Linear> output_;
  ag::Var mask_embedding_;
  Matrix embeddings_;
  double threshold_ = 0.5;
};

}  // namespace clfd

