#pragma once

#include <memory>
#include <vector>

#include "core/config.h"
#include "core/detector.h"
#include "nn/attention.h"
#include "nn/linear.h"

namespace clfd {

// Few-Shot insider threat detection (Yuan et al. [2]): a BERT-style
// sequence encoder fine-tuned with cross entropy on the (few, noisy)
// labeled sessions. The BERT backbone is substituted by the compact
// self-attention encoder; like the original, the model has no noise-robust
// mechanism, which Table I exploits.
class FewShotModel : public DetectorModel {
 public:
  FewShotModel(const ClfdConfig& config, uint64_t seed);

  void Train(const SessionDataset& train, const Matrix& embeddings) override;
  std::vector<double> Score(const SessionDataset& data) const override;

 private:
  ag::Var PooledBatch(const std::vector<const Session*>& sessions) const;

  ClfdConfig config_;
  mutable Rng rng_;
  std::unique_ptr<nn::SelfAttentionEncoder> encoder_;
  std::unique_ptr<nn::Linear> head_;
  Matrix embeddings_;
};

}  // namespace clfd

