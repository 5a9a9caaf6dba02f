#pragma once

#include <memory>
#include <vector>

#include "baselines/lstm_classifier.h"
#include "core/config.h"
#include "core/detector.h"

namespace clfd {

// CTRR — Contrastive Regularization (Yi et al. [9]) adapted to sessions.
//
// An LSTM classifier trains end-to-end with cross entropy on the noisy
// labels plus a contrastive regularization term that pulls together the
// representations of *confident* same-(noisy)-label pairs inside each
// batch, limiting how much the label noise can dominate representation
// learning. Confidence is the model's own running prediction.
class CtrrModel : public DetectorModel {
 public:
  CtrrModel(const ClfdConfig& config, uint64_t seed,
            double reg_weight = 1.0, double confidence_threshold = 0.7);

  void Train(const SessionDataset& train, const Matrix& embeddings) override;
  std::vector<double> Score(const SessionDataset& data) const override;

 private:
  ClfdConfig config_;
  mutable Rng rng_;
  double reg_weight_;
  double confidence_threshold_;
  std::unique_ptr<LstmClassifier> net_;
  Matrix embeddings_;
};

}  // namespace clfd

