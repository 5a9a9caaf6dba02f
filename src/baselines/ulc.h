#pragma once

#include <memory>
#include <vector>

#include "baselines/lstm_classifier.h"
#include "core/config.h"
#include "core/detector.h"

namespace clfd {

// ULC — Uncertainty-aware Label Correction (Huang et al. [10]) adapted to
// sessions. Two networks co-teach: after a cross-entropy warm-up, each
// correction round (a) estimates per-sample predictive uncertainty from the
// two networks' disagreement and confidence, (b) relabels samples on which
// both networks confidently agree against the given noisy label — with
// class-aware thresholds to respect the dataset imbalance — and (c)
// continues training each network on the partner's corrected labels,
// down-weighting uncertain samples.
class UlcModel : public DetectorModel {
 public:
  UlcModel(const ClfdConfig& config, uint64_t seed, int warmup_epochs = 2,
           double relabel_confidence = 0.8);

  void Train(const SessionDataset& train, const Matrix& embeddings) override;
  std::vector<double> Score(const SessionDataset& data) const override;

 private:
  ClfdConfig config_;
  mutable Rng rng_;
  int warmup_epochs_;
  double relabel_confidence_;
  std::unique_ptr<LstmClassifier> net_a_;
  std::unique_ptr<LstmClassifier> net_b_;
  Matrix embeddings_;
};

}  // namespace clfd

