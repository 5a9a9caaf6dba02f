#pragma once

#include <memory>
#include <vector>

#include "baselines/baseline_config.h"
#include "core/detector.h"
#include "nn/linear.h"
#include "nn/lstm.h"

namespace clfd {

// DeepLog (Du et al. [16]): an LSTM language model over activity (log-key)
// sequences trained on sessions labeled normal. At detection time each
// observed activity must appear among the model's top-g next-activity
// candidates; the anomaly score is the fraction of violations. Under label
// noise the "normal" training pool is polluted with malicious sessions,
// which is exactly the failure mode Table I exposes.
class DeepLogModel : public DetectorModel {
 public:
  DeepLogModel(const BaselineConfig& config, uint64_t seed, int top_g = 3);

  std::string name() const override { return "DeepLog"; }
  void Train(const SessionDataset& train, const Matrix& embeddings) override;
  std::vector<double> Score(const SessionDataset& data) const override;
  // The 90th percentile of training-normal scores.
  double threshold() const override { return threshold_; }

 private:
  double ScoreSession(const Session& session) const;

  BaselineConfig config_;
  mutable Rng rng_;
  int top_g_;
  std::unique_ptr<nn::Lstm> lstm_;
  std::unique_ptr<nn::Linear> output_;
  Matrix embeddings_;
  double threshold_ = 0.5;
};

}  // namespace clfd

