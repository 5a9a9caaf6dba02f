#pragma once

#include <memory>
#include <vector>

#include "core/config.h"
#include "core/detector.h"
#include "core/fraud_detector.h"
#include "core/label_corrector.h"

namespace clfd {

// End-to-end CLFD framework (Fig. 1): label corrector + fraud detector.
//
// Quickstart:
//   ClfdConfig config;                       // paper defaults
//   ClfdModel model(config, /*seed=*/42);
//   model.Train(noisy_train, activity_embeddings);
//   std::vector<double> scores = model.Score(test);
//
// The ablation switches in ClfdConfig reproduce every row of Tables IV/V:
// disable the label corrector, swap the classifier loss, deploy the
// corrector directly (w/o FD), use the unweighted or filtered supervised
// contrastive variants, or replace the FCNN with centroid inference.
class ClfdModel : public DetectorModel {
 public:
  ClfdModel(const ClfdConfig& config, uint64_t seed);

  void Train(const SessionDataset& train, const Matrix& embeddings) override;

  // Fault-tolerant training: registers all mutable state (both sub-models'
  // parameters, optimizer streams, Rng streams, and the corrections vector)
  // with `rc`, resumes from its snapshot when one exists, and snapshots as
  // training progresses. Null `rc` is exactly Train.
  void TrainWithRecovery(const SessionDataset& train, const Matrix& embeddings,
                         recovery::RunCheckpointer* rc) override;

  std::vector<double> Score(const SessionDataset& data) const override;

  // Corrections produced by the (trained) label corrector for `data`;
  // drives the Table III TPR/TNR analysis. Requires use_label_corrector.
  std::vector<Correction> CorrectLabels(const SessionDataset& data) const;

  const ClfdConfig& config() const { return config_; }

 private:
  ClfdConfig config_;
  std::unique_ptr<LabelCorrector> corrector_;
  std::unique_ptr<FraudDetector> detector_;
};

}  // namespace clfd

