#pragma once

#include <memory>
#include <vector>

#include "core/config.h"
#include "core/detector.h"
#include "core/fraud_detector.h"
#include "core/label_corrector.h"

namespace clfd {

// Co-teaching CLFD — the third future-work direction of the paper's
// conclusion ("integrating supervised contrastive learning model with
// co-teaching based noisy label learning approaches").
//
// Two independently initialized label correctors are trained on the same
// noisy set; their corrections are fused into consensus supervision for a
// single fraud detector:
//   * both agree  -> keep the label; confidence is boosted toward the max
//     of the two (independent agreement is stronger evidence than either
//     corrector alone);
//   * they differ -> take the more confident corrector's label, but damp
//     the confidence by the loser's (disagreement is evidence of a hard
//     sample), which the weighted L_Sup then automatically down-weights.
class CoTeachingClfdModel : public DetectorModel {
 public:
  CoTeachingClfdModel(const ClfdConfig& config, uint64_t seed);

  void Train(const SessionDataset& train, const Matrix& embeddings) override;
  std::vector<double> Score(const SessionDataset& data) const override;

  // The fused corrections from the last Train() call (diagnostics/tests).
  const std::vector<Correction>& consensus() const { return consensus_; }

 private:
  ClfdConfig config_;
  LabelCorrector corrector_a_;
  LabelCorrector corrector_b_;
  FraudDetector detector_;
  std::vector<Correction> consensus_;
};

// The fusion rule, exposed for unit testing.
std::vector<Correction> FuseCorrections(const std::vector<Correction>& a,
                                        const std::vector<Correction>& b);

}  // namespace clfd

