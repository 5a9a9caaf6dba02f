#pragma once

#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "core/label_corrector.h"
#include "data/session.h"
#include "encoders/session_encoder.h"
#include "nn/classifier.h"
#include "tensor/matrix.h"

namespace clfd {
namespace recovery {
class RunCheckpointer;
}  // namespace recovery

// The CLFD fraud detector (Sec. III-B, Algorithm 1).
//
// Stage 1 (supervised pre-training): a fresh LSTM session encoder is
// trained with the confidence-weighted supervised contrastive loss L_Sup
// (Eq. 5-6) on the labels/confidences produced by the label corrector.
// Every batch S of R sessions is augmented with an auxiliary batch S^1 of M
// corrected-malicious sessions so the minority class is always represented
// in the contrast set (Sec. III-B1).
//
// Stage 2 (mixup-based classifier training): a two-layer FCNN is trained on
// the frozen encoded representations z_i with the mixup GCE loss, again
// supervised by the corrected labels. Inference uses this FCNN — or, for
// the "w/o classifier" ablation, proximity to the per-class centroids of
// the corrected training representations [4].
class FraudDetector {
 public:
  FraudDetector(const ClfdConfig& config, uint64_t seed);

  // Trains both stages on the corrected labels. A non-null `rc` (with this
  // detector's state registered and any snapshot restored) runs both
  // stages with checkpoint/resume and the watchdog.
  void Train(const SessionDataset& train,
             const std::vector<Correction>& corrections,
             const Matrix& embeddings,
             recovery::RunCheckpointer* rc = nullptr);

  // Registers this detector's mutable state (encoder/classifier params and
  // the Rng stream) with the run checkpointer. Call before LoadSnapshot.
  void RegisterState(recovery::RunCheckpointer* rc);

  // Malicious-class probability (or centroid score in (0,1)) per session.
  std::vector<double> Score(const SessionDataset& data) const;

  // Encoded representations z_i (diagnostics / tests).
  Matrix Representations(const SessionDataset& data) const;

 private:
  void SupervisedPretrain(const SessionDataset& train,
                          const std::vector<Correction>& corrections,
                          const Matrix& embeddings,
                          recovery::RunCheckpointer* rc);

  ClfdConfig config_;
  mutable Rng rng_;
  SessionEncoder encoder_;
  nn::FeedForwardClassifier classifier_;
  Matrix embeddings_;
  // Centroid inference state (w/o classifier ablation).
  Matrix centroid_normal_;
  Matrix centroid_malicious_;
  bool has_centroids_ = false;
};

}  // namespace clfd

