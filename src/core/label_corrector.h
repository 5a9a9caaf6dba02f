#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "data/session.h"
#include "encoders/session_encoder.h"
#include "nn/classifier.h"
#include "tensor/matrix.h"

namespace clfd {
namespace recovery {
class RunCheckpointer;
}  // namespace recovery

// A corrected label with the corrector's softmax confidence c_i (Sec.
// III-B1): c_i = max_k f_k(v_i).
struct Correction {
  int label = kNormal;
  double confidence = 1.0;
};

// The CLFD label corrector (Sec. III-A).
//
// Adaptation of the CLDet framework [3]: an LSTM session encoder is
// pre-trained with the self-supervised SimCLR NT-Xent loss over
// session-reordering augmented views (label-free, hence immune to label
// noise), and a classifier is trained on the frozen representations v_i
// with the paper's noise-robust mixup GCE loss (the modification CLFD makes
// to CLDet, which trained this classifier with plain cross entropy).
class LabelCorrector {
 public:
  LabelCorrector(const ClfdConfig& config, uint64_t seed);

  // Trains both stages on the noisy training set. A non-null `rc` (with
  // this corrector's state registered and any snapshot restored) runs both
  // stages with checkpoint/resume and the watchdog.
  void Train(const SessionDataset& train, const Matrix& embeddings,
             recovery::RunCheckpointer* rc = nullptr);

  // Registers this corrector's mutable state (encoder/projection/classifier
  // params and the Rng stream) with the run checkpointer. Call before
  // LoadSnapshot.
  void RegisterState(recovery::RunCheckpointer* rc);

  // Predicted (corrected) labels + confidences for all sessions in `data`.
  std::vector<Correction> Correct(const SessionDataset& data) const;

  // Self-supervised representations v_i (for diagnostics / the w/o-FD
  // ablation's scoring path).
  Matrix Representations(const SessionDataset& data) const;

  // Malicious-class softmax probabilities (used directly as scores by the
  // w/o-FD ablation which deploys the corrector for inference).
  std::vector<double> MaliciousProbabilities(const SessionDataset& data) const;

 private:
  void SelfSupervisedPretrain(const SessionDataset& train,
                              const Matrix& embeddings,
                              recovery::RunCheckpointer* rc);

  ClfdConfig config_;
  mutable Rng rng_;
  SessionEncoder encoder_;
  ProjectionHead projection_;
  nn::FeedForwardClassifier classifier_;
  Matrix embeddings_;  // copied at Train time; needed for later inference
};

}  // namespace clfd

