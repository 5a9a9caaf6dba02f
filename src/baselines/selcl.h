#pragma once

#include <memory>
#include <vector>

#include "core/config.h"
#include "core/detector.h"
#include "encoders/session_encoder.h"
#include "nn/classifier.h"

namespace clfd {

// Sel-CL — Selective-Supervised Contrastive Learning (Li et al. [8])
// adapted to sessions (Sec. IV-A3): SimCLR warm-up with the session-
// reordering augmentation, nearest-neighbour label correction in the
// learned representation space, selection of confident samples (those
// whose corrected label agrees with the given noisy label), supervised
// contrastive training restricted to confident pairs, and finally a
// classifier on the resulting representations.
class SelClModel : public DetectorModel {
 public:
  SelClModel(const ClfdConfig& config, uint64_t seed, int knn_k = 10);

  void Train(const SessionDataset& train, const Matrix& embeddings) override;
  std::vector<double> Score(const SessionDataset& data) const override;

  // Exposed for tests: indices selected as confident in the last Train().
  const std::vector<int>& confident_indices() const { return confident_; }

 private:
  ClfdConfig config_;
  mutable Rng rng_;
  int knn_k_;
  SessionEncoder encoder_;
  ProjectionHead projection_;
  nn::FeedForwardClassifier classifier_;
  Matrix embeddings_;
  std::vector<int> confident_;
};

}  // namespace clfd

