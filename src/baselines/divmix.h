#pragma once

#include <memory>
#include <vector>

#include "baselines/lstm_classifier.h"
#include "core/config.h"
#include "core/detector.h"

namespace clfd {

// DivideMix (Li et al. [31]) adapted to sessions (Sec. IV-A3).
//
// Two LSTM classifiers co-train: after a cross-entropy warm-up, each epoch
// fits a two-component GMM to the per-sample losses of one network to split
// the training set into a (probably) clean and a (probably) noisy part for
// the *other* network. Clean samples keep a confidence-refined version of
// their noisy label; noisy samples get a co-guessed label (the networks'
// average prediction). Each network then trains on the resulting soft
// targets with mixup.
class DivMixModel : public DetectorModel {
 public:
  DivMixModel(const ClfdConfig& config, uint64_t seed,
              int warmup_epochs = 2, double clean_threshold = 0.5);

  void Train(const SessionDataset& train, const Matrix& embeddings) override;
  std::vector<double> Score(const SessionDataset& data) const override;

 private:
  // Builds the co-divided soft targets for `learner` using `partner`'s loss
  // GMM and both networks' predictions.
  Matrix BuildTargets(const SessionDataset& train,
                      const LstmClassifier& partner,
                      const LstmClassifier& learner,
                      const std::vector<int>& noisy_labels) const;

  ClfdConfig config_;
  mutable Rng rng_;
  int warmup_epochs_;
  double clean_threshold_;
  std::unique_ptr<LstmClassifier> net_a_;
  std::unique_ptr<LstmClassifier> net_b_;
  Matrix embeddings_;
};

}  // namespace clfd

