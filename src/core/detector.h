#pragma once

#include <string>
#include <vector>

#include "data/session.h"
#include "tensor/matrix.h"

namespace clfd {
namespace recovery {
class RunCheckpointer;
}  // namespace recovery

// Common interface for CLFD and every baseline in the evaluation harness.
//
// A detector is trained once on a noisy-labeled training set (with the
// dataset's frozen word2vec activity embeddings) and then scores sessions:
// higher score = more likely malicious. Predict() thresholds scores at
// threshold(), 0.5 by default, which matches models whose score is a
// malicious-class probability; rank-based models calibrate their own.
class DetectorModel {
 public:
  virtual ~DetectorModel() = default;

  virtual std::string name() const = 0;

  // Trains on the noisy labels of `train`. `embeddings` is the
  // [vocab x emb_dim] activity embedding table for this dataset.
  virtual void Train(const SessionDataset& train, const Matrix& embeddings) = 0;

  // Train with checkpoint/resume and watchdog hooks; a null `rc` is the
  // plain run. Models that support fault-tolerant training (CLFD) override
  // this; the default ignores `rc` and runs a plain Train, so baselines
  // keep working unchanged under a recovery-enabled harness (they simply
  // restart from scratch on retry).
  virtual void TrainWithRecovery(const SessionDataset& train,
                                 const Matrix& embeddings,
                                 recovery::RunCheckpointer* rc) {
    (void)rc;
    Train(train, embeddings);
  }

  // Malicious scores for every session in `data`.
  virtual std::vector<double> Score(const SessionDataset& data) const = 0;

  // Scores above this are malicious; 0.5 unless the model calibrates it.
  virtual double threshold() const { return 0.5; }

  // Hard labels for `scores`, a Score() result: kMalicious above
  // threshold(). Takes the scores rather than the sessions, so an
  // evaluation scores each split once and its labels and AUC read the
  // same scores, even for a model whose scoring draws random masks.
  std::vector<int> Predict(const std::vector<double>& scores) const;
};

// Throws std::invalid_argument("empty training split") when `train` holds
// no sessions. Every DetectorModel::Train / TrainWithRecovery and
// LabelCorrector::Train reaches it before touching the data: a model fit
// to nothing still scores, and its metrics would read like results.
void RequireTrainingSessions(const SessionDataset& train);

// Ground-truth label vector of a dataset (evaluation helper).
std::vector<int> TrueLabels(const SessionDataset& data);

}  // namespace clfd

