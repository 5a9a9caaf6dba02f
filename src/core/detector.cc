#include "core/detector.h"

#include <stdexcept>

namespace clfd {

void RequireTrainingSessions(const SessionDataset& train) {
  if (train.size() == 0) throw std::invalid_argument("empty training split");
}

std::vector<int> DetectorModel::Predict(
    const std::vector<double>& scores) const {
  const double cut = threshold();
  std::vector<int> preds(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    preds[i] = scores[i] > cut ? kMalicious : kNormal;
  }
  return preds;
}

std::vector<int> TrueLabels(const SessionDataset& data) {
  std::vector<int> labels(data.size());
  for (int i = 0; i < data.size(); ++i) {
    labels[i] = data.sessions[i].true_label;
  }
  return labels;
}

}  // namespace clfd
