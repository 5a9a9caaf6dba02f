#include "losses/mixup.h"

#include <algorithm>
#include <cassert>

#include "augment/augment.h"

namespace clfd {

Matrix OneHot(const std::vector<int>& labels, int num_classes) {
  Matrix out(static_cast<int>(labels.size()), num_classes);
  for (size_t i = 0; i < labels.size(); ++i) {
    assert(labels[i] >= 0 && labels[i] < num_classes);
    out.at(static_cast<int>(i), labels[i]) = 1.0f;
  }
  return out;
}

MixupPartners::MixupPartners(const std::vector<int>& pool_labels) {
  for (int i = 0; i < static_cast<int>(pool_labels.size()); ++i) {
    by_class[pool_labels[i] == 1 ? 1 : 0].push_back(i);
  }
}

MixupBatch MakeMixupBatch(const Matrix& features,
                          const std::vector<int>& labels,
                          const Matrix& pool_features,
                          const MixupPartners& partners, double beta,
                          Rng* rng) {
  assert(features.rows() == static_cast<int>(labels.size()));
  assert(pool_features.rows() ==
         static_cast<int>(partners.by_class[0].size() +
                          partners.by_class[1].size()));
  int batch = features.rows();
  int dim = features.cols();

  MixupBatch out;
  out.features = Matrix(batch, dim);
  out.targets = Matrix(batch, 2);
  out.lambdas.resize(batch);
  for (int i = 0; i < batch; ++i) {
    int yi = labels[i] == 1 ? 1 : 0;
    const std::vector<int>& opposite = partners.by_class[1 - yi];
    const std::vector<int>& same = partners.by_class[yi];
    int j;
    int yj;
    if (!opposite.empty()) {
      j = opposite[rng->UniformInt(static_cast<int>(opposite.size()))];
      yj = 1 - yi;
    } else if (!same.empty()) {
      j = same[rng->UniformInt(static_cast<int>(same.size()))];
      yj = yi;
    } else {
      j = -1;
      yj = yi;
    }
    // Anchor the interpolation to sample i (lambda >= 0.5, as in standard
    // mixup implementations). Without this, opposite-class partner pools
    // exactly rebalance the noisy-label votes inside the majority cluster
    // and the vote signal vanishes at any uniform noise rate — see
    // DESIGN.md ("mixup anchoring") for the derivation.
    double lambda = SampleMixupLambda(beta, rng);
    lambda = std::max(lambda, 1.0 - lambda);
    out.lambdas[i] = lambda;
    float lf = static_cast<float>(lambda);
    const float* vi = features.row(i);
    float* dst = out.features.row(i);
    if (j >= 0) {
      const float* vj = pool_features.row(j);
      for (int d = 0; d < dim; ++d) dst[d] = lf * vi[d] + (1.0f - lf) * vj[d];
    } else {
      for (int d = 0; d < dim; ++d) dst[d] = vi[d];
    }
    out.targets.at(i, yi) += lf;
    out.targets.at(i, yj) += 1.0f - lf;
  }
  return out;
}

}  // namespace clfd
