#pragma once

#include <vector>

#include "common/rng.h"
#include "tensor/matrix.h"

namespace clfd {

// The paper's mixup strategy (Sec. III-A1): for every sample i in a batch,
// a partner j is drawn from the *opposite* (noisy or corrected) class, a
// coefficient lambda ~ Beta(beta, beta) is sampled, and the classifier is
// trained on v^lambda = lambda v_i + (1-lambda) v_j with the soft target
// m = lambda e_i + (1-lambda) e_j. Following standard mixup practice the
// coefficient is anchored to the sample itself (lambda := max(lambda,
// 1-lambda)); DESIGN.md explains why the un-anchored variant cannot learn
// under uniform label noise with opposite-class partner pools.

struct MixupBatch {
  Matrix features;          // [B x d] interpolated representations v^lambda
  Matrix targets;           // [B x 2] interpolated one-hot targets m
  std::vector<double> lambdas;  // per-row interpolation coefficient
};

// The partner candidates of a pool: its row indices grouped by binary
// label. Built once per pool, not once per batch.
struct MixupPartners {
  explicit MixupPartners(const std::vector<int>& pool_labels);
  std::vector<int> by_class[2];
};

// Builds a mixup batch for the given feature rows and binary labels.
// `pool_features` rows, grouped by `partners`, are the candidates partners
// are drawn from (typically the full training representation table so every
// batch can find opposite-class partners even under extreme imbalance).
// Falls back to a same-class partner when the opposite class is absent from
// the pool.
MixupBatch MakeMixupBatch(const Matrix& features,
                          const std::vector<int>& labels,
                          const Matrix& pool_features,
                          const MixupPartners& partners, double beta,
                          Rng* rng);

// One-hot encodes binary labels into [B x 2].
Matrix OneHot(const std::vector<int>& labels, int num_classes = 2);

}  // namespace clfd

