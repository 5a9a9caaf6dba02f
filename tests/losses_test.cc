#include <gtest/gtest.h>

#include <cmath>

#include "autograd/grad_check.h"
#include "autograd/var.h"
#include "common/rng.h"
#include "losses/contrastive.h"
#include "losses/mixup.h"
#include "losses/robust_losses.h"

namespace clfd {
namespace {

TEST(GceLossTest, KnownValue) {
  // Single sample, p = (0.8, 0.2), one-hot target class 0, q = 0.7:
  // l = (1/0.7) * (1 - 0.8^0.7).
  Matrix probs = Matrix::FromRows({{0.8f, 0.2f}});
  Matrix target = Matrix::FromRows({{1.0f, 0.0f}});
  float loss = GceLoss(ag::Constant(probs), target, 0.7f).value()[0];
  EXPECT_NEAR(loss, (1.0f - std::pow(0.8f, 0.7f)) / 0.7f, 1e-5f);
}

TEST(GceLossTest, ZeroWhenConfidentCorrect) {
  Matrix probs = Matrix::FromRows({{1.0f, 0.0f}});
  Matrix target = Matrix::FromRows({{1.0f, 0.0f}});
  EXPECT_NEAR(GceLoss(ag::Constant(probs), target, 0.7f).value()[0], 0.0f,
              1e-5f);
}

TEST(GceLossTest, QEqualsOneIsMae) {
  Rng rng(1);
  Matrix logits = Matrix::Randn(6, 2, 1.0f, &rng);
  Matrix probs = SoftmaxRows(logits);
  std::vector<int> labels = {0, 1, 0, 1, 1, 0};
  Matrix targets = OneHot(labels);
  float gce1 = GceLoss(ag::Constant(probs), targets, 1.0f).value()[0];
  float mae = MaeLoss(ag::Constant(probs), targets).value()[0];
  EXPECT_NEAR(gce1, mae, 1e-5f);
}

// Theorem 1: lim_{q->0} L_GCE = L_CCE (checked at small q).
TEST(GceLossTest, Theorem1ConvergesToCceAsQGoesToZero) {
  Rng rng(2);
  Matrix probs = SoftmaxRows(Matrix::Randn(8, 2, 1.0f, &rng));
  // Soft mixup-style targets.
  Matrix targets(8, 2);
  for (int i = 0; i < 8; ++i) {
    float lambda = 0.3f + 0.05f * i;
    targets.at(i, 0) = lambda;
    targets.at(i, 1) = 1.0f - lambda;
  }
  float cce = CceLoss(ag::Constant(probs), targets).value()[0];
  float prev_gap = 1e9f;
  for (float q : {0.5f, 0.1f, 0.02f, 0.004f}) {
    float gce = GceLoss(ag::Constant(probs), targets, q).value()[0];
    float gap = std::abs(gce - cce);
    EXPECT_LT(gap, prev_gap);  // monotone approach
    prev_gap = gap;
  }
  EXPECT_LT(prev_gap, 5e-3f);
}

// Theorem 2: per-sample mixup GCE loss respects the stated bounds.
class GceBoundsTest
    : public ::testing::TestWithParam<std::tuple<float, float>> {};

TEST_P(GceBoundsTest, Theorem2Bounds) {
  auto [q, lambda] = GetParam();
  Rng rng(static_cast<uint64_t>(q * 1000 + lambda * 100));
  for (int trial = 0; trial < 200; ++trial) {
    // Random softmax output and mixup target with coefficient lambda.
    float p0 = static_cast<float>(rng.Uniform(0.001, 0.999));
    float probs[2] = {p0, 1.0f - p0};
    int base = rng.Bernoulli(0.5) ? 0 : 1;
    float targets[2];
    targets[base] = lambda;
    targets[1 - base] = 1.0f - lambda;
    float loss = GceLossValueRow(probs, targets, 2, q);
    EXPECT_LE(loss, GceMixupUpperBound(q) + 1e-4f);
    EXPECT_GE(loss, GceMixupLowerBound(lambda, q) - 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    QLambdaSweep, GceBoundsTest,
    ::testing::Combine(::testing::Values(0.1f, 0.4f, 0.7f, 1.0f),
                       ::testing::Values(0.05f, 0.3f, 0.5f, 0.8f, 0.95f)));

TEST(GceLossTest, GradCheck) {
  Rng rng(3);
  Matrix targets = OneHot({0, 1, 1});
  std::vector<ag::Var> params = {ag::Param(Matrix::Randn(3, 2, 1.0f, &rng))};
  auto result = ag::CheckGradients(
      [&](const std::vector<ag::Var>& p) {
        return GceLoss(ag::SoftmaxRows(p[0]), targets, 0.7f);
      },
      params);
  EXPECT_TRUE(result.ok()) << result.max_abs_error;
}

TEST(GceLossTest, DownweightsWeakAgreementSamples) {
  // The GCE gradient weight w = t * p^(q-1) * dp ... the practical claim
  // (Sec. III-A1) is that a confidently-wrong sample produces a smaller
  // parameter gradient under GCE than under CCE. Verify on logits.
  Matrix weak_logits = Matrix::FromRows({{-3.0f, 3.0f}});  // p(target) small
  Matrix target = Matrix::FromRows({{1.0f, 0.0f}});
  auto grad_norm = [&](bool use_gce) {
    ag::Var logits = ag::Param(weak_logits);
    ag::Var probs = ag::SoftmaxRows(logits);
    ag::Var loss = use_gce ? GceLoss(probs, target, 0.7f)
                           : CceLoss(probs, target);
    ag::Backward(loss);
    return RowNorm(logits.grad(), 0);
  };
  EXPECT_LT(grad_norm(true), grad_norm(false) * 0.6f);
}

TEST(MixupTest, OneHot) {
  Matrix oh = OneHot({0, 1, 1});
  EXPECT_FLOAT_EQ(oh.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(oh.at(1, 1), 1.0f);
  EXPECT_FLOAT_EQ(oh.at(2, 0), 0.0f);
}

TEST(MixupTest, PartnersFromOppositeClass) {
  Rng rng(4);
  // Features encode their class: class 0 rows are all 0, class 1 all 1.
  Matrix features(6, 3);
  std::vector<int> labels = {0, 0, 0, 1, 1, 1};
  for (int i = 3; i < 6; ++i) {
    for (int d = 0; d < 3; ++d) features.at(i, d) = 1.0f;
  }
  MixupBatch batch =
      MakeMixupBatch(features, labels, features, MixupPartners(labels),
                     16.0, &rng);
  EXPECT_EQ(batch.features.rows(), 6);
  for (int i = 0; i < 6; ++i) {
    float lambda = static_cast<float>(batch.lambdas[i]);
    // Mixed feature must equal lambda*own + (1-lambda)*opposite exactly.
    float own = labels[i] == 1 ? 1.0f : 0.0f;
    float other = 1.0f - own;
    float expected = lambda * own + (1.0f - lambda) * other;
    EXPECT_NEAR(batch.features.at(i, 0), expected, 1e-5f);
    // Targets interpolate the one-hots the same way.
    EXPECT_NEAR(batch.targets.at(i, labels[i]), lambda, 1e-5f);
    EXPECT_NEAR(batch.targets.at(i, 0) + batch.targets.at(i, 1), 1.0f, 1e-5f);
  }
}

TEST(MixupTest, FallbackWhenNoOppositeClass) {
  Rng rng(5);
  Matrix features(3, 2, 1.0f);
  std::vector<int> labels = {0, 0, 0};
  MixupBatch batch =
      MakeMixupBatch(features, labels, features, MixupPartners(labels),
                     16.0, &rng);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(batch.targets.at(i, 0), 1.0f, 1e-5f);
    EXPECT_NEAR(batch.features.at(i, 0), 1.0f, 1e-5f);
  }
}

TEST(NtXentTest, AlignedPairsGiveLowerLoss) {
  Rng rng(6);
  int n = 8, dim = 6;
  Matrix base = Matrix::Randn(n, dim, 1.0f, &rng);
  // Aligned views: tiny perturbation. Misaligned: independent random.
  Matrix aligned(2 * n, dim), random(2 * n, dim);
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < dim; ++d) {
      aligned.at(i, d) = base.at(i, d);
      aligned.at(i + n, d) = base.at(i, d) + 0.01f * rng.Gaussian();
      random.at(i, d) = base.at(i, d);
      random.at(i + n, d) = static_cast<float>(rng.Gaussian());
    }
  }
  float loss_aligned = NtXentLoss(ag::Constant(aligned), 0.5f).value()[0];
  float loss_random = NtXentLoss(ag::Constant(random), 0.5f).value()[0];
  EXPECT_LT(loss_aligned, loss_random);
}

TEST(NtXentTest, GradCheck) {
  Rng rng(7);
  std::vector<ag::Var> params = {ag::Param(Matrix::Randn(8, 5, 1.0f, &rng))};
  auto result = ag::CheckGradients(
      [](const std::vector<ag::Var>& p) { return NtXentLoss(p[0], 0.5f); },
      params, 5e-3f);
  EXPECT_TRUE(result.ok(5e-2f)) << result.max_abs_error;
}

TEST(SupConTest, ClusteredRepresentationsGiveLowerLoss) {
  Rng rng(8);
  int n = 10, dim = 6;
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) labels[i] = i < 5 ? 0 : 1;
  std::vector<double> conf(n, 1.0);
  // Clustered: same-class rows nearly identical.
  Matrix clustered(n, dim), scattered(n, dim);
  Matrix centers = Matrix::Randn(2, dim, 2.0f, &rng);
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < dim; ++d) {
      clustered.at(i, d) =
          centers.at(labels[i], d) + 0.05f * rng.Gaussian();
      scattered.at(i, d) = static_cast<float>(rng.Gaussian());
    }
  }
  float lc = SupConLoss(ag::Constant(clustered), labels, conf, n, 1.0f)
                 .value()[0];
  float ls = SupConLoss(ag::Constant(scattered), labels, conf, n, 1.0f)
                 .value()[0];
  EXPECT_LT(lc, ls);
}

TEST(SupConTest, WeightedEqualsUnweightedAtFullConfidence) {
  Rng rng(9);
  int n = 8;
  Matrix z = Matrix::Randn(n, 5, 1.0f, &rng);
  std::vector<int> labels = {0, 1, 0, 1, 0, 1, 0, 1};
  std::vector<double> conf(n, 1.0);
  float lw = SupConLoss(ag::Constant(z), labels, conf, n, 1.0f,
                        SupConVariant::kWeighted)
                 .value()[0];
  float lu = SupConLoss(ag::Constant(z), labels, conf, n, 1.0f,
                        SupConVariant::kUnweighted)
                 .value()[0];
  EXPECT_NEAR(lw, lu, 1e-4f);
}

TEST(SupConTest, LowConfidencePairsAreDownweighted) {
  Rng rng(10);
  int n = 8;
  Matrix z = Matrix::Randn(n, 5, 1.0f, &rng);
  std::vector<int> labels = {0, 1, 0, 1, 0, 1, 0, 1};
  std::vector<double> high(n, 1.0), low(n, 0.55);
  float lh = SupConLoss(ag::Constant(z), labels, high, n, 1.0f).value()[0];
  float ll = SupConLoss(ag::Constant(z), labels, low, n, 1.0f).value()[0];
  // Uncertain corrections shrink every pair weight (0.55^2 vs 1.0).
  EXPECT_LT(std::abs(ll), std::abs(lh));
}

TEST(SupConTest, FilteredDropsLowConfidencePairs) {
  Rng rng(11);
  int n = 6;
  Matrix z = Matrix::Randn(n, 5, 1.0f, &rng);
  std::vector<int> labels = {0, 0, 0, 1, 1, 1};
  std::vector<double> conf = {0.6, 0.6, 0.6, 0.6, 0.6, 0.6};  // c_i*c_p=0.36
  float l = SupConLoss(ag::Constant(z), labels, conf, n, 1.0f,
                       SupConVariant::kFiltered, /*tau=*/0.8)
                .value()[0];
  EXPECT_NEAR(l, 0.0f, 1e-6f);
  // With a low threshold the pairs survive.
  float l2 = SupConLoss(ag::Constant(z), labels, conf, n, 1.0f,
                        SupConVariant::kFiltered, /*tau=*/0.2)
                 .value()[0];
  EXPECT_GT(std::abs(l2), 1e-4f);
}

TEST(SupConTest, AuxiliaryRowsAreNotAnchors) {
  // With num_anchors < N, the loss must only normalize over anchors; an
  // easy structural check is that adding auxiliary rows changes the loss
  // (they join A(x_i) and B(x_i)) but the call stays well-formed.
  Rng rng(12);
  Matrix z = Matrix::Randn(8, 5, 1.0f, &rng);
  std::vector<int> labels = {0, 1, 0, 1, 1, 1, 1, 1};
  std::vector<double> conf(8, 1.0);
  float with_aux =
      SupConLoss(ag::Constant(z), labels, conf, /*num_anchors=*/4, 1.0f)
          .value()[0];
  Matrix z4 = SliceRows(z, 0, 4);
  std::vector<int> labels4(labels.begin(), labels.begin() + 4);
  std::vector<double> conf4(conf.begin(), conf.begin() + 4);
  float without_aux =
      SupConLoss(ag::Constant(z4), labels4, conf4, 4, 1.0f).value()[0];
  EXPECT_NE(with_aux, without_aux);
}

TEST(SupConTest, GradCheck) {
  Rng rng(13);
  std::vector<int> labels = {0, 1, 0, 1, 0, 1};
  std::vector<double> conf = {0.9, 0.8, 1.0, 0.7, 0.95, 0.85};
  std::vector<ag::Var> params = {ag::Param(Matrix::Randn(6, 4, 1.0f, &rng))};
  auto result = ag::CheckGradients(
      [&](const std::vector<ag::Var>& p) {
        return SupConLoss(p[0], labels, conf, 4, 1.0f);
      },
      params, 5e-3f);
  EXPECT_TRUE(result.ok(5e-2f)) << result.max_abs_error;
}

TEST(SupConTest, SingletonClassAnchorContributesZero) {
  // An anchor whose class appears nowhere else has |B| = 0 and is skipped.
  Rng rng(14);
  Matrix z = Matrix::Randn(3, 4, 1.0f, &rng);
  std::vector<int> labels = {1, 0, 0};
  std::vector<double> conf(3, 1.0);
  float l = SupConLoss(ag::Constant(z), labels, conf, 1, 1.0f).value()[0];
  EXPECT_FLOAT_EQ(l, 0.0f);
}

// Empirical check of Theorems 3/4: the noisy mixup-GCE risk is bounded by
// the clean risk plus eta/q (uniform) and the class-conditional analogue.
TEST(GceRiskTest, Theorem3UniformNoiseRiskBound) {
  Rng rng(15);
  float q = 0.7f;
  const int n = 4000;
  for (double eta : {0.1, 0.3, 0.45}) {
    double clean_risk = 0.0, noisy_risk = 0.0;
    for (int i = 0; i < n; ++i) {
      float p0 = static_cast<float>(rng.Uniform(0.01, 0.99));
      float probs[2] = {p0, 1.0f - p0};
      int y = rng.Bernoulli(0.5) ? 1 : 0;
      int y_noisy = rng.Bernoulli(eta) ? 1 - y : y;
      float lambda = static_cast<float>(rng.Beta(16, 16));
      // Mixup with an opposite-class partner in both worlds.
      float clean_t[2], noisy_t[2];
      clean_t[y] = lambda;
      clean_t[1 - y] = 1 - lambda;
      noisy_t[y_noisy] = lambda;
      noisy_t[1 - y_noisy] = 1 - lambda;
      clean_risk += GceLossValueRow(probs, clean_t, 2, q);
      noisy_risk += GceLossValueRow(probs, noisy_t, 2, q);
    }
    clean_risk /= n;
    noisy_risk /= n;
    EXPECT_LE(noisy_risk, clean_risk + eta / q + 0.05);
  }
}

}  // namespace
}  // namespace clfd
