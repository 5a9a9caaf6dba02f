#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>

#include "autograd/grad_check.h"
#include "core/classifier_trainer.h"
#include "core/co_teaching.h"
#include "core/noise_estimator.h"
#include "data/dataset_io.h"
#include "data/noise.h"
#include "data/simulators.h"
#include "embedding/word2vec.h"
#include "losses/mixup.h"
#include "losses/sce.h"

namespace clfd {
namespace {

// ---- Symmetric Cross Entropy (future-work mixup loss) ----

TEST(SceLossTest, KnownValue) {
  // p = (0.8, 0.2), one-hot target class 0, alpha=1, beta=1, clamp=-4:
  // CCE = -log 0.8; RCE = -(0.8*log(1) + 0.2*(-4)) = 0.8.
  Matrix probs = Matrix::FromRows({{0.8f, 0.2f}});
  Matrix target = Matrix::FromRows({{1.0f, 0.0f}});
  float loss = SceLoss(ag::Constant(probs), target, 1.0f, 1.0f).value()[0];
  EXPECT_NEAR(loss, -std::log(0.8f) + 0.8f, 1e-5f);
}

TEST(SceLossTest, BoundedReverseTerm) {
  // Even a confidently wrong prediction keeps the RCE term bounded by
  // |log_clamp| (unlike unbounded CCE), the property that gives SCE its
  // noise tolerance.
  Matrix probs = Matrix::FromRows({{1e-6f, 1.0f - 1e-6f}});
  Matrix target = Matrix::FromRows({{1.0f, 0.0f}});
  float rce_only =
      SceLoss(ag::Constant(probs), target, /*alpha=*/0.0f, /*beta=*/1.0f)
          .value()[0];
  EXPECT_LE(rce_only, 4.0f + 1e-4f);
  EXPECT_GE(rce_only, 0.0f);
}

TEST(SceLossTest, SoftMixupTargets) {
  Matrix probs = Matrix::FromRows({{0.6f, 0.4f}, {0.3f, 0.7f}});
  Matrix targets = Matrix::FromRows({{0.55f, 0.45f}, {0.45f, 0.55f}});
  float loss = SceLoss(ag::Constant(probs), targets).value()[0];
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 0.0f);
}

TEST(SceLossTest, GradCheck) {
  Rng rng(1);
  Matrix targets = OneHot({0, 1, 1});
  std::vector<ag::Var> params = {ag::Param(Matrix::Randn(3, 2, 1.0f, &rng))};
  auto result = ag::CheckGradients(
      [&](const std::vector<ag::Var>& p) {
        return SceLoss(ag::SoftmaxRows(p[0]), targets);
      },
      params);
  EXPECT_TRUE(result.ok()) << result.max_abs_error;
}

class MixupLossVariantTest
    : public ::testing::TestWithParam<ClassifierLoss> {};

// FNV-1a over the shape and raw float bits of `m`.
uint64_t BitsHash(const Matrix& m) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint32_t v) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<uint32_t>(m.rows()));
  mix(static_cast<uint32_t>(m.cols()));
  for (int i = 0; i < m.size(); ++i) {
    uint32_t bits;
    std::memcpy(&bits, m.data() + i, sizeof(bits));
    mix(bits);
  }
  return h;
}

// The trained classifier's PredictProbs bits per loss. They pin every step
// of the run, including the operand order of a mixup step's Add(mixed,
// pure), which fixes the order in which the two loss subgraphs accumulate
// gradients. A change is a deliberate, reviewed event: the failure prints
// the new value.
uint64_t CommittedProbsHash(ClassifierLoss loss) {
  switch (loss) {
    case ClassifierLoss::kMixupGce:
      return 0xe1d9c32b1f831db2ull;
    case ClassifierLoss::kVanillaGce:
      return 0xa2e9c2a0ae02c611ull;
    case ClassifierLoss::kCce:
      return 0xfe5c2955a3882df9ull;
    case ClassifierLoss::kMixupMae:
      return 0xb6aa39835127e6f6ull;
    case ClassifierLoss::kMixupSce:
      return 0xbf1db0ef833cc180ull;
  }
  return 0;
}

TEST_P(MixupLossVariantTest, TrainsOnNoisyFeatures) {
  Rng rng(2);
  int n = 120;
  Matrix features(n, 6);
  std::vector<int> clean(n), noisy(n);
  for (int i = 0; i < n; ++i) {
    clean[i] = i % 2;
    noisy[i] = rng.Bernoulli(0.25) ? 1 - clean[i] : clean[i];
    for (int d = 0; d < 6; ++d) {
      features.at(i, d) =
          static_cast<float>(rng.Gaussian(clean[i] == 1 ? 1.5 : -1.5, 1.0));
    }
  }
  ClfdConfig config = ClfdConfig::Fast();
  config.batch_size = 40;
  config.budget.classifier_epochs = 120;
  config.classifier_loss = GetParam();
  nn::FeedForwardClassifier clf(6, 10, 2, &rng);
  TrainClassifierOnFeatures(&clf, features, noisy, config, &rng);
  Matrix probs = clf.PredictProbs(features);
  int correct = 0;
  for (int i = 0; i < n; ++i) {
    correct += ((probs.at(i, 1) > 0.5f ? 1 : 0) == clean[i]);
  }
  EXPECT_GT(correct, n * 70 / 100);
  EXPECT_EQ(BitsHash(probs), CommittedProbsHash(GetParam()))
      << std::hex << "0x" << BitsHash(probs);
}

INSTANTIATE_TEST_SUITE_P(AllLosses, MixupLossVariantTest,
                         ::testing::Values(ClassifierLoss::kMixupGce,
                                           ClassifierLoss::kVanillaGce,
                                           ClassifierLoss::kCce,
                                           ClassifierLoss::kMixupMae,
                                           ClassifierLoss::kMixupSce));

// ---- Noise-rate estimation (future-work session-specific noise) ----

TEST(NoiseEstimatorTest, PerfectCorrectorRecoversRates) {
  // Corrector = oracle with confidence 1; the estimate must match the
  // observed flip rates exactly.
  SessionDataset data;
  Rng rng(3);
  for (int i = 0; i < 4000; ++i) {
    LabeledSession ls;
    ls.true_label = i % 4 == 0 ? kMalicious : kNormal;  // 25% malicious
    data.sessions.push_back(ls);
  }
  ApplyClassDependentNoise(&data, 0.3, 0.45, &rng);
  std::vector<Correction> oracle(data.size());
  for (int i = 0; i < data.size(); ++i) {
    oracle[i].label = data.sessions[i].true_label;
    oracle[i].confidence = 1.0;
  }
  NoiseEstimate estimate = EstimateNoise(data, oracle);
  EXPECT_NEAR(estimate.eta10, 0.3, 0.03);
  EXPECT_NEAR(estimate.eta01, 0.45, 0.03);
  EXPECT_NEAR(estimate.eta, ObservedNoiseRate(data), 1e-9);
  // Per-session probabilities are exactly the flip indicators.
  for (int i = 0; i < data.size(); ++i) {
    double expected =
        data.sessions[i].noisy_label != data.sessions[i].true_label ? 1.0
                                                                    : 0.0;
    EXPECT_DOUBLE_EQ(estimate.session_flip_probability[i], expected);
  }
}

TEST(NoiseEstimatorTest, UncertainCorrectorShrinksTowardHalf) {
  SessionDataset data;
  LabeledSession ls;
  ls.true_label = kNormal;
  ls.noisy_label = kNormal;
  data.sessions.push_back(ls);
  std::vector<Correction> c = {{kNormal, 0.5}};
  NoiseEstimate estimate = EstimateNoise(data, c);
  EXPECT_DOUBLE_EQ(estimate.session_flip_probability[0], 0.5);
}

TEST(NoiseEstimatorTest, EmptyDatasetIsSafe) {
  SessionDataset data;
  NoiseEstimate estimate = EstimateNoise(data, {});
  EXPECT_DOUBLE_EQ(estimate.eta, 0.0);
  EXPECT_TRUE(estimate.session_flip_probability.empty());
}

// ---- Dataset text I/O ----

TEST(DatasetIoTest, RoundTripStream) {
  Rng rng(4);
  SimulatedData data =
      MakeWikiDataset(PaperSplit(DatasetKind::kWiki).Scaled(0.005), &rng);
  ApplyUniformNoise(&data.train, 0.3, &rng);

  std::stringstream ss;
  WriteDataset(ss, data.train);
  SessionDataset loaded;
  ASSERT_TRUE(ReadDataset(ss, &loaded));
  ASSERT_EQ(loaded.size(), data.train.size());
  EXPECT_EQ(loaded.vocab, data.train.vocab);
  for (int i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded.sessions[i].true_label,
              data.train.sessions[i].true_label);
    EXPECT_EQ(loaded.sessions[i].noisy_label,
              data.train.sessions[i].noisy_label);
    EXPECT_EQ(loaded.sessions[i].session.activities,
              data.train.sessions[i].session.activities);
  }
}

TEST(DatasetIoTest, RoundTripFile) {
  Rng rng(5);
  SimulatedData data =
      MakeCertDataset(PaperSplit(DatasetKind::kCert).Scaled(0.002), &rng);
  std::string path = ::testing::TempDir() + "/clfd_dataset.txt";
  ASSERT_TRUE(SaveDataset(data.test, path));
  SessionDataset loaded;
  ASSERT_TRUE(LoadDataset(path, &loaded));
  EXPECT_EQ(loaded.size(), data.test.size());
  std::remove(path.c_str());
}

TEST(DatasetIoTest, RejectsMalformedInput) {
  SessionDataset out;
  std::stringstream bad1("not a dataset");
  EXPECT_FALSE(ReadDataset(bad1, &out));
  std::stringstream bad2("clfd-dataset v1\nvocab 2\na\nb\nsessions 1\n0 0 3 0 1 9\n");
  EXPECT_FALSE(ReadDataset(bad2, &out));  // activity id 9 out of range
  EXPECT_EQ(out.size(), 0);
  std::stringstream bad3("clfd-dataset v1\nvocab -1\n");
  EXPECT_FALSE(ReadDataset(bad3, &out));
}

TEST(DatasetIoTest, MissingFileFails) {
  SessionDataset out;
  EXPECT_FALSE(LoadDataset("/nonexistent/clfd.txt", &out));
}

TEST(DatasetIoTest, RejectsHostileDeclaredCounts) {
  // Header-declared counts far beyond what the stream can back must fail
  // cleanly without commissioning the allocation they describe.
  SessionDataset out;
  std::stringstream huge_vocab("clfd-dataset v1\nvocab 2000000000\na\n");
  EXPECT_FALSE(ReadDataset(huge_vocab, &out));
  EXPECT_EQ(out.size(), 0);
  EXPECT_TRUE(out.vocab.empty());

  std::stringstream huge_sessions(
      "clfd-dataset v1\nvocab 1\na\nsessions 2000000000\n0 0 1 0\n");
  EXPECT_FALSE(ReadDataset(huge_sessions, &out));
  EXPECT_EQ(out.size(), 0);

  std::stringstream huge_session_len(
      "clfd-dataset v1\nvocab 1\na\nsessions 1\n0 0 2000000000 0\n");
  EXPECT_FALSE(ReadDataset(huge_session_len, &out));
  EXPECT_EQ(out.size(), 0);
}

TEST(DatasetIoTest, RejectsNonBinaryLabelsAndTruncation) {
  SessionDataset out;
  std::stringstream bad_label(
      "clfd-dataset v1\nvocab 1\na\nsessions 1\n7 0 1 0\n");
  EXPECT_FALSE(ReadDataset(bad_label, &out));
  std::stringstream bad_noisy(
      "clfd-dataset v1\nvocab 1\na\nsessions 1\n0 -1 1 0\n");
  EXPECT_FALSE(ReadDataset(bad_noisy, &out));
  // Truncated mid-session: fewer activities than the declared length.
  std::stringstream truncated(
      "clfd-dataset v1\nvocab 2\na\nb\nsessions 1\n0 0 3 0 1\n");
  EXPECT_FALSE(ReadDataset(truncated, &out));
  EXPECT_EQ(out.size(), 0);
  // Truncated vocab: fewer names than declared.
  std::stringstream short_vocab("clfd-dataset v1\nvocab 3\na\nb\n");
  EXPECT_FALSE(ReadDataset(short_vocab, &out));
  EXPECT_TRUE(out.vocab.empty());
}


// ---- Co-teaching CLFD (future-work extension) ----

TEST(FuseCorrectionsTest, AgreementBoostsConfidence) {
  std::vector<Correction> a = {{kMalicious, 0.8}};
  std::vector<Correction> b = {{kMalicious, 0.7}};
  auto fused = FuseCorrections(a, b);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_EQ(fused[0].label, kMalicious);
  EXPECT_GT(fused[0].confidence, 0.8);  // noisy-or: 1 - 0.2*0.3 = 0.94
  EXPECT_NEAR(fused[0].confidence, 0.94, 1e-9);
}

TEST(FuseCorrectionsTest, DisagreementTakesConfidentSideDamped) {
  std::vector<Correction> a = {{kMalicious, 0.9}};
  std::vector<Correction> b = {{kNormal, 0.6}};
  auto fused = FuseCorrections(a, b);
  EXPECT_EQ(fused[0].label, kMalicious);
  EXPECT_LT(fused[0].confidence, 0.9);  // damped by the disagreement
  EXPECT_GE(fused[0].confidence, 0.5);
}

TEST(FuseCorrectionsTest, SymmetricTieKeepsValidRange) {
  std::vector<Correction> a = {{kMalicious, 0.7}};
  std::vector<Correction> b = {{kNormal, 0.7}};
  auto fused = FuseCorrections(a, b);
  EXPECT_GE(fused[0].confidence, 0.5);
  EXPECT_LE(fused[0].confidence, 1.0);
}

TEST(CoTeachingClfdTest, TrainsAndScoresEndToEnd) {
  Rng rng(8);
  SimulatedData data = MakeDataset(DatasetKind::kWiki, {80, 10, 40, 10}, &rng);
  NoiseSpec::Uniform(0.25).Apply(&data.train, &rng);
  ClfdConfig config = ClfdConfig::Fast();
  config.emb_dim = 12;
  config.hidden_dim = 12;
  config.batch_size = 20;
  config.aux_batch_size = 4;
  config.budget = {2, 25, 2};
  Matrix emb = TrainActivityEmbeddings(data.train, config.emb_dim, &rng);
  CoTeachingClfdModel model(config, 21);
  model.Train(data.train, emb);
  EXPECT_EQ(model.consensus().size(), static_cast<size_t>(data.train.size()));
  auto scores = model.Score(data.test);
  ASSERT_EQ(scores.size(), static_cast<size_t>(data.test.size()));
  for (double s : scores) {
    EXPECT_TRUE(std::isfinite(s));
  }
}

}  // namespace
}  // namespace clfd
