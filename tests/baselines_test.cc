#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "baselines/knn.h"
#include "baselines/registry.h"
#include "core/detector.h"
#include "data/noise.h"
#include "data/simulators.h"
#include "embedding/word2vec.h"
#include "metrics/gmm1d.h"
#include "metrics/metrics.h"

namespace clfd {
namespace {

TEST(Gmm1dTest, SeparatesTwoClusters) {
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) values.push_back(0.1 + 0.001 * i);
  for (int i = 0; i < 50; ++i) values.push_back(2.0 + 0.002 * i);
  GaussianMixture1D gmm;
  gmm.Fit(values);
  EXPECT_LT(gmm.low().mean, 0.5);
  EXPECT_GT(gmm.high().mean, 1.5);
  EXPECT_GT(gmm.LowComponentPosterior(0.15), 0.9);
  EXPECT_LT(gmm.LowComponentPosterior(2.05), 0.1);
}

TEST(Gmm1dTest, DegenerateConstantInput) {
  GaussianMixture1D gmm;
  gmm.Fit(std::vector<double>(20, 0.7));
  EXPECT_GT(gmm.LowComponentPosterior(0.7), 0.5);
}

TEST(Gmm1dTest, EmptyInputIsSafe) {
  GaussianMixture1D gmm;
  EXPECT_NO_THROW(gmm.Fit({}));
}

TEST(KnnTest, NearestNeighborsByCosine) {
  Matrix table = Matrix::FromRows(
      {{1, 0}, {0.9f, 0.1f}, {0, 1}, {0.1f, 0.9f}, {-1, 0}});
  auto nn = NearestNeighbors(table, 0, table, 2, /*exclude_index=*/0);
  ASSERT_EQ(nn.size(), 2u);
  EXPECT_EQ(nn[0], 1);  // most similar to row 0
}

TEST(KnnTest, CorrectLabelsFixesIsolatedFlips) {
  // 10 points in two tight clusters; one label flipped in each cluster.
  std::vector<std::vector<float>> rows;
  std::vector<int> labels;
  for (int i = 0; i < 5; ++i) {
    rows.push_back({1.0f + 0.01f * i, 0.0f});
    labels.push_back(i == 2 ? 1 : 0);  // one flip
  }
  for (int i = 0; i < 5; ++i) {
    rows.push_back({0.0f, 1.0f + 0.01f * i});
    labels.push_back(i == 3 ? 0 : 1);  // one flip
  }
  auto corrected = KnnCorrectLabels(Matrix::FromRows(rows), labels, 3);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(corrected[i], 0);
  for (int i = 5; i < 10; ++i) EXPECT_EQ(corrected[i], 1);
}

TEST(RegistryTest, AllModelsConstruct) {
  ClfdConfig config = ClfdConfig::Fast();
  for (const auto& name : AllModelNames()) {
    auto model = MakeModel(name, config, 1);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(model->name(), name);
  }
  EXPECT_EQ(MakeModel("NoSuchModel", config, 1), nullptr);
  EXPECT_EQ(AllModelNames().size(), 9u);
}

// Every baseline must train end-to-end on a tiny noisy dataset and emit
// finite scores of the right size. (Quality ordering is measured by the
// benchmark harness, not unit tests.)
class BaselineSmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BaselineSmokeTest, TrainsAndScores) {
  Rng rng(5);
  SplitSpec split{80, 8, 40, 8};
  SimulatedData data = MakeDataset(DatasetKind::kWiki, split, &rng);
  NoiseSpec::Uniform(0.2).Apply(&data.train, &rng);

  ClfdConfig config = ClfdConfig::Fast();
  config.emb_dim = 12;
  config.hidden_dim = 12;
  config.batch_size = 20;
  config.aux_batch_size = 4;
  config.budget = {2, 30, 2};
  Matrix embeddings = TrainActivityEmbeddings(data.train, config.emb_dim, &rng);

  auto model = MakeModel(GetParam(), config, 7);
  ASSERT_NE(model, nullptr);
  model->Train(data.train, embeddings);

  auto scores = model->Score(data.test);
  ASSERT_EQ(scores.size(), static_cast<size_t>(data.test.size()));
  std::set<double> distinct;
  for (double s : scores) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
    distinct.insert(s);
  }
  // Scores must discriminate at least somewhat (not all identical).
  EXPECT_GT(distinct.size(), 1u);

  auto preds = model->Predict(scores);
  ASSERT_EQ(preds.size(), scores.size());
  for (int p : preds) {
    EXPECT_TRUE(p == kNormal || p == kMalicious);
  }
}

// A model name as a test name: "Sel-CL" -> "SelCL".
std::string ModelTestName(const ::testing::TestParamInfo<std::string>& info) {
  std::string out;
  for (char c : info.param) {
    if (c != '-') out += c;
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineSmokeTest,
                         ::testing::Values("DivMix", "ULC", "Sel-CL", "CTRR",
                                           "Few-Shot", "CLDet", "DeepLog",
                                           "LogBert"),
                         ModelTestName);

// FNV-1a over the bits of every score, byte order fixed, as the run
// fingerprint (eval_test.cc) hashes a CLFD run.
uint64_t ScoreFingerprint(const std::vector<double>& scores) {
  uint64_t h = 14695981039346656037ull;
  for (double score : scores) {
    uint64_t bits = 0;
    std::memcpy(&bits, &score, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// Every baseline on one tiny fixed world: the bits of its first
// Score(test) after training. DeepLog, CLDet, Sel-CL and the
// LstmClassifier baselines (DivMix, ULC, CTRR) run the same nn::Lstm as
// CLFD, whose run fingerprint pins only CLFD's use of it. A change to a
// hash is a deliberate, reviewed event: the failure message prints the new
// value.
class BaselineFingerprintTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(BaselineFingerprintTest, FirstScoreMatchesCommittedHash) {
  const std::map<std::string, uint64_t> kExpected = {
      {"DivMix", 0x6c4166c49897e35aull},  {"ULC", 0x0615aeace05422b8ull},
      {"Sel-CL", 0xe662f02fb843e585ull},  {"CTRR", 0xc0b7fd5d0ad3990bull},
      {"Few-Shot", 0x97dac6c5bab020e5ull}, {"CLDet", 0x63c1094b5eeb250full},
      {"DeepLog", 0xcadd9b0de396a458ull}, {"LogBert", 0xd18fa1ac17609c72ull}};
  Rng rng(9);
  SplitSpec split{40, 6, 20, 4};
  SimulatedData data = MakeDataset(DatasetKind::kWiki, split, &rng);
  NoiseSpec::Uniform(0.2).Apply(&data.train, &rng);

  ClfdConfig config = ClfdConfig::Fast();
  config.emb_dim = 8;
  config.hidden_dim = 8;
  config.batch_size = 16;
  config.aux_batch_size = 4;
  config.budget = {2, 10, 2};
  Matrix embeddings = TrainActivityEmbeddings(data.train, config.emb_dim, &rng);

  auto model = MakeModel(GetParam(), config, 11);
  ASSERT_NE(model, nullptr);
  model->Train(data.train, embeddings);
  const uint64_t got = ScoreFingerprint(model->Score(data.test));
  EXPECT_EQ(got, kExpected.at(GetParam()))
      << GetParam() << ": got 0x" << std::hex << got;
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineFingerprintTest,
                         ::testing::ValuesIn(BaselineModelNames()),
                         ModelTestName);

TEST(CldetQualityTest, LearnsOnCleanLabels) {
  // With clean labels CLDet (SimCLR + CE classifier) must separate the
  // classes well — this validates the shared contrastive machinery.
  Rng rng(11);
  SplitSpec split{150, 12, 80, 12};
  SimulatedData data = MakeDataset(DatasetKind::kCert, split, &rng);
  NoiseSpec::None().Apply(&data.train, &rng);

  ClfdConfig config = ClfdConfig::Fast();
  config.emb_dim = 16;
  config.hidden_dim = 16;
  config.batch_size = 40;
  Matrix embeddings = TrainActivityEmbeddings(data.train, config.emb_dim, &rng);

  auto model = MakeModel("CLDet", config, 3);
  model->Train(data.train, embeddings);
  double auc = AucRoc(model->Score(data.test), TrueLabels(data.test));
  EXPECT_GT(auc, 75.0);
}

TEST(DeepLogQualityTest, FlagsStructurallyBrokenSessions) {
  // DeepLog must assign higher scores to malicious OpenStack traces (error
  // storms) than to normal lifecycles when trained on clean normals.
  Rng rng(13);
  SplitSpec split{150, 8, 60, 20};
  SimulatedData data = MakeDataset(DatasetKind::kOpenStack, split, &rng);
  NoiseSpec::None().Apply(&data.train, &rng);

  ClfdConfig config = ClfdConfig::Fast();
  config.emb_dim = 16;
  config.hidden_dim = 16;
  config.batch_size = 40;
  config.budget.sequence_epochs = 4;
  Matrix embeddings = TrainActivityEmbeddings(data.train, config.emb_dim, &rng);

  auto model = MakeModel("DeepLog", config, 3);
  model->Train(data.train, embeddings);
  double auc = AucRoc(model->Score(data.test), TrueLabels(data.test));
  EXPECT_GT(auc, 65.0);
}

}  // namespace
}  // namespace clfd
