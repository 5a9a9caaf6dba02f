// Failure-injection tests: degenerate datasets and edge conditions that a
// production deployment will eventually feed the library. Nothing here may
// crash, hang, or emit non-finite scores.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "baselines/registry.h"
#include "core/clfd.h"
#include "core/label_corrector.h"
#include "data/noise.h"
#include "embedding/word2vec.h"

namespace clfd {
namespace {

ClfdConfig MicroConfig() {
  ClfdConfig config = ClfdConfig::Fast();
  config.emb_dim = 8;
  config.hidden_dim = 8;
  config.batch_size = 8;
  config.aux_batch_size = 2;
  config.budget = {1, 5, 1};
  return config;
}

SessionDataset MakeTinyDataset(int normals, int malicious, int vocab,
                               int min_len, int max_len, Rng* rng) {
  SessionDataset ds;
  for (int v = 0; v < vocab; ++v) ds.vocab.push_back("act" + std::to_string(v));
  for (int i = 0; i < normals + malicious; ++i) {
    LabeledSession ls;
    ls.true_label = i < normals ? kNormal : kMalicious;
    ls.noisy_label = ls.true_label;
    int len = rng->LengthBetween(min_len, max_len);
    for (int t = 0; t < len; ++t) {
      ls.session.activities.push_back(rng->UniformInt(vocab));
    }
    ds.sessions.push_back(ls);
  }
  return ds;
}

void ExpectFiniteScores(const std::vector<double>& scores, size_t expected) {
  ASSERT_EQ(scores.size(), expected);
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST(RobustnessTest, AllNormalTrainingSet) {
  // No malicious sessions at all: the pipeline must still train and score.
  Rng rng(1);
  SessionDataset train = MakeTinyDataset(30, 0, 5, 2, 6, &rng);
  SessionDataset test = MakeTinyDataset(10, 2, 5, 2, 6, &rng);
  Matrix emb = TrainActivityEmbeddings(train, 8, &rng);
  ClfdModel model(MicroConfig(), 3);
  model.Train(train, emb);
  ExpectFiniteScores(model.Score(test), 12);
}

TEST(RobustnessTest, AllMaliciousNoisyLabels) {
  // Heuristic annotator gone haywire: everything labeled malicious.
  Rng rng(2);
  SessionDataset train = MakeTinyDataset(24, 4, 5, 2, 6, &rng);
  for (auto& ls : train.sessions) ls.noisy_label = kMalicious;
  Matrix emb = TrainActivityEmbeddings(train, 8, &rng);
  ClfdModel model(MicroConfig(), 3);
  model.Train(train, emb);
  ExpectFiniteScores(model.Score(train), 28);
}

TEST(RobustnessTest, SingleActivitySessions) {
  Rng rng(3);
  SessionDataset train = MakeTinyDataset(20, 4, 4, 1, 1, &rng);
  SessionDataset test = MakeTinyDataset(6, 2, 4, 1, 1, &rng);
  Matrix emb = TrainActivityEmbeddings(train, 8, &rng);
  ClfdModel model(MicroConfig(), 5);
  model.Train(train, emb);
  ExpectFiniteScores(model.Score(test), 8);
}

TEST(RobustnessTest, TinyVocabulary) {
  Rng rng(4);
  SessionDataset train = MakeTinyDataset(20, 4, 2, 2, 5, &rng);
  Matrix emb = TrainActivityEmbeddings(train, 8, &rng);
  ClfdModel model(MicroConfig(), 7);
  model.Train(train, emb);
  ExpectFiniteScores(model.Score(train), 24);
}

TEST(RobustnessTest, EmptyTestSet) {
  Rng rng(5);
  SessionDataset train = MakeTinyDataset(20, 4, 5, 2, 5, &rng);
  Matrix emb = TrainActivityEmbeddings(train, 8, &rng);
  ClfdModel model(MicroConfig(), 9);
  model.Train(train, emb);
  SessionDataset empty;
  empty.vocab = train.vocab;
  EXPECT_TRUE(model.Score(empty).empty());
  EXPECT_TRUE(model.Predict(model.Score(empty)).empty());
}

TEST(RobustnessTest, EmptyTrainingSplitThrows) {
  // A model fit to no sessions would still score; training refuses instead.
  SessionDataset empty;
  empty.vocab = {"act0", "act1"};
  Matrix emb(2, 8);
  ClfdModel model(MicroConfig(), 3);
  EXPECT_THROW(model.Train(empty, emb), std::invalid_argument);
  EXPECT_THROW(model.TrainWithRecovery(empty, emb, nullptr),
               std::invalid_argument);
  LabelCorrector corrector(MicroConfig(), 3);
  EXPECT_THROW(corrector.Train(empty, emb), std::invalid_argument);
}

TEST(RobustnessTest, ExtremeNoiseRatesClampBehaviour) {
  Rng rng(6);
  SessionDataset ds = MakeTinyDataset(100, 100, 4, 2, 4, &rng);
  ApplyUniformNoise(&ds, 0.0, &rng);
  EXPECT_DOUBLE_EQ(ObservedNoiseRate(ds), 0.0);
  ApplyUniformNoise(&ds, 1.0, &rng);
  EXPECT_DOUBLE_EQ(ObservedNoiseRate(ds), 1.0);
}

class BaselineRobustnessTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BaselineRobustnessTest, SurvivesDegenerateData) {
  // Every baseline gets: a one-class noisy labeling over very short
  // sessions with a tiny vocabulary.
  Rng rng(7);
  SessionDataset train = MakeTinyDataset(24, 2, 3, 1, 3, &rng);
  for (auto& ls : train.sessions) ls.noisy_label = kNormal;
  SessionDataset test = MakeTinyDataset(6, 2, 3, 1, 3, &rng);
  Matrix emb = TrainActivityEmbeddings(train, 8, &rng);
  ClfdConfig config = MicroConfig();
  auto model = MakeModel(GetParam(), config, 11);
  ASSERT_NE(model, nullptr);
  model->Train(train, emb);
  auto scores = model->Score(test);
  ASSERT_EQ(scores.size(), 8u);
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST_P(BaselineRobustnessTest, EmptyTrainingSplitThrows) {
  SessionDataset empty;
  empty.vocab = {"act0", "act1", "act2"};
  Matrix emb(3, 8);
  auto model = MakeModel(GetParam(), MicroConfig(), 11);
  ASSERT_NE(model, nullptr);
  EXPECT_THROW(model->Train(empty, emb), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllModels, BaselineRobustnessTest,
                         ::testing::Values("DivMix", "ULC", "Sel-CL", "CTRR",
                                           "Few-Shot", "CLDet", "DeepLog",
                                           "LogBert", "CLFD"),
                         [](const auto& info) {
                           std::string out;
                           for (char c : info.param) {
                             if (c != '-') out += c;
                           }
                           return out;
                         });

}  // namespace
}  // namespace clfd
