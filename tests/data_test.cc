#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "data/generator.h"
#include "data/noise.h"
#include "data/session.h"
#include "data/simulators.h"

namespace clfd {
namespace {

TEST(SessionDatasetTest, CountsAndIndices) {
  SessionDataset ds;
  ds.vocab = {"a", "b"};
  for (int i = 0; i < 10; ++i) {
    LabeledSession ls;
    ls.true_label = i < 7 ? kNormal : kMalicious;
    ls.noisy_label = ls.true_label;
    ls.session.activities = {0, 1};
    ds.sessions.push_back(ls);
  }
  EXPECT_EQ(ds.CountTrue(kNormal), 7);
  EXPECT_EQ(ds.CountTrue(kMalicious), 3);
  EXPECT_EQ(ds.IndicesWithNoisyLabel(kMalicious).size(), 3u);
  EXPECT_EQ(ds.MaxSessionLength(), 2);
}

TEST(SessionDatasetTest, MakeBatchesCoversAll) {
  SessionDataset ds;
  ds.sessions.resize(23);
  Rng rng(1);
  auto batches = ds.MakeBatches(5, &rng);
  EXPECT_EQ(batches.size(), 5u);
  std::set<int> seen;
  for (const auto& b : batches) {
    EXPECT_LE(b.size(), 5u);
    for (int i : b) seen.insert(i);
  }
  EXPECT_EQ(seen.size(), 23u);
}

TEST(GeneratorTest, TemplatePhaseOrderAndLengths) {
  SessionTemplate tmpl;
  tmpl.name = "t";
  Phase p1;
  p1.activities = {0};
  p1.weights = {1.0};
  p1.min_len = p1.max_len = 1;
  Phase p2;
  p2.activities = {1, 2};
  p2.weights = {1.0, 1.0};
  p2.min_len = 3;
  p2.max_len = 5;
  tmpl.phases = {p1, p2};
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    Session s = GenerateFromTemplate(tmpl, 0, &rng);
    ASSERT_GE(s.length(), 4);
    ASSERT_LE(s.length(), 6);
    EXPECT_EQ(s.activities[0], 0);
    for (int i = 1; i < s.length(); ++i) {
      EXPECT_TRUE(s.activities[i] == 1 || s.activities[i] == 2);
    }
  }
}

TEST(GeneratorTest, DistractorsInjectOtherActivities) {
  SessionTemplate tmpl;
  Phase p;
  p.activities = {0};
  p.weights = {1.0};
  p.min_len = p.max_len = 20;
  tmpl.phases = {p};
  tmpl.distractor_prob = 0.5;
  tmpl.distractor_pool = {7};
  Rng rng(3);
  Session s = GenerateFromTemplate(tmpl, 0, &rng);
  int distractors = 0;
  for (int a : s.activities) distractors += (a == 7);
  EXPECT_GT(distractors, 2);
  EXPECT_LT(distractors, 18);
}

TEST(NoiseTest, UniformNoiseRateApproximatelyEta) {
  SessionDataset ds;
  for (int i = 0; i < 5000; ++i) {
    LabeledSession ls;
    ls.true_label = i % 2;
    ds.sessions.push_back(ls);
  }
  Rng rng(4);
  ApplyUniformNoise(&ds, 0.3, &rng);
  EXPECT_NEAR(ObservedNoiseRate(ds), 0.3, 0.03);
}

TEST(NoiseTest, ClassDependentRates) {
  SessionDataset ds;
  for (int i = 0; i < 4000; ++i) {
    LabeledSession ls;
    ls.true_label = i < 2000 ? kMalicious : kNormal;
    ds.sessions.push_back(ls);
  }
  Rng rng(5);
  ApplyClassDependentNoise(&ds, 0.3, 0.45, &rng);
  int flipped_mal = 0, flipped_norm = 0;
  for (const auto& s : ds.sessions) {
    if (s.true_label == kMalicious && s.noisy_label == kNormal) ++flipped_mal;
    if (s.true_label == kNormal && s.noisy_label == kMalicious) ++flipped_norm;
  }
  EXPECT_NEAR(flipped_mal / 2000.0, 0.3, 0.04);
  EXPECT_NEAR(flipped_norm / 2000.0, 0.45, 0.04);
}

TEST(NoiseTest, TrueLabelsNeverModified) {
  SessionDataset ds;
  for (int i = 0; i < 100; ++i) {
    LabeledSession ls;
    ls.true_label = i % 2;
    ds.sessions.push_back(ls);
  }
  Rng rng(6);
  ApplyUniformNoise(&ds, 0.45, &rng);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ds.sessions[i].true_label, i % 2);
  }
}

TEST(NoiseTest, NoiseSpecDispatch) {
  SessionDataset ds;
  for (int i = 0; i < 1000; ++i) {
    LabeledSession ls;
    ls.true_label = i % 2;
    ls.noisy_label = 1 - ls.true_label;  // pre-corrupted
    ds.sessions.push_back(ls);
  }
  Rng rng(7);
  NoiseSpec::None().Apply(&ds, &rng);
  EXPECT_DOUBLE_EQ(ObservedNoiseRate(ds), 0.0);
  NoiseSpec::Uniform(0.2).Apply(&ds, &rng);
  EXPECT_NEAR(ObservedNoiseRate(ds), 0.2, 0.05);
  EXPECT_EQ(NoiseSpec::Uniform(0.2).ToString(), "uniform(eta=0.20)");
  EXPECT_NE(NoiseSpec::ClassDependent(0.3, 0.45).ToString().find("0.45"),
            std::string::npos);
}

SessionDataset CleanLabels(int n) {
  SessionDataset ds;
  for (int i = 0; i < n; ++i) {
    LabeledSession ls;
    ls.true_label = i % 2;
    ls.noisy_label = ls.true_label;
    ds.sessions.push_back(ls);
  }
  return ds;
}

// Text that is not a rate, and rates at which a flipped labeling cannot be
// told from its inverse, are typed errors that leave the labels untouched.
TEST(NoiseTest, RejectsOutOfRangeAndMalformedSpecs) {
  for (const char* spec :
       {"uniform:1.5", "uniform:-0.2", "uniform:0.5", "uniform:0.6",
        "classdep:0.7,0.6", "classdep:0.6,0.4", "classdep:-0.1,0.3",
        "classdep:0.2,1.5", "uniform:abc", "uniform:0.3x", "uniform:",
        "classdep:0.3", "classdep:0.3,", "uniform:nan", "gaussian:0.1"}) {
    EXPECT_THROW(NoiseSpec::Parse(spec), std::invalid_argument) << spec;
  }
  SessionDataset ds = CleanLabels(100);
  Rng rng(9);
  for (const NoiseSpec& spec :
       {NoiseSpec::Uniform(1.5), NoiseSpec::Uniform(-0.2),
        NoiseSpec::Uniform(0.5), NoiseSpec::ClassDependent(0.7, 0.6),
        NoiseSpec::ClassDependent(0.6, 0.4),
        NoiseSpec::ClassDependent(1.2, -0.3)}) {
    EXPECT_THROW(spec.Apply(&ds, &rng), std::invalid_argument)
        << spec.ToString();
    EXPECT_DOUBLE_EQ(ObservedNoiseRate(ds), 0.0) << spec.ToString();
  }
}

TEST(NoiseTest, AcceptsRatesUpToTheBoundary) {
  EXPECT_EQ(NoiseSpec::Parse("none").kind, NoiseSpec::Kind::kNone);
  const NoiseSpec zero = NoiseSpec::Parse("uniform:0");
  EXPECT_EQ(zero.kind, NoiseSpec::Kind::kUniform);
  EXPECT_EQ(zero.eta, 0.0);
  EXPECT_EQ(NoiseSpec::Parse("uniform:0.49").eta, 0.49);
  const NoiseSpec classdep = NoiseSpec::Parse("classdep:0.54,0.45");
  EXPECT_EQ(classdep.kind, NoiseSpec::Kind::kClassDependent);
  EXPECT_EQ(classdep.eta10, 0.54);
  EXPECT_EQ(classdep.eta01, 0.45);
  Rng rng(10);
  for (const NoiseSpec& spec : {zero, NoiseSpec::Uniform(0.49), classdep}) {
    SessionDataset ds = CleanLabels(1000);
    EXPECT_NO_THROW(spec.Apply(&ds, &rng)) << spec.ToString();
  }
}

class SimulatorTest : public ::testing::TestWithParam<DatasetKind> {};

TEST_P(SimulatorTest, PaperSplitSizes) {
  Rng rng(8);
  SplitSpec spec = PaperSplit(GetParam()).Scaled(0.02);
  SimulatedData data = MakeDataset(GetParam(), spec, &rng);
  EXPECT_EQ(data.train.CountTrue(kNormal), spec.train_normal);
  EXPECT_EQ(data.train.CountTrue(kMalicious), spec.train_malicious);
  EXPECT_EQ(data.test.CountTrue(kNormal), spec.test_normal);
  EXPECT_EQ(data.test.CountTrue(kMalicious), spec.test_malicious);
  EXPECT_GT(data.train.vocab_size(), 10);
  EXPECT_EQ(data.train.vocab_size(), data.test.vocab_size());
}

TEST_P(SimulatorTest, ActivityIdsWithinVocab) {
  Rng rng(9);
  SimulatedData data =
      MakeDataset(GetParam(), PaperSplit(GetParam()).Scaled(0.01), &rng);
  for (const auto& ds : {data.train, data.test}) {
    for (const auto& ls : ds.sessions) {
      EXPECT_GE(ls.session.length(), 1);
      for (int a : ls.session.activities) {
        EXPECT_GE(a, 0);
        EXPECT_LT(a, ds.vocab_size());
      }
    }
  }
}

TEST_P(SimulatorTest, ClassesShareVocabulary) {
  // Session diversity / overlap: malicious sessions must contain activities
  // that also occur in normal sessions (no single-token separator).
  Rng rng(10);
  SimulatedData data =
      MakeDataset(GetParam(), PaperSplit(GetParam()).Scaled(0.05), &rng);
  std::set<int> normal_acts, malicious_acts;
  for (const auto& ls : data.train.sessions) {
    auto& target = ls.true_label == kNormal ? normal_acts : malicious_acts;
    for (int a : ls.session.activities) target.insert(a);
  }
  std::set<int> overlap;
  for (int a : malicious_acts) {
    if (normal_acts.count(a)) overlap.insert(a);
  }
  EXPECT_GE(overlap.size(), 5u);
}

TEST_P(SimulatorTest, SessionDiversityAcrossProfiles) {
  Rng rng(11);
  SimulatedData data =
      MakeDataset(GetParam(), PaperSplit(GetParam()).Scaled(0.05), &rng);
  std::set<int> normal_profiles, malicious_profiles;
  for (const auto& ls : data.train.sessions) {
    (ls.true_label == kNormal ? normal_profiles : malicious_profiles)
        .insert(ls.session.profile);
  }
  EXPECT_GE(normal_profiles.size(), 3u);
  EXPECT_GE(malicious_profiles.size(), 2u);
}

TEST_P(SimulatorTest, DeterministicForSeed) {
  SplitSpec spec = PaperSplit(GetParam()).Scaled(0.01);
  Rng a(12), b(12);
  SimulatedData da = MakeDataset(GetParam(), spec, &a);
  SimulatedData db = MakeDataset(GetParam(), spec, &b);
  ASSERT_EQ(da.train.size(), db.train.size());
  for (int i = 0; i < da.train.size(); ++i) {
    EXPECT_EQ(da.train.sessions[i].session.activities,
              db.train.sessions[i].session.activities);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, SimulatorTest,
                         ::testing::Values(DatasetKind::kCert,
                                           DatasetKind::kWiki,
                                           DatasetKind::kOpenStack),
                         [](const auto& info) {
                           return DatasetName(info.param) == "CERT"
                                      ? std::string("Cert")
                                  : DatasetName(info.param) == "UMD-Wikipedia"
                                      ? std::string("Wiki")
                                      : std::string("OpenStack");
                         });

TEST(SplitSpecTest, ScaledKeepsFloors) {
  SplitSpec s{10000, 30, 500, 18};
  SplitSpec scaled = s.Scaled(0.001);
  EXPECT_GE(scaled.train_malicious, 6);
  EXPECT_GE(scaled.train_normal, 20);
  EXPECT_EQ(s.Scaled(1.0).train_normal, 10000);
}

}  // namespace
}  // namespace clfd
