#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "core/clfd.h"
#include "core/label_corrector.h"
#include "eval/experiment.h"
#include "metrics/metrics.h"
#include "obs/prof.h"
#include "parallel/thread_pool.h"

namespace clfd {
namespace {

ClfdConfig TinyConfig() {
  ClfdConfig config = ClfdConfig::Fast();
  config.emb_dim = 12;
  config.hidden_dim = 12;
  config.batch_size = 24;
  config.aux_batch_size = 4;
  config.budget = {2, 30, 2};
  return config;
}

TEST(ExperimentContextTest, BuildsConsistentWorld) {
  SplitSpec split{60, 6, 30, 6};
  ExperimentContext ctx(DatasetKind::kWiki, split, NoiseSpec::Uniform(0.3),
                        12, 5);
  EXPECT_EQ(ctx.train().size(), 66);
  EXPECT_EQ(ctx.test().size(), 36);
  EXPECT_EQ(ctx.embeddings().rows(), ctx.train().vocab_size());
  EXPECT_EQ(ctx.embeddings().cols(), 12);
  EXPECT_GT(ObservedNoiseRate(ctx.train()), 0.1);
  // Test labels are never corrupted.
  EXPECT_DOUBLE_EQ(ObservedNoiseRate(ctx.test()), 0.0);
}

TEST(ExperimentContextTest, DeterministicPerSeed) {
  SplitSpec split{40, 6, 20, 6};
  ExperimentContext a(DatasetKind::kCert, split, NoiseSpec::Uniform(0.2), 8,
                      9);
  ExperimentContext b(DatasetKind::kCert, split, NoiseSpec::Uniform(0.2), 8,
                      9);
  EXPECT_LT(MaxAbsDiff(a.embeddings(), b.embeddings()), 1e-7f);
  for (int i = 0; i < a.train().size(); ++i) {
    EXPECT_EQ(a.train().sessions[i].noisy_label,
              b.train().sessions[i].noisy_label);
  }
}

TEST(RunSweepTest, AggregatesAcrossSeeds) {
  SplitSpec split{60, 6, 30, 6};
  std::vector<CellResult> results =
      RunSweep({{"CLDet", "CLDet", TinyConfig(), DatasetKind::kWiki, split,
                 NoiseSpec::Uniform(0.1)}},
               /*seeds=*/2);
  ASSERT_EQ(results.size(), 1u);
  const AggregatedMetrics& m = results[0].metrics;
  EXPECT_EQ(m.f1.count(), 2);
  EXPECT_EQ(m.auc.count(), 2);
  EXPECT_GE(m.auc.mean(), 0.0);
  EXPECT_LE(m.auc.mean(), 100.0);
  EXPECT_GT(m.train_seconds.mean(), 0.0);
  ASSERT_EQ(results[0].seeds.size(), 2u);
  EXPECT_EQ(results[0].seeds[1].run.auc, m.auc.values()[1]);
}

TEST(TrainAndEvaluateTest, ScoresTheTestSplitOnce) {
  // F1, FPR and AUC must read one scoring of the test split: a model whose
  // scoring is random (LogBert draws its masks per call) would otherwise
  // get its labels and its AUC from two different scorings.
  struct CountingModel : DetectorModel {
    mutable int score_calls = 0;
    void Train(const SessionDataset&, const Matrix&) override {}
    std::vector<double> Score(const SessionDataset& d) const override {
      ++score_calls;
      std::vector<double> s(d.size());
      for (int i = 0; i < d.size(); ++i) s[i] = (i % 3) / 2.0;
      return s;
    }
  };
  ExperimentContext context(DatasetKind::kWiki, SplitSpec{20, 4, 10, 4},
                            NoiseSpec::Uniform(0.1), 8, 3);
  CountingModel model;
  TrainAndEvaluate(&model, context);
  EXPECT_EQ(model.score_calls, 1);
}

TEST(RunSweepTest, RejectsBadSweepsBeforeAnyWork) {
  SplitSpec split{60, 6, 30, 6};
  SweepCell cell{"a", "CLDet", TinyConfig(), DatasetKind::kWiki, split,
                 NoiseSpec::Uniform(0.1)};
  EXPECT_THROW(RunSweep({cell}, 0), std::invalid_argument);
  EXPECT_THROW(RunSweep({cell}, -1), std::invalid_argument);
  SweepCell twin = cell;
  twin.model = "DeepLog";
  EXPECT_THROW(RunSweep({cell, twin}, 1), std::invalid_argument);
  EXPECT_TRUE(RunSweep({}, 1).empty());
}

// FNV-1a over the low `bytes` bytes of `v`, byte order fixed, as
// KernelFingerprint (kernel_backend_test.cc) hashes float bits.
void MixInto(uint64_t v, int bytes, uint64_t* h) {
  for (int byte = 0; byte < bytes; ++byte) {
    *h ^= (v >> (8 * byte)) & 0xffu;
    *h *= 1099511628211ull;
  }
}

void MixDouble(double d, uint64_t* h) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  MixInto(bits, 8, h);
}

// Everything a run decides: the RunMetrics bits, every test-session score
// and the corrector's label and confidence for every training session.
// Correction fields are mixed one at a time so struct padding stays out.
uint64_t RunFingerprint(const ClfdModel& model,
                        const ExperimentContext& context,
                        const RunMetrics& run) {
  uint64_t h = 14695981039346656037ull;
  MixDouble(run.f1, &h);
  MixDouble(run.fpr, &h);
  MixDouble(run.auc, &h);
  for (double score : model.Score(context.test())) MixDouble(score, &h);
  for (const Correction& c : model.CorrectLabels(context.train())) {
    MixInto(static_cast<uint32_t>(c.label), 4, &h);
    MixDouble(c.confidence, &h);
  }
  return h;
}

TEST(ThreadInvarianceTest, RunFingerprintMatchesCommittedHash) {
  // The full CLFD pipeline — SimCLR pretrain, corrector, SupCon detector,
  // classifier, all stepping through execution plans on arena-backed
  // tapes — must produce the same bits at every thread width. F1 and AUC
  // alone saturate at 100 on this tiny config, so the hash also covers
  // every score and every corrected label. The committed value was
  // generated at the commit before the plan/arena/fused-LSTM switches
  // were removed, where each switch off (and all three off) gave the same
  // value, as did the scalar kernel bodies. A change to it is a
  // deliberate, reviewed event: the failure message prints the new value.
  constexpr uint64_t kExpected = 0x14285d8585513b82ull;
  SplitSpec split{40, 6, 20, 4};
  ClfdConfig config = TinyConfig();
  for (int width : {1, 2, 4}) {
    parallel::SetGlobalThreads(width);
    ExperimentContext context(DatasetKind::kWiki, split,
                              NoiseSpec::Uniform(0.3), config.emb_dim, 21);
    ClfdModel model(config, 21);
    RunMetrics run = TrainAndEvaluate(&model, context);
    const uint64_t got = RunFingerprint(model, context, run);
    EXPECT_EQ(got, kExpected)
        << "threads=" << width << ": got 0x" << std::hex << got;
  }
  parallel::SetGlobalThreads(0);
}

// The run a sweep's (cell, seed) job must reproduce, on a freshly built
// world: TPR/TNR of the corrected training labels for a corrector cell,
// the model's RunMetrics otherwise.
SeedResult FreshRun(const SweepCell& cell, uint64_t seed) {
  ExperimentContext context(cell.dataset, cell.split, cell.noise,
                            cell.config.emb_dim, seed);
  SeedResult result;
  if (cell.model == kLabelCorrector) {
    LabelCorrector corrector(cell.config, seed * 31 + 7);
    corrector.Train(context.train(), context.embeddings());
    std::vector<int> preds;
    for (const Correction& c : corrector.Correct(context.train())) {
      preds.push_back(c.label);
    }
    ConfusionCounts counts = Confusion(preds, TrueLabels(context.train()));
    result.tpr = TruePositiveRate(counts);
    result.tnr = TrueNegativeRate(counts);
  } else {
    auto model = MakeModel(cell.model, cell.config, seed * 31 + 7);
    result.run = TrainAndEvaluate(model.get(), context);
  }
  return result;
}

TEST(ThreadInvarianceTest, SweepMatchesFreshContextsAtEveryWidth) {
  // Cells that share a world, a cell on a second world and a corrector
  // cell, run as concurrent (cell, seed) jobs: every per-seed metric must
  // equal, bit for bit, the same run on its own freshly built context.
  SplitSpec split{40, 6, 20, 4};
  ClfdConfig config = TinyConfig();
  const std::vector<SweepCell> cells = {
      {"CLFD", "CLFD", config, DatasetKind::kWiki, split,
       NoiseSpec::Uniform(0.3)},
      {"CLDet", "CLDet", config, DatasetKind::kWiki, split,
       NoiseSpec::Uniform(0.3)},
      {"CLFD classdep", "CLFD", config, DatasetKind::kWiki, split,
       NoiseSpec::ClassDependent(0.3, 0.45)},
      {"corrector", kLabelCorrector, config, DatasetKind::kWiki, split,
       NoiseSpec::Uniform(0.3)}};
  constexpr int kSeeds = 2;
  std::vector<std::vector<SeedResult>> fresh(cells.size());
  for (size_t c = 0; c < cells.size(); ++c) {
    for (int s = 0; s < kSeeds; ++s) {
      fresh[c].push_back(FreshRun(cells[c], kBaseSeed + s));
    }
  }
  for (int width : {1, 2, 4}) {
    parallel::SetGlobalThreads(width);
    std::vector<CellResult> results = RunSweep(cells, kSeeds);
    ASSERT_EQ(results.size(), cells.size());
    for (size_t c = 0; c < cells.size(); ++c) {
      ASSERT_EQ(results[c].seeds.size(), static_cast<size_t>(kSeeds));
      for (int s = 0; s < kSeeds; ++s) {
        SCOPED_TRACE(cells[c].label + " seed " + std::to_string(s) +
                     " threads=" + std::to_string(width));
        const SeedResult& got = results[c].seeds[s];
        const SeedResult& want = fresh[c][s];
        EXPECT_EQ(got.run.f1, want.run.f1);
        EXPECT_EQ(got.run.fpr, want.run.fpr);
        EXPECT_EQ(got.run.auc, want.run.auc);
        EXPECT_EQ(got.tpr, want.tpr);
        EXPECT_EQ(got.tnr, want.tnr);
      }
    }
    // The aggregates hold the per-seed values in seed order.
    EXPECT_EQ(results[0].metrics.auc.values(),
              (std::vector<double>{fresh[0][0].run.auc, fresh[0][1].run.auc}));
    EXPECT_EQ(results[3].tpr.values(),
              (std::vector<double>{fresh[3][0].tpr, fresh[3][1].tpr}));
    // Phase accounting stays per-run while runs train concurrently: a
    // run's breakdown never exceeds its own wall-clock.
    for (size_t c : {size_t{0}, size_t{2}}) {
      for (const SeedResult& seed : results[c].seeds) {
        EXPECT_GT(seed.run.phases.TotalSeconds(), 0.0);
        EXPECT_LE(seed.run.phases.TotalSeconds(),
                  seed.run.train_seconds * 1.001);
      }
    }
  }
  parallel::SetGlobalThreads(0);
}

TEST(RunSweepTest, CorrectorCellProducesTprTnr) {
  SplitSpec split{60, 8, 30, 6};
  std::vector<CellResult> results =
      RunSweep({{"corrector", kLabelCorrector, TinyConfig(),
                 DatasetKind::kCert, split, NoiseSpec::Uniform(0.3)}},
               2);
  const CellResult& m = results[0];
  EXPECT_EQ(m.tpr.count(), 2);
  EXPECT_GE(m.tnr.mean(), 0.0);
  EXPECT_LE(m.tnr.mean(), 100.0);
  // On mostly-normal data the corrector should label most normals normal.
  EXPECT_GT(m.tnr.mean(), 50.0);
}

TEST(TrainAndEvaluateTest, PhaseTimingsSumToTrainSeconds) {
  SplitSpec split{60, 8, 30, 6};
  ClfdConfig config = TinyConfig();
  ExperimentContext context(DatasetKind::kCert, split,
                            NoiseSpec::Uniform(0.2), config.emb_dim, 11);
  // The phase spans feed the run's capture whether or not the profiler
  // builds its tree.
  for (bool profiler : {true, false}) {
    SCOPED_TRACE(profiler ? "profiler on" : "profiler off");
    obs::prof::ScopedEnabled prof(profiler);
    obs::prof::Reset();
    ClfdModel model(config, 11);
    RunMetrics m = TrainAndEvaluate(&model, context);

    // The full CLFD pipeline runs all four phases...
    EXPECT_GT(m.phases.pretrain_seconds, 0.0);
    EXPECT_GT(m.phases.corrector_seconds, 0.0);
    EXPECT_GT(m.phases.detector_seconds, 0.0);
    EXPECT_GT(m.phases.classifier_seconds, 0.0);
    // ...the phases partition Train() up to glue code (correction
    // inference between phases), so their sum approximates the total
    // without ever exceeding it.
    EXPECT_LE(m.phases.TotalSeconds(), m.train_seconds * 1.001);
    EXPECT_GE(m.phases.TotalSeconds(), m.train_seconds * 0.5);
    if (!profiler) {
      EXPECT_TRUE(obs::prof::Snapshot().children.empty());
    }
  }
}

TEST(TrainAndEvaluateTest, PhaseBreakdownIsPerRun) {
  // Each run reads its breakdown from its own capture, never totals that
  // include earlier runs in the same process.
  SplitSpec split{40, 6, 20, 4};
  ClfdConfig config = TinyConfig();
  ExperimentContext context(DatasetKind::kWiki, split,
                            NoiseSpec::Uniform(0.2), config.emb_dim, 13);
  ClfdModel first(config, 13);
  RunMetrics a = TrainAndEvaluate(&first, context);
  ClfdModel second(config, 14);
  RunMetrics b = TrainAndEvaluate(&second, context);
  // Same work twice: the second run's breakdown must be of the same order,
  // not the cumulative double.
  EXPECT_LT(b.phases.TotalSeconds(), 2.0 * a.phases.TotalSeconds());
  EXPECT_LE(b.phases.TotalSeconds(), b.train_seconds * 1.001);
}

TEST(BenchScaleTest, EnvOverrides) {
  unsetenv("CLFD_SCALE");
  unsetenv("CLFD_SEEDS");
  unsetenv("CLFD_EPOCH_SCALE");
  BenchScale def = ReadBenchScale(0.05, 3, 0.5);
  EXPECT_DOUBLE_EQ(def.split_scale, 0.05);
  EXPECT_EQ(def.seeds, 3);
  setenv("CLFD_SCALE", "1.0", 1);
  setenv("CLFD_SEEDS", "5", 1);
  setenv("CLFD_EPOCH_SCALE", "1.0", 1);
  BenchScale full = ReadBenchScale(0.05, 3, 0.5);
  EXPECT_DOUBLE_EQ(full.split_scale, 1.0);
  EXPECT_EQ(full.seeds, 5);
  EXPECT_DOUBLE_EQ(full.epoch_scale, 1.0);
  unsetenv("CLFD_SCALE");
  unsetenv("CLFD_SEEDS");
  unsetenv("CLFD_EPOCH_SCALE");
}

TEST(MakeScaledSetupTest, ShrinksBatchWithSplit) {
  BenchScale scale{0.01, 2, 0.3};
  ScaledSetup setup = MakeScaledSetup(DatasetKind::kCert, scale);
  EXPECT_LT(setup.split.train_normal, 10000);
  EXPECT_GE(setup.split.train_malicious, 6);
  EXPECT_LE(setup.config.batch_size, 100);
  EXPECT_GE(setup.config.batch_size, 20);
  EXPECT_LE(setup.config.aux_batch_size, setup.config.batch_size / 2);
  EXPECT_GE(setup.config.budget.classifier_epochs, 1);

  BenchScale full{1.0, 5, 1.0};
  ScaledSetup paper = MakeScaledSetup(DatasetKind::kCert, full);
  EXPECT_EQ(paper.split.train_normal, 10000);
  EXPECT_EQ(paper.config.batch_size, 100);
  EXPECT_EQ(paper.config.budget.classifier_epochs, 500);
}

}  // namespace
}  // namespace clfd
