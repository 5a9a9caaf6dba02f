#include "eval/experiment.h"

#include <cassert>
#include <cctype>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "baselines/registry.h"
#include "common/env.h"
#include "core/label_corrector.h"
#include "embedding/word2vec.h"
#include "metrics/metrics.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace clfd {

namespace {

// Wall-clock reads here time *reporting* fields (RunMetrics.*_seconds);
// they never feed model math, so run-to-run timing jitter cannot move a
// single table number. Timestamps come from the obs clock (UptimeMicros)
// rather than raw std::chrono, keeping all timing behind one seam.
double SecondsSince(int64_t start_us) {
  return static_cast<double>(obs::UptimeMicros() - start_us) / 1e6;
}

// A file-safe, injective form of (label, seed): every byte of the label
// outside [A-Za-z0-9._-] becomes %XX, and the seed follows the last '.'.
// It names the run's checkpoint file and its results-store entry.
std::string RunStem(const std::string& label, uint64_t seed) {
  std::string stem;
  for (unsigned char c : label) {
    if (std::isalnum(c) || c == '.' || c == '_' || c == '-') {
      stem += static_cast<char>(c);
    } else {
      char escaped[4];
      std::snprintf(escaped, sizeof(escaped), "%%%02X", c);
      stem += escaped;
    }
  }
  return stem + "." + std::to_string(seed);
}

// Finished runs, one section per run stem in a checkpoint container at
// <dir>/results.ckpt. Lookups happen before the jobs start; workers save
// under a mutex.
class ResultsStore {
 public:
  explicit ResultsStore(const recovery::RecoveryOptions& options) {
    if (!options.enabled()) return;
    recovery::EnsureDirs(options.dir);
    path_ = options.dir + "/results.ckpt";
    // Absent or unusable: start empty; the first Save rewrites it.
    if (options.resume) {
      ckpt_ = recovery::LoadCheckpointWithFallback(path_).value_or(
          recovery::Checkpoint());
    }
  }

  bool TryLoad(const std::string& stem, SeedResult* out) const {
    if (path_.empty() || !ckpt_.HasSection(stem)) return false;
    recovery::ByteReader r(ckpt_.Section(stem));
    for (double* field : Fields(out)) *field = r.GetF64();
    CLFD_METRIC_COUNT("recovery.run.seeds_skipped", 1);
    return true;
  }

  void Save(const std::string& stem, SeedResult result) {
    if (path_.empty()) return;
    recovery::ByteWriter w;
    for (double* field : Fields(&result)) w.PutF64(*field);
    std::lock_guard<std::mutex> lock(mu_);
    ckpt_.SetSection(stem, w.Take());
    try {
      recovery::WriteFileAtomic(path_, ckpt_.Encode());
    } catch (const recovery::CheckpointError& e) {
      CLFD_METRIC_COUNT("recovery.ckpt.save_failures", 1);
      CLFD_LOG(WARN) << "results store save failed; continuing"
                     << obs::Kv("path", path_) << obs::Kv("error", e.what());
    }
  }

 private:
  // The stored fields, in wire order.
  static std::vector<double*> Fields(SeedResult* r) {
    RunMetrics& m = r->run;
    return {&m.f1, &m.fpr, &m.auc, &m.train_seconds,
            &m.phases.pretrain_seconds, &m.phases.corrector_seconds,
            &m.phases.detector_seconds, &m.phases.classifier_seconds,
            &r->tpr, &r->tnr};
  }

  std::string path_;
  recovery::Checkpoint ckpt_;
  std::mutex mu_;
};

// A corrector cell's run: trains only the label corrector and scores its
// corrected labels against the true labels of the training split.
SeedResult RunCorrector(const ClfdConfig& config, uint64_t seed,
                        const ExperimentContext& world,
                        recovery::RunCheckpointer* rc) {
  // The run's top-level profiler node: tests/prof_test.cc checks that the
  // scopes below it account for >= 95% of its wall-time.
  CLFD_PROF_SCOPE("corrector_run");
  LabelCorrector corrector(config, seed * 31 + 7);
  if (rc != nullptr) {
    corrector.RegisterState(rc);
    if (rc->LoadSnapshot()) rc->RestoreRegistered();
  }
  corrector.Train(world.train(), world.embeddings(), rc);
  if (rc != nullptr) rc->MarkTrainingComplete();
  std::vector<int> preds;
  for (const Correction& c : corrector.Correct(world.train())) {
    preds.push_back(c.label);
  }
  const ConfusionCounts counts = Confusion(preds, TrueLabels(world.train()));
  return {RunMetrics(), TruePositiveRate(counts), TrueNegativeRate(counts)};
}

// Everything ExperimentContext reads, ordered so that world lookup does
// not depend on hash order.
using WorldKey =
    std::tuple<DatasetKind, int, int, int, int, NoiseSpec::Kind, double,
               double, double, int, uint64_t>;

WorldKey WorldOf(const SweepCell& cell, uint64_t seed) {
  const SplitSpec& s = cell.split;
  const NoiseSpec& n = cell.noise;
  return {cell.dataset, s.train_normal, s.train_malicious, s.test_normal,
          s.test_malicious, n.kind, n.eta, n.eta10, n.eta01,
          cell.config.emb_dim, seed};
}

}  // namespace

ExperimentContext::ExperimentContext(DatasetKind kind, const SplitSpec& split,
                                     const NoiseSpec& noise, int emb_dim,
                                     uint64_t seed)
    : seed_(seed) {
  CLFD_PROF_SCOPE("data.prepare");
  Rng rng(seed * 7919 + 17);
  data_ = MakeDataset(kind, split, &rng);
  noise.Apply(&data_.train, &rng);
  embeddings_ = TrainActivityEmbeddings(data_.train, emb_dim, &rng);
}

RunMetrics TrainAndEvaluate(DetectorModel* model,
                            const ExperimentContext& context,
                            recovery::RunCheckpointer* rc) {
  RunMetrics metrics;
  const int64_t start_us = obs::UptimeMicros();
  {
    // Per-run, per-thread phase accounting: the phase spans in core/ report
    // into this capture, so runs executing concurrently on different seed
    // workers never see each other's time.
    obs::PhaseCapture capture;
    {
      CLFD_PROF_SPAN("train");
      model->TrainWithRecovery(context.train(), context.embeddings(), rc);
    }
    metrics.train_seconds = SecondsSince(start_us);
    metrics.phases.pretrain_seconds = capture.Micros("pretrain") / 1e6;
    metrics.phases.corrector_seconds = capture.Micros("corrector") / 1e6;
    metrics.phases.detector_seconds = capture.Micros("detector") / 1e6;
    metrics.phases.classifier_seconds = capture.Micros("classifier") / 1e6;
  }
  CLFD_LOG(INFO) << "run trained" << obs::Kv("seed", context.seed())
                 << obs::Kv("train_s", metrics.train_seconds)
                 << obs::Kv("pretrain_s", metrics.phases.pretrain_seconds)
                 << obs::Kv("corrector_s", metrics.phases.corrector_seconds)
                 << obs::Kv("detector_s", metrics.phases.detector_seconds)
                 << obs::Kv("classifier_s",
                            metrics.phases.classifier_seconds);

  CLFD_PROF_SPAN("evaluate");
  std::vector<int> truths = TrueLabels(context.test());
  std::vector<double> scores = model->Score(context.test());
  ConfusionCounts counts = Confusion(model->Predict(scores), truths);
  metrics.f1 = F1Score(counts);
  metrics.fpr = FalsePositiveRate(counts);
  metrics.auc = AucRoc(scores, truths);
  return metrics;
}

std::vector<CellResult> RunSweep(const std::vector<SweepCell>& cells,
                                 int seeds,
                                 const recovery::RecoveryOptions& recovery) {
  if (seeds < 1) {
    throw std::invalid_argument("RunSweep: seeds must be >= 1, got " +
                                std::to_string(seeds));
  }
  std::set<std::string> labels;
  for (const SweepCell& cell : cells) {
    if (!labels.insert(cell.label).second) {
      throw std::invalid_argument("RunSweep: duplicate cell label '" +
                                  cell.label + "'");
    }
  }

  // Job j runs cell j / seeds at seed kBaseSeed + j % seeds. Stored runs
  // are done; each world a pending job needs is built once.
  const int64_t num_jobs = static_cast<int64_t>(cells.size()) * seeds;
  auto seed_of = [seeds](int64_t job) {
    return kBaseSeed + static_cast<uint64_t>(job % seeds);
  };
  ResultsStore store(recovery);
  std::vector<SeedResult> slots(num_jobs);
  std::vector<std::pair<int64_t, size_t>> pending;  // (job, world)
  std::vector<int64_t> world_first_job;
  std::map<WorldKey, size_t> world_index;
  for (int64_t job = 0; job < num_jobs; ++job) {
    const SweepCell& cell = cells[job / seeds];
    if (store.TryLoad(RunStem(cell.label, seed_of(job)), &slots[job])) {
      continue;
    }
    auto [it, added] = world_index.emplace(WorldOf(cell, seed_of(job)),
                                           world_first_job.size());
    if (added) world_first_job.push_back(job);
    pending.emplace_back(job, it->second);
  }

  // Worlds are built before any job runs and then only read: cells that
  // share one train on it concurrently.
  const int64_t num_worlds = static_cast<int64_t>(world_first_job.size());
  std::vector<std::optional<ExperimentContext>> worlds(num_worlds);
  parallel::ParallelFor(0, num_worlds, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t w = lo; w < hi; ++w) {
      const int64_t job = world_first_job[w];
      const SweepCell& cell = cells[job / seeds];
      worlds[w].emplace(cell.dataset, cell.split, cell.noise,
                        cell.config.emb_dim, seed_of(job));
    }
  });

  // One job per pending (cell, seed) pair, each writing its own slot.
  const int64_t num_pending = static_cast<int64_t>(pending.size());
  parallel::ParallelFor(0, num_pending, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t p = lo; p < hi; ++p) {
      const auto [job, w] = pending[p];
      const SweepCell& cell = cells[job / seeds];
      const uint64_t seed = seed_of(job);
      const ExperimentContext& world = *worlds[w];
      const std::string stem = RunStem(cell.label, seed);
      recovery::RunWithRecovery(
          recovery, stem, [&](recovery::RunCheckpointer* rc) {
            if (cell.model == kLabelCorrector) {
              slots[job] = RunCorrector(cell.config, seed, world, rc);
              return;
            }
            auto model = MakeModel(cell.model, cell.config, seed * 31 + 7);
            assert(model != nullptr);
            slots[job].run = TrainAndEvaluate(model.get(), world, rc);
          });
      store.Save(stem, slots[job]);
    }
  });

  // Aggregation walks each cell's slots in seed order: MeanStd is
  // order-sensitive, so the aggregate is the same at any thread count.
  std::vector<CellResult> results(cells.size());
  for (int64_t job = 0; job < num_jobs; ++job) {
    CellResult& result = results[job / seeds];
    result.seeds.push_back(slots[job]);
    result.metrics.Add(slots[job].run);
    result.tpr.Add(slots[job].tpr);
    result.tnr.Add(slots[job].tnr);
  }
  return results;
}

BenchScale ReadBenchScale(double def_scale, int def_seeds,
                          double def_epoch_scale) {
  BenchScale scale;
  scale.split_scale = GetEnvFraction("CLFD_SCALE", def_scale);
  scale.seeds = GetEnvPositiveInt("CLFD_SEEDS", def_seeds);
  scale.epoch_scale = GetEnvFraction("CLFD_EPOCH_SCALE", def_epoch_scale);
  return scale;
}

ScaledSetup MakeScaledSetup(DatasetKind kind, const BenchScale& scale) {
  ScaledSetup setup;
  setup.split = PaperSplit(kind).Scaled(scale.split_scale);
  setup.config = ClfdConfig();
  setup.config.budget = TrainingBudget::Scaled(scale.epoch_scale);
  // Keep several batches per epoch at reduced scale.
  int train_size = setup.split.train_normal + setup.split.train_malicious;
  if (train_size < 4 * setup.config.batch_size) {
    setup.config.batch_size = std::max(20, train_size / 4);
  }
  if (setup.config.aux_batch_size > setup.config.batch_size / 2) {
    setup.config.aux_batch_size = std::max(4, setup.config.batch_size / 5);
  }
  return setup;
}

}  // namespace clfd
