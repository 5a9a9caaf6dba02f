#include "eval/experiment.h"

#include <cassert>
#include <mutex>

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

// Persists completed per-seed results so a restarted experiment re-trains
// only the interrupted seed. Sections are "seed.<seed>" in a checkpoint
// container at <dir>/results.ckpt; seed workers touch it under a mutex.
class ResultsStore {
 public:
  ResultsStore(const std::string& dir, bool resume) {
    if (dir.empty()) return;
    recovery::EnsureDirs(dir);
    path_ = dir + "/results.ckpt";
    if (!resume) return;
    try {
      ckpt_ = recovery::LoadCheckpoint(path_);
    } catch (const recovery::CheckpointError&) {
      // Absent or invalid: start with an empty store; the first Save
      // rewrites it atomically.
      ckpt_ = recovery::Checkpoint();
    }
  }

  bool TryLoad(uint64_t seed, RunMetrics* out) {
    if (path_.empty()) return false;
    std::lock_guard<std::mutex> lock(mu_);
    const std::string name = "seed." + std::to_string(seed);
    if (!ckpt_.HasSection(name)) return false;
    recovery::ByteReader r(ckpt_.Section(name));
    out->f1 = r.GetF64();
    out->fpr = r.GetF64();
    out->auc = r.GetF64();
    out->train_seconds = r.GetF64();
    out->phases.pretrain_seconds = r.GetF64();
    out->phases.corrector_seconds = r.GetF64();
    out->phases.detector_seconds = r.GetF64();
    out->phases.classifier_seconds = r.GetF64();
    CLFD_METRIC_COUNT("recovery.run.seeds_skipped", 1);
    return true;
  }

  void Save(uint64_t seed, const RunMetrics& m) {
    if (path_.empty()) return;
    recovery::ByteWriter w;
    w.PutF64(m.f1);
    w.PutF64(m.fpr);
    w.PutF64(m.auc);
    w.PutF64(m.train_seconds);
    w.PutF64(m.phases.pretrain_seconds);
    w.PutF64(m.phases.corrector_seconds);
    w.PutF64(m.phases.detector_seconds);
    w.PutF64(m.phases.classifier_seconds);
    std::lock_guard<std::mutex> lock(mu_);
    ckpt_.SetSection("seed." + std::to_string(seed), w.Take());
    try {
      recovery::WriteFileAtomic(path_, ckpt_.Encode());
    } catch (const recovery::CheckpointError& e) {
      CLFD_METRIC_COUNT("recovery.ckpt.save_failures", 1);
      CLFD_LOG(WARN) << "results store save failed; continuing"
                     << obs::Kv("path", path_) << obs::Kv("error", e.what());
    }
  }

 private:
  std::string path_;
  recovery::Checkpoint ckpt_;
  std::mutex mu_;
};

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
  std::vector<int> preds = model->Predict(context.test());
  ConfusionCounts counts = Confusion(preds, truths);
  metrics.f1 = F1Score(counts);
  metrics.fpr = FalsePositiveRate(counts);
  metrics.auc = AucRoc(scores, truths);
  return metrics;
}

AggregatedMetrics RunExperimentWithFactory(
    const std::function<std::unique_ptr<DetectorModel>(uint64_t seed)>&
        factory,
    DatasetKind kind, const SplitSpec& split, const NoiseSpec& noise,
    int emb_dim, int seeds, uint64_t base_seed,
    const recovery::RecoveryOptions& recovery) {
  // Seeds are embarrassingly parallel: each builds its world and model from
  // its own seed-derived Rngs, so runs share no mutable state. Workers
  // write into per-seed slots; aggregation then walks the slots in seed
  // order (MeanStd accumulation is order-sensitive and not thread-safe),
  // making the aggregate identical at any thread count. Under a recovery
  // dir, each seed trains with its own checkpoint file (seed_<seed>.ckpt)
  // and finished seeds are served from the results store on restart.
  ResultsStore store(recovery.dir, recovery.resume);
  std::vector<RunMetrics> results(seeds);
  parallel::ParallelFor(0, seeds, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      uint64_t seed = base_seed + static_cast<uint64_t>(s);
      if (store.TryLoad(seed, &results[s])) continue;
      ExperimentContext context(kind, split, noise, emb_dim, seed);
      recovery::RunWithRecovery(
          recovery, "seed_" + std::to_string(seed),
          [&](recovery::RunCheckpointer* rc) {
            auto model = factory(seed * 31 + 7);
            assert(model != nullptr);
            results[s] = TrainAndEvaluate(model.get(), context, rc);
          });
      store.Save(seed, results[s]);
    }
  });
  AggregatedMetrics aggregated;
  for (const RunMetrics& m : results) aggregated.Add(m);
  return aggregated;
}

AggregatedMetrics RunExperiment(const std::string& model_name,
                                DatasetKind kind, const SplitSpec& split,
                                const NoiseSpec& noise,
                                const ClfdConfig& config, int seeds,
                                uint64_t base_seed,
                                const recovery::RecoveryOptions& recovery) {
  return RunExperimentWithFactory(
      [&](uint64_t seed) { return MakeModel(model_name, config, seed); },
      kind, split, noise, config.emb_dim, seeds, base_seed, recovery);
}

CorrectorMetrics RunCorrectorExperiment(
    DatasetKind kind, const SplitSpec& split, const NoiseSpec& noise,
    const ClfdConfig& config, int seeds, uint64_t base_seed,
    const recovery::RecoveryOptions& recovery) {
  // Same seed-parallel pattern as RunExperimentWithFactory: per-seed slots,
  // ordered aggregation.
  std::vector<ConfusionCounts> counts(seeds);
  parallel::ParallelFor(0, seeds, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      uint64_t seed = base_seed + static_cast<uint64_t>(s);
      ExperimentContext context(kind, split, noise, config.emb_dim, seed);
      recovery::RunWithRecovery(
          recovery, "corrector_seed_" + std::to_string(seed),
          [&](recovery::RunCheckpointer* rc) {
            // Top-level profiler node for the run: the ≥95%-attribution
            // check in tests/prof_test.cc measures how much of this scope's
            // wall-time the phase/op scopes below account for.
            CLFD_PROF_SCOPE("corrector_run");
            LabelCorrector corrector(config, seed * 31 + 7);
            if (rc != nullptr) {
              corrector.RegisterState(rc);
              if (rc->LoadSnapshot()) rc->RestoreRegistered();
            }
            corrector.Train(context.train(), context.embeddings(), rc);
            if (rc != nullptr) rc->MarkTrainingComplete();
            auto corrections = corrector.Correct(context.train());

            std::vector<int> preds(corrections.size());
            for (size_t i = 0; i < corrections.size(); ++i) {
              preds[i] = corrections[i].label;
            }
            counts[s] = Confusion(preds, TrueLabels(context.train()));
          });
    }
  });
  CorrectorMetrics metrics;
  for (const ConfusionCounts& c : counts) {
    metrics.tpr.Add(TruePositiveRate(c));
    metrics.tnr.Add(TrueNegativeRate(c));
  }
  return metrics;
}

BenchScale ReadBenchScale(double def_scale, int def_seeds,
                          double def_epoch_scale) {
  BenchScale scale;
  scale.split_scale = GetEnvDouble("CLFD_SCALE", def_scale);
  scale.seeds = GetEnvInt("CLFD_SEEDS", def_seeds);
  scale.epoch_scale = GetEnvDouble("CLFD_EPOCH_SCALE", def_epoch_scale);
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
