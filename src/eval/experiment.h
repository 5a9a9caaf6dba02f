#pragma once

#include <string>
#include <vector>

#include "common/stats.h"
#include "core/config.h"
#include "core/detector.h"
#include "data/noise.h"
#include "data/simulators.h"
#include "recovery/run_checkpointer.h"

namespace clfd {

// Where the training wall-clock of one run went, in seconds. Fed by the
// four phase spans in core/ through the run's obs::PhaseCapture, with or
// without the profiler: SimCLR pre-training, corrector classifier, SupCon
// detector pre-training and the final FCNN classifier. Baselines without
// phase spans report all zeros.
struct PhaseBreakdown {
  double pretrain_seconds = 0.0;    // corrector SimCLR pre-training
  double corrector_seconds = 0.0;   // corrector classifier (mixup-GCE)
  double detector_seconds = 0.0;    // detector SupCon pre-training (L_Sup)
  double classifier_seconds = 0.0;  // detector FCNN classifier
  double TotalSeconds() const {
    return pretrain_seconds + corrector_seconds + detector_seconds +
           classifier_seconds;
  }
};

// Per-run detection metrics on the paper's 0-100 scale.
struct RunMetrics {
  double f1 = 0.0;
  double fpr = 0.0;
  double auc = 0.0;
  double train_seconds = 0.0;
  PhaseBreakdown phases;
};

// mean +/- std over seeds.
struct AggregatedMetrics {
  MeanStd f1;
  MeanStd fpr;
  MeanStd auc;
  MeanStd train_seconds;

  void Add(const RunMetrics& m) {
    f1.Add(m.f1);
    fpr.Add(m.fpr);
    auc.Add(m.auc);
    train_seconds.Add(m.train_seconds);
  }
};

// One fully materialized experiment world: a simulated dataset with noise
// injected into the training labels, plus word2vec activity embeddings
// trained on the noisy training split. RunSweep builds each distinct world
// once and trains every model of a (dataset, noise, seed) on it, as in the
// paper's protocol ("we employ the same training set ... to train all
// baselines").
class ExperimentContext {
 public:
  ExperimentContext(DatasetKind kind, const SplitSpec& split,
                    const NoiseSpec& noise, int emb_dim, uint64_t seed);

  const SessionDataset& train() const { return data_.train; }
  const SessionDataset& test() const { return data_.test; }
  const Matrix& embeddings() const { return embeddings_; }
  uint64_t seed() const { return seed_; }

 private:
  SimulatedData data_;
  Matrix embeddings_;
  uint64_t seed_;
};

// Trains `model` on the context's training split (timed) and computes
// F1 / FPR / AUC-ROC on its test split. A non-null `rc` (one attempt of
// recovery::RunWithRecovery) trains with checkpoint/resume and the
// watchdog; a null `rc` is the plain path.
RunMetrics TrainAndEvaluate(DetectorModel* model,
                            const ExperimentContext& context,
                            recovery::RunCheckpointer* rc = nullptr);

// The model name of a label-corrector cell (Table III): it trains only the
// corrector and scores its corrections of the noisy training labels.
inline constexpr char kLabelCorrector[] = "label corrector";

// One table row: a model trained with one config on one (dataset, split,
// noise) world, over every seed of the sweep.
struct SweepCell {
  std::string label;  // unique within the sweep; keys its recovery state
  std::string model;  // a MakeModel name, or kLabelCorrector
  ClfdConfig config;
  DatasetKind dataset;
  SplitSpec split;
  NoiseSpec noise;
};

// One (cell, seed) run. A detector cell fills `run`; a corrector cell fills
// `tpr` and `tnr`, the shares (0-100) of truly malicious and truly normal
// training sessions whose corrected label is right.
struct SeedResult {
  RunMetrics run;
  double tpr = 0.0;
  double tnr = 0.0;
};

// One cell's runs in seed order and the mean +/- std of each field; the
// fields its kind of cell does not fill stay 0.
struct CellResult {
  std::vector<SeedResult> seeds;
  AggregatedMetrics metrics;
  MeanStd tpr;
  MeanStd tnr;
};

// Seed s (0-based) of a sweep is kBaseSeed + s; its world is built from
// Rng(seed * 7919 + 17) and its model or corrector from seed * 31 + 7.
inline constexpr uint64_t kBaseSeed = 100;

// Runs every cell over `seeds` seeds and returns one result per cell, in
// cell order. Each distinct world (dataset, split, noise, config.emb_dim,
// seed) is built once and read by all of its cells. Every (cell, seed)
// pair is one job of a single parallel::ParallelFor whose nested calls run
// inline, so every metric is bit-identical to the run alone, at any thread
// width. With `recovery.dir` set, a run checkpoints to `<dir>/<stem>.ckpt`,
// the stem a file-safe form of (label, seed) ("w/o LC" at seed 100 is
// "w%2Fo%20LC.100"); finished runs are stored by stem in
// `<dir>/results.ckpt`, and a rerun serves them without building their
// worlds. `recovery.watchdog` arms the rollback ladder (WatchdogAbort once
// exhausted). Throws std::invalid_argument before any work when `seeds` <
// 1 or two cells share a label.
std::vector<CellResult> RunSweep(
    const std::vector<SweepCell>& cells, int seeds,
    const recovery::RecoveryOptions& recovery = {});

// Benchmark-harness scale knobs, read from the environment:
//   CLFD_SCALE  — fraction of the paper's split sizes (default `def_scale`)
//   CLFD_SEEDS  — number of seeds per cell (default `def_seeds`)
//   CLFD_EPOCH_SCALE — fraction of the paper's epoch budget
// The fractions must lie in (0, 1] and the seed count must be at least 1;
// a malformed or out-of-range value throws std::invalid_argument.
struct BenchScale {
  double split_scale;
  int seeds;
  double epoch_scale;
};
BenchScale ReadBenchScale(double def_scale = 0.02, int def_seeds = 2,
                          double def_epoch_scale = 0.4);

// Applies a BenchScale to config/split defaults for the given dataset.
struct ScaledSetup {
  SplitSpec split;
  ClfdConfig config;
};
ScaledSetup MakeScaledSetup(DatasetKind kind, const BenchScale& scale);

}  // namespace clfd

