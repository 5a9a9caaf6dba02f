#pragma once

#include <functional>
#include <memory>
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
  MeanStd pretrain_seconds;
  MeanStd corrector_seconds;
  MeanStd detector_seconds;
  MeanStd classifier_seconds;

  void Add(const RunMetrics& m) {
    f1.Add(m.f1);
    fpr.Add(m.fpr);
    auc.Add(m.auc);
    train_seconds.Add(m.train_seconds);
    pretrain_seconds.Add(m.phases.pretrain_seconds);
    corrector_seconds.Add(m.phases.corrector_seconds);
    detector_seconds.Add(m.phases.detector_seconds);
    classifier_seconds.Add(m.phases.classifier_seconds);
  }
};

// One fully materialized experiment world: a simulated dataset with noise
// injected into the training labels, plus word2vec activity embeddings
// trained on the noisy training split. All models evaluated under the same
// (dataset, noise, seed) triple share the same context, as in the paper's
// protocol ("we employ the same training set ... to train all baselines").
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

// Runs `model_name` across `seeds` seeds (base_seed, base_seed+1, ...) on
// fresh contexts and aggregates. With `recovery.dir` set, each seed
// checkpoints to `<dir>/seed_<seed>.ckpt`, completed seeds are recorded in
// `<dir>/results.ckpt` and skipped on restart, and an interrupted run
// resumes to bitwise-identical metrics (Recovery.CrashResume tests). With
// `recovery.watchdog.enabled`, divergence triggers rollback and the
// bounded retry ladder; an exhausted budget throws WatchdogAbort.
AggregatedMetrics RunExperiment(const std::string& model_name,
                                DatasetKind kind, const SplitSpec& split,
                                const NoiseSpec& noise,
                                const ClfdConfig& config, int seeds,
                                uint64_t base_seed = 100,
                                const recovery::RecoveryOptions& recovery = {});

// Generalized runner taking a model factory; used by the ablation benches
// (Tables IV/V) to evaluate CLFD variants that differ only in config flags.
AggregatedMetrics RunExperimentWithFactory(
    const std::function<std::unique_ptr<DetectorModel>(uint64_t seed)>&
        factory,
    DatasetKind kind, const SplitSpec& split, const NoiseSpec& noise,
    int emb_dim, int seeds, uint64_t base_seed = 100,
    const recovery::RecoveryOptions& recovery = {});

// Label-corrector quality on the noisy training set (Table III): trains
// only the corrector and reports TPR/TNR of its corrections against the
// ground-truth labels.
struct CorrectorMetrics {
  MeanStd tpr;
  MeanStd tnr;
};
CorrectorMetrics RunCorrectorExperiment(
    DatasetKind kind, const SplitSpec& split, const NoiseSpec& noise,
    const ClfdConfig& config, int seeds, uint64_t base_seed = 100,
    const recovery::RecoveryOptions& recovery = {});

// Benchmark-harness scale knobs, read from the environment:
//   CLFD_SCALE  — fraction of the paper's split sizes (default `def_scale`)
//   CLFD_SEEDS  — number of seeds per cell (default `def_seeds`)
//   CLFD_EPOCH_SCALE — fraction of the paper's epoch budget
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

