#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/table.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "recovery/run_checkpointer.h"

namespace clfd {
namespace bench {

// The class-dependent setting of Tables II/III/V: eta10=0.3, eta01=0.45.
inline NoiseSpec ClassDependentSetting() {
  return NoiseSpec::ClassDependent(0.3, 0.45);
}

inline std::vector<DatasetKind> AllDatasets() {
  return {DatasetKind::kCert, DatasetKind::kWiki, DatasetKind::kOpenStack};
}

// Formats a number with `decimals` digits after the point, e.g. "0.45".
inline std::string Fixed(double value, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

// Dumps the metrics registry as a JSONL sidecar next to the table output,
// so a BENCH_*.json trajectory can be traced back to kernel counters,
// per-epoch loss series and phase timings. Knobs:
//   CLFD_METRICS_SIDECAR=0   disable (default on)
//   CLFD_METRICS_OUT=PATH    override the output path
// Default path: "<bench_name>.metrics.jsonl" in the working directory.
inline void WriteMetricsSidecar(const std::string& bench_name) {
  if (!GetEnvBool("CLFD_METRICS_SIDECAR", true)) return;
  std::string path =
      GetEnvString("CLFD_METRICS_OUT", bench_name + ".metrics.jsonl");
  if (path.empty()) return;
  if (obs::MetricsRegistry::Get().WriteJsonLines(path)) {
    std::printf("metrics sidecar: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write metrics sidecar %s\n", path.c_str());
  }
}

// A table bench's output: tables whose rows are sweep cells, added in print
// order. Print runs all cells as one sweep and prints each row's key columns
// and its cell's F1 / FPR / AUC-ROC (TPR / TNR for label-corrector cells).
class SweepTables {
 public:
  // Starts a table; a non-empty `title` is printed above it.
  void Table(std::string title, std::vector<std::string> keys) {
    tables_.push_back({std::move(title), std::move(keys), {}});
  }
  void Row(std::vector<std::string> keys, SweepCell cell) {
    tables_.back().rows.push_back(std::move(keys));
    cells_.push_back(std::move(cell));
  }

  void Print(int seeds) const {
    const std::vector<CellResult> results = RunSweep(cells_, seeds);
    size_t next = 0;
    for (const TableSpec& spec : tables_) {
      const bool corrector = cells_[next].model == kLabelCorrector;
      const std::vector<std::string> metrics =
          corrector ? std::vector<std::string>{"TPR", "TNR"}
                    : std::vector<std::string>{"F1", "FPR", "AUC-ROC"};
      std::vector<std::string> header = spec.keys;
      header.insert(header.end(), metrics.begin(), metrics.end());
      TextTable table(header);
      for (std::vector<std::string> row : spec.rows) {
        const CellResult& r = results[next++];
        const std::vector<MeanStd> values =
            corrector ? std::vector<MeanStd>{r.tpr, r.tnr}
                      : std::vector<MeanStd>{r.metrics.f1, r.metrics.fpr,
                                             r.metrics.auc};
        for (const MeanStd& m : values) row.push_back(m.ToString(2));
        table.AddRow(std::move(row));
      }
      if (!spec.title.empty()) std::printf("%s\n", spec.title.c_str());
      std::printf("%s\n", table.Render().c_str());
    }
  }

 private:
  struct TableSpec {
    std::string title;
    std::vector<std::string> keys;
    std::vector<std::vector<std::string>> rows;
  };
  std::vector<TableSpec> tables_;
  std::vector<SweepCell> cells_;
};

// Tables IV and V (Sec. IV-B4): CLFD and its ablation variants, in table
// order, on every dataset at `noise`.
inline void PrintAblationTables(const BenchScale& scale,
                                const NoiseSpec& noise) {
  SweepTables tables;
  for (DatasetKind kind : AllDatasets()) {
    ScaledSetup setup = MakeScaledSetup(kind, scale);
    tables.Table("--- " + DatasetName(kind) + " ---", {"Variant"});
    auto row = [&](const std::string& name, auto vary) {
      ClfdConfig config = setup.config;
      vary(config);
      tables.Row({name}, {DatasetName(kind) + " " + name, "CLFD", config,
                          kind, setup.split, noise});
    };
    row("CLFD", [](ClfdConfig&) {});
    row("w/o LC", [](ClfdConfig& c) { c.use_label_corrector = false; });
    row("w/o mixup-GCE", [](ClfdConfig& c) {
      c.classifier_loss = ClassifierLoss::kVanillaGce;
    });
    row("w/o GCE loss",
        [](ClfdConfig& c) { c.classifier_loss = ClassifierLoss::kCce; });
    row("w/o FD", [](ClfdConfig& c) { c.use_fraud_detector = false; });
    row("w/o L_Sup", [](ClfdConfig& c) {
      c.supcon_variant = SupConVariant::kUnweighted;
    });
    row("w/o classifier (FD)",
        [](ClfdConfig& c) { c.use_classifier = false; });
  }
  tables.Print(scale.seeds);
}

// The body of a bench's main(): reads the scale knobs and the pool width,
// prints `title` and the scale, runs `run` and writes the metrics sidecar.
// A bad knob value (CLFD_THREADS included) prints its message and returns 2
// before any work. A training failure that nothing retried (a diverged
// run, an invariant violation, an allocation failure) prints its message
// and returns 4, as clfd_cli does.
inline int Main(const std::string& name, const std::string& title,
                void (*run)(const BenchScale&), int def_seeds = 2) {
  BenchScale scale{};
  int threads = 0;
  try {
    scale = ReadBenchScale(0.02, def_seeds, 0.4);
    threads = parallel::GlobalThreadCount();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::printf(
      "=== %s ===\nscale: %.3fx paper split sizes | %d seed(s) | %.2fx "
      "paper epochs | %d thread(s) (override with CLFD_SCALE / CLFD_SEEDS / "
      "CLFD_EPOCH_SCALE / CLFD_THREADS)\n\n",
      title.c_str(), scale.split_scale, scale.seeds, scale.epoch_scale,
      threads);
  std::string failure;
  if (!recovery::RunRecoverable(/*recover=*/true, &failure,
                                [&] { run(scale); })) {
    std::fprintf(stderr, "%s failed: %s\n", name.c_str(), failure.c_str());
    return 4;
  }
  WriteMetricsSidecar(name);
  return 0;
}

}  // namespace bench
}  // namespace clfd

