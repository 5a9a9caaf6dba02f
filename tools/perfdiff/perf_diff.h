#pragma once

// perf_diff core: compares two performance JSON artifacts and ranks the
// deltas. Understands both artifact formats this repo produces:
//
//   - google-benchmark --benchmark_out JSON ("benchmarks" array): compares
//     per-benchmark real_time, items_per_second (the kernel benches report
//     FLOP/s there), and the custom *_per_step counters (allocs, matmul
//     calls);
//   - the profiler's ToJson output ("tree" object): compares per-scope
//     inclusive time and achieved GFLOP/s, keyed by the full scope path.
//
// A metric regresses when it moves past `threshold` in its bad direction
// (slower for times, lower for rates). The library is separate from the
// binary so tests/perfdiff_test.cc can drive the gate logic on synthetic
// documents — including the canonical "2x MatMul slowdown must fail" case.

#include <string>
#include <vector>

#include "common/json.h"

namespace clfd {
namespace perfdiff {

// One comparable measurement extracted from an artifact.
struct Metric {
  std::string key;    // "BM_MatMul/50 real_time" or "pretrain;MatMul ns"
  double value = 0.0;
  bool higher_is_better = false;
};

struct DeltaRow {
  std::string key;
  double baseline = 0.0;
  double current = 0.0;
  double ratio = 0.0;  // current / baseline
  bool higher_is_better = false;
  bool regression = false;
  // log(ratio) oriented so that positive = worse; the ranking key.
  double severity = 0.0;
};

struct DiffOptions {
  // Fractional slack before a delta counts as a regression: 0.5 allows
  // times up to 1.5x baseline and rates down to baseline/1.5.
  double threshold = 0.5;
  // Baseline values below this are skipped (noise floor for tiny scopes).
  double min_value = 0.0;
};

struct DiffResult {
  std::vector<DeltaRow> rows;  // ranked, worst regression first
  std::vector<std::string> only_baseline;
  std::vector<std::string> only_current;
  int regressions = 0;
};

// Pulls the comparable metrics out of a parsed artifact. Aggregate
// benchmark entries (BigO/RMS rows) are ignored; times are normalized to
// nanoseconds.
std::vector<Metric> ExtractMetrics(const json::Value& doc);

DiffResult Diff(const std::vector<Metric>& baseline,
                const std::vector<Metric>& current,
                const DiffOptions& options);

// Ranked delta table plus the appeared/disappeared metric lists.
std::string FormatTable(const DiffResult& result,
                        const DiffOptions& options);

// One comparison *within* a single artifact: pairs each "<bench>/plan:1
// real_time" metric with the matching plan:0 row of the same artifact (the
// plan arg the BM_Plan* pairs carry) and reports the end-to-end speedup
// plan replay achieves over the dynamic tape. Informational only — the
// regression gate is Diff() against the baseline.
struct PlanSpeedupRow {
  std::string key;            // benchmark name with the plan arg elided
  double dynamic_time = 0.0;  // plan:0, ns
  double planned_time = 0.0;  // plan:1, ns
  double speedup = 0.0;       // dynamic_time / planned_time
};

std::vector<PlanSpeedupRow> PlanSpeedups(const std::vector<Metric>& metrics);
std::string FormatPlanSpeedups(const std::vector<PlanSpeedupRow>& rows);

}  // namespace perfdiff
}  // namespace clfd
