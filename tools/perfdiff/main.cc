// perf_diff — the perf-regression gate.
//
// Compares two performance JSON artifacts (google-benchmark output or
// profiler ToJson output), prints a ranked delta table, and with --gate
// exits nonzero when any metric regressed past the threshold. tools/ci.sh
// and the Actions workflow run it against the committed
// BENCH_substrate.json baseline after the benchmark smoke run.
//
// Usage:
//   perf_diff [--gate] [--threshold=F] [--min-value=F] BASELINE CURRENT
//
//   --threshold=F  fractional slack before a delta regresses (default 0.5,
//                  i.e. times may grow 1.5x; overridable with the
//                  CLFD_PERF_GATE_THRESHOLD environment variable)
//   --min-value=F  skip metrics whose baseline value is below F
//   --gate         exit 1 when regressions were found
//
// Exit codes: 0 ok, 1 regressions found (only with --gate), 2 bad
// usage/unreadable input.

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.h"
#include "perfdiff/perf_diff.h"

namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  *out = os.str();
  return true;
}

int Usage() {
  std::cerr << "usage: perf_diff [--gate] [--threshold=F] [--min-value=F] "
               "BASELINE CURRENT\n";
  return 2;
}

// Full-string double parse; false on empty, trailing junk, or overflow, so
// a malformed flag value falls through to Usage() instead of aborting on an
// uncaught std::stod exception.
bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool LoadMetrics(const std::string& path,
                 std::vector<clfd::perfdiff::Metric>* out) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::cerr << "perf_diff: cannot read " << path << "\n";
    return false;
  }
  clfd::json::Value doc;
  std::string error;
  if (!clfd::json::Parse(text, &doc, &error)) {
    std::cerr << "perf_diff: " << path << ": " << error << "\n";
    return false;
  }
  *out = clfd::perfdiff::ExtractMetrics(doc);
  if (out->empty()) {
    std::cerr << "perf_diff: " << path
              << ": no comparable metrics (expected a google-benchmark "
                 "or profiler JSON file)\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  clfd::perfdiff::DiffOptions options;
  options.threshold =
      clfd::GetEnvDouble("CLFD_PERF_GATE_THRESHOLD", options.threshold);
  bool gate = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--gate") {
      gate = true;
    } else if (arg.rfind("--threshold=", 0) == 0) {
      if (!ParseDouble(arg.substr(12), &options.threshold)) return Usage();
    } else if (arg.rfind("--min-value=", 0) == 0) {
      if (!ParseDouble(arg.substr(12), &options.min_value)) return Usage();
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "perf_diff: unknown flag " << arg << "\n";
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2 || options.threshold < 0) return Usage();

  std::vector<clfd::perfdiff::Metric> baseline;
  std::vector<clfd::perfdiff::Metric> current;
  if (!LoadMetrics(files[0], &baseline) ||
      !LoadMetrics(files[1], &current)) {
    return 2;
  }
  clfd::perfdiff::DiffResult result =
      clfd::perfdiff::Diff(baseline, current, options);
  std::cout << clfd::perfdiff::FormatTable(result, options);
  // Execution-plan view of the CURRENT artifact: plan replay vs dynamic
  // tape in this very run. Informational, never gated.
  std::cout << clfd::perfdiff::FormatPlanSpeedups(
      clfd::perfdiff::PlanSpeedups(current));
  if (result.regressions > 0 && gate) {
    std::cerr << "perf_diff: GATE FAILED (" << result.regressions
              << " regression" << (result.regressions == 1 ? "" : "s")
              << " past " << options.threshold * 100 << "% threshold)\n";
    return 1;
  }
  return 0;
}
