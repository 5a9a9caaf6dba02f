#include "perfdiff/perf_diff.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

namespace clfd {
namespace perfdiff {

namespace {

// google-benchmark per-entry bookkeeping fields that are not measurements.
bool IsBenchmarkMetaField(const std::string& key) {
  static const char* const kMeta[] = {
      "name",       "family_index", "per_family_instance_index",
      "run_name",   "run_type",     "repetitions",
      "repetition_index", "threads", "iterations",
      "time_unit",  "aggregate_name", "aggregate_unit",
      "big_o",      "rms",          "cpu_coefficient",
      "real_coefficient"};
  for (const char* m : kMeta) {
    if (key == m) return true;
  }
  return false;
}

double TimeUnitToNs(const std::string& unit) {
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;  // ns (google-benchmark's default)
}

bool HigherIsBetter(const std::string& field) {
  return field.find("per_second") != std::string::npos ||
         field.find("gflops") != std::string::npos;
}

void ExtractBenchmarks(const json::Value& doc, std::vector<Metric>* out) {
  const json::Value* benches = doc.Find("benchmarks");
  if (benches == nullptr || !benches->IsArray()) return;
  for (const json::Value& b : benches->array) {
    if (!b.IsObject()) continue;
    // Aggregate rows (BigO, RMS, mean/median of repetitions) restate the
    // iteration rows; comparing them double-counts.
    if (b.StringOr("run_type", "iteration") != "iteration") continue;
    if (b.Find("aggregate_name") != nullptr) continue;
    const std::string name = b.StringOr("name", "");
    if (name.empty()) continue;
    const double to_ns = TimeUnitToNs(b.StringOr("time_unit", "ns"));
    for (const auto& [field, value] : b.object) {
      if (!value.IsNumber() || IsBenchmarkMetaField(field)) continue;
      double v = value.number;
      if (field == "real_time" || field == "cpu_time") v *= to_ns;
      out->push_back(Metric{name + " " + field, v, HigherIsBetter(field)});
    }
  }
}

void ExtractProfileNode(const json::Value& node, const std::string& prefix,
                        std::vector<Metric>* out) {
  if (!node.IsObject()) return;
  const std::string name = node.StringOr("name", "");
  if (name.empty()) return;
  const std::string path = prefix.empty() ? name : prefix + ";" + name;
  const json::Value* ns = node.Find("ns");
  if (ns != nullptr && ns->IsNumber() && ns->number > 0) {
    out->push_back(Metric{path + " ns", ns->number, false});
  }
  const json::Value* gflops = node.Find("gflops");
  if (gflops != nullptr && gflops->IsNumber() && gflops->number > 0) {
    out->push_back(Metric{path + " gflops", gflops->number, true});
  }
  const json::Value* children = node.Find("children");
  if (children != nullptr && children->IsArray()) {
    for (const json::Value& c : children->array) {
      ExtractProfileNode(c, path, out);
    }
  }
}

// Indexes metrics by key. Duplicate keys (google-benchmark with
// --benchmark_repetitions emits one iteration row per repetition, all with
// the same name) aggregate to the best observation — min for
// lower-is-better, max for rates — so every repetition participates in the
// diff instead of all but the first being silently dropped.
std::map<std::string, Metric> IndexByKey(const std::vector<Metric>& metrics) {
  std::map<std::string, Metric> out;
  for (const Metric& m : metrics) {
    auto [it, inserted] = out.emplace(m.key, m);
    if (!inserted) {
      it->second.value = m.higher_is_better
                             ? std::max(it->second.value, m.value)
                             : std::min(it->second.value, m.value);
    }
  }
  return out;
}

}  // namespace

std::vector<Metric> ExtractMetrics(const json::Value& doc) {
  std::vector<Metric> out;
  if (doc.Find("benchmarks") != nullptr) {
    ExtractBenchmarks(doc, &out);
  } else if (doc.Find("tree") != nullptr) {
    ExtractProfileNode(*doc.Find("tree"), "", &out);
  }
  return out;
}

DiffResult Diff(const std::vector<Metric>& baseline,
                const std::vector<Metric>& current,
                const DiffOptions& options) {
  DiffResult result;
  const std::map<std::string, Metric> base_by_key = IndexByKey(baseline);
  const std::map<std::string, Metric> cur_by_key = IndexByKey(current);

  for (const auto& [key, base] : base_by_key) {
    auto it = cur_by_key.find(key);
    if (it == cur_by_key.end()) {
      result.only_baseline.push_back(key);
      continue;
    }
    const Metric& cur = it->second;
    if (base.value <= 0 || cur.value <= 0 ||
        base.value < options.min_value) {
      continue;
    }
    DeltaRow row;
    row.key = key;
    row.baseline = base.value;
    row.current = cur.value;
    row.ratio = cur.value / base.value;
    row.higher_is_better = base.higher_is_better;
    row.severity = base.higher_is_better ? -std::log(row.ratio)
                                         : std::log(row.ratio);
    row.regression = row.severity > std::log(1.0 + options.threshold);
    if (row.regression) ++result.regressions;
    result.rows.push_back(row);
  }
  for (const auto& [key, cur] : cur_by_key) {
    (void)cur;
    if (base_by_key.find(key) == base_by_key.end()) {
      result.only_current.push_back(key);
    }
  }
  std::sort(result.rows.begin(), result.rows.end(),
            [](const DeltaRow& a, const DeltaRow& b) {
              if (a.severity != b.severity) return a.severity > b.severity;
              return a.key < b.key;
            });
  return result;
}

std::vector<PlanSpeedupRow> PlanSpeedups(const std::vector<Metric>& metrics) {
  // plan-arg-elided key -> plan flag (0 dynamic, 1 planned) -> real_time ns.
  std::map<std::string, std::map<int, double>> by_bench;
  const std::string field = " real_time";
  const std::string arg = "plan:";
  for (const Metric& m : metrics) {
    if (m.key.size() < field.size() ||
        m.key.compare(m.key.size() - field.size(), field.size(), field) != 0) {
      continue;
    }
    size_t pos = m.key.find(arg);
    if (pos == std::string::npos || pos == 0 || m.key[pos - 1] != '/') {
      continue;
    }
    size_t end = pos + arg.size();
    size_t digits = end;
    while (digits < m.key.size() &&
           std::isdigit(static_cast<unsigned char>(m.key[digits]))) {
      ++digits;
    }
    if (digits == end) continue;
    const int flag = std::stoi(m.key.substr(end, digits - end));
    std::string key = m.key.substr(0, pos - 1) + m.key.substr(digits);
    key = key.substr(0, key.size() - field.size());
    auto [it, inserted] = by_bench[key].emplace(flag, m.value);
    if (!inserted) it->second = std::min(it->second, m.value);
  }
  std::vector<PlanSpeedupRow> rows;
  for (const auto& [key, by_flag] : by_bench) {
    auto dynamic = by_flag.find(0);
    auto planned = by_flag.find(1);
    if (dynamic == by_flag.end() || planned == by_flag.end() ||
        dynamic->second <= 0 || planned->second <= 0) {
      continue;
    }
    PlanSpeedupRow row;
    row.key = key;
    row.dynamic_time = dynamic->second;
    row.planned_time = planned->second;
    row.speedup = dynamic->second / planned->second;
    rows.push_back(row);
  }
  return rows;
}

std::string FormatPlanSpeedups(const std::vector<PlanSpeedupRow>& rows) {
  if (rows.empty()) return "";
  std::ostringstream os;
  char buf[256];
  os << "execution-plan speedups vs dynamic tape (same artifact):\n";
  std::snprintf(buf, sizeof(buf), "%-44s %12s %12s %9s\n", "benchmark",
                "dynamic", "planned", "speedup");
  os << buf;
  for (const PlanSpeedupRow& row : rows) {
    std::snprintf(buf, sizeof(buf), "%-44s %10.4gns %10.4gns %8.2fx\n",
                  row.key.c_str(), row.dynamic_time, row.planned_time,
                  row.speedup);
    os << buf;
  }
  return os.str();
}

std::string FormatTable(const DiffResult& result,
                        const DiffOptions& options) {
  std::ostringstream os;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "perf_diff: %zu shared metrics, %d regression%s "
                "(threshold %+.0f%%)\n",
                result.rows.size(), result.regressions,
                result.regressions == 1 ? "" : "s",
                options.threshold * 100.0);
  os << buf;
  std::snprintf(buf, sizeof(buf), "%-10s %-44s %14s %14s %8s\n", "verdict",
                "metric", "baseline", "current", "delta");
  os << buf;
  for (const DeltaRow& row : result.rows) {
    const double delta_pct = (row.ratio - 1.0) * 100.0;
    const char* verdict = row.regression
                              ? "REGRESSED"
                              : (row.severity < -std::log(1.0 + options.threshold)
                                     ? "improved"
                                     : "ok");
    std::snprintf(buf, sizeof(buf), "%-10s %-44s %14.4g %14.4g %+7.1f%%\n",
                  verdict, row.key.c_str(), row.baseline, row.current,
                  delta_pct);
    os << buf;
  }
  for (const std::string& key : result.only_baseline) {
    os << "removed    " << key << "\n";
  }
  for (const std::string& key : result.only_current) {
    os << "added      " << key << "\n";
  }
  return os.str();
}

}  // namespace perfdiff
}  // namespace clfd
