#pragma once

// Process-wide metrics registry: counters, gauges, fixed-bucket histograms
// and step series, exportable as JSON or JSONL.
//
// Instrumentation sites pay one registry lookup ever (static-local pointer
// caching via the CLFD_METRIC_* macros below) and then a relaxed atomic add
// per event. Pointers returned by the registry are stable for the process
// lifetime: ResetForTest() zeroes values but never frees instruments, so
// cached pointers stay valid.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace clfd {
namespace obs {

// Monotonically increasing event count (matmul calls, flops, epochs, ...).
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Last-write-wins instantaneous value (tape depth, learning rate, ...).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram. Buckets are defined by their inclusive upper
// bounds (ascending); values above the last bound land in an implicit
// overflow bucket. Percentile(p) reports the upper bound of the bucket
// holding the p-th percentile sample, so with bounds matching the data
// resolution the answer is exact (Prometheus-style otherwise).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Record(double value);
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  // p in (0, 100]. Returns 0 when empty; the last bound +inf bucket reports
  // the observed max instead of infinity.
  double Percentile(double p) const;
  double Min() const;
  double Max() const;
  const std::vector<double>& bounds() const { return bounds_; }
  int64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void Reset();

  // Convenience bound builders.
  static std::vector<double> LinearBounds(double start, double width,
                                          int count);
  static std::vector<double> ExponentialBounds(double start, double factor,
                                               int count);

 private:
  std::vector<double> bounds_;
  // One extra slot for the overflow bucket.
  std::vector<std::atomic<int64_t>> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

// Append-only (step, value) series; per-epoch loss curves live here.
class Series {
 public:
  void Append(double step, double value);
  std::vector<std::pair<double, double>> Points() const;
  size_t size() const;
  void Reset();

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<double, double>> points_;
};

// The process-wide registry. Get*() creates on first use and returns a
// stable pointer thereafter; names are flat dotted paths such as
// "tensor.matmul.calls" or "corrector.simclr.loss".
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  // `bounds` applies on first creation only; later callers share it.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds);
  Series* GetSeries(const std::string& name);

  // One JSON object: {"counters":{...},"gauges":{...},"histograms":{...},
  // "series":{...}}.
  std::string ToJson() const;
  // One flat JSON object {"<name>":<value>,...} of the instruments whose
  // names start with `prefix`: counters, then gauges, histograms, series.
  std::string ToFlatJson(const std::string& prefix) const;
  // One self-describing JSON object per line — the sidecar format.
  std::string ToJsonLines() const;
  bool WriteJson(const std::string& path) const;
  bool WriteJsonLines(const std::string& path) const;

  // Zeroes every instrument but keeps them allocated (pointer stability).
  void ResetForTest();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Series>> series_;
};

}  // namespace obs
}  // namespace clfd

// Static-local pointer caching: the registry lock is taken once per site
// per process, after which each hit is a relaxed atomic add.
#define CLFD_METRIC_COUNT(name, delta)                          \
  do {                                                          \
    static ::clfd::obs::Counter* clfd_obs_counter_ =            \
        ::clfd::obs::MetricsRegistry::Get().GetCounter(name);   \
    clfd_obs_counter_->Add(delta);                              \
  } while (0)
#define CLFD_METRIC_GAUGE_SET(name, value)                      \
  do {                                                          \
    static ::clfd::obs::Gauge* clfd_obs_gauge_ =                \
        ::clfd::obs::MetricsRegistry::Get().GetGauge(name);     \
    clfd_obs_gauge_->Set(value);                                \
  } while (0)
// `bounds` (a std::vector<double> expression) is evaluated once, when the
// site first runs.
#define CLFD_METRIC_HIST_RECORD(name, bounds, value)                 \
  do {                                                               \
    static ::clfd::obs::Histogram* clfd_obs_hist_ =                  \
        ::clfd::obs::MetricsRegistry::Get().GetHistogram(name,       \
                                                         (bounds));  \
    clfd_obs_hist_->Record(value);                                   \
  } while (0)
