#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json_writer.h"

namespace clfd {
namespace obs {

namespace {

// CAS loops: portable relaxed float accumulation (atomic<double>::fetch_add
// is C++20 but spotty across standard libraries).
void AtomicAdd(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

void AppendJsonValue(std::ostringstream* os, const Counter& c) {
  *os << c.value();
}

void AppendJsonValue(std::ostringstream* os, const Gauge& g) {
  AppendJsonNumber(os, g.value());
}

void AppendJsonValue(std::ostringstream* os, const Histogram& h) {
  *os << "{\"count\":" << h.count() << ",\"sum\":";
  AppendJsonNumber(os, h.sum());
  *os << ",\"min\":";
  AppendJsonNumber(os, h.Min());
  *os << ",\"max\":";
  AppendJsonNumber(os, h.Max());
  *os << ",\"p50\":";
  AppendJsonNumber(os, h.Percentile(50));
  *os << ",\"p95\":";
  AppendJsonNumber(os, h.Percentile(95));
  *os << ",\"p99\":";
  AppendJsonNumber(os, h.Percentile(99));
  *os << ",\"buckets\":[";
  const auto& bounds = h.bounds();
  for (size_t i = 0; i <= bounds.size(); ++i) {
    if (i > 0) *os << ',';
    *os << "{\"le\":";
    if (i < bounds.size()) {
      AppendJsonNumber(os, bounds[i]);
    } else {
      *os << "\"+inf\"";
    }
    *os << ",\"count\":" << h.BucketCount(i) << '}';
  }
  *os << "]}";
}

void AppendJsonValue(std::ostringstream* os, const Series& s) {
  *os << '[';
  bool first = true;
  for (const auto& [step, value] : s.Points()) {
    if (!first) *os << ',';
    first = false;
    *os << '[';
    AppendJsonNumber(os, step);
    *os << ',';
    AppendJsonNumber(os, value);
    *os << ']';
  }
  *os << ']';
}

// Appends `"name":value` for every instrument whose name starts with
// `prefix`, comma-separated once `*first` is false.
template <typename Instruments>
void AppendJsonEntries(std::ostringstream* os, const Instruments& instruments,
                       const std::string& prefix, bool* first) {
  for (const auto& [name, instrument] : instruments) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (!*first) *os << ',';
    *first = false;
    AppendJsonString(os, name);
    *os << ':';
    AppendJsonValue(os, *instrument);
  }
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  out << content;
  return out.good();
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

void Histogram::Record(double value) {
  size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), value) -
             bounds_.begin();
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value);
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::Min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::Max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::Percentile(double p) const {
  int64_t total = count();
  if (total == 0) return 0.0;
  // Nearest-rank percentile over bucket upper bounds.
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * total));
  rank = std::max<int64_t>(1, std::min(rank, total));
  int64_t cumulative = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= rank) {
      return i < bounds_.size() ? bounds_[i] : Max();
    }
  }
  return Max();
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::vector<double> Histogram::LinearBounds(double start, double width,
                                            int count) {
  std::vector<double> bounds(count);
  for (int i = 0; i < count; ++i) bounds[i] = start + i * width;
  return bounds;
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor,
                                                 int count) {
  std::vector<double> bounds(count);
  double v = start;
  for (int i = 0; i < count; ++i, v *= factor) bounds[i] = v;
  return bounds;
}

void Series::Append(double step, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  points_.emplace_back(step, value);
}

std::vector<std::pair<double, double>> Series::Points() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return points_;
}

size_t Series::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return points_.size();
}

void Series::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  points_.clear();
}

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

Series* MetricsRegistry::GetSeries(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = series_[name];
  if (!slot) slot = std::make_unique<Series>();
  return slot.get();
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  bool first = true;
  os << "{\"counters\":{";
  AppendJsonEntries(&os, counters_, "", &first);
  os << "},\"gauges\":{";
  first = true;
  AppendJsonEntries(&os, gauges_, "", &first);
  os << "},\"histograms\":{";
  first = true;
  AppendJsonEntries(&os, histograms_, "", &first);
  os << "},\"series\":{";
  first = true;
  AppendJsonEntries(&os, series_, "", &first);
  os << "}}";
  return os.str();
}

std::string MetricsRegistry::ToFlatJson(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  bool first = true;
  os << '{';
  AppendJsonEntries(&os, counters_, prefix, &first);
  AppendJsonEntries(&os, gauges_, prefix, &first);
  AppendJsonEntries(&os, histograms_, prefix, &first);
  AppendJsonEntries(&os, series_, prefix, &first);
  os << '}';
  return os.str();
}

std::string MetricsRegistry::ToJsonLines() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    os << "{\"type\":\"counter\",\"name\":";
    AppendJsonString(&os, name);
    os << ",\"value\":" << c->value() << "}\n";
  }
  for (const auto& [name, g] : gauges_) {
    os << "{\"type\":\"gauge\",\"name\":";
    AppendJsonString(&os, name);
    os << ",\"value\":";
    AppendJsonNumber(&os, g->value());
    os << "}\n";
  }
  for (const auto& [name, h] : histograms_) {
    os << "{\"type\":\"histogram\",\"name\":";
    AppendJsonString(&os, name);
    os << ",\"value\":";
    AppendJsonValue(&os, *h);
    os << "}\n";
  }
  for (const auto& [name, s] : series_) {
    os << "{\"type\":\"series\",\"name\":";
    AppendJsonString(&os, name);
    os << ",\"value\":";
    AppendJsonValue(&os, *s);
    os << "}\n";
  }
  return os.str();
}

bool MetricsRegistry::WriteJson(const std::string& path) const {
  return WriteFile(path, ToJson());
}

bool MetricsRegistry::WriteJsonLines(const std::string& path) const {
  return WriteFile(path, ToJsonLines());
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
  for (auto& [name, s] : series_) s->Reset();
}

}  // namespace obs
}  // namespace clfd
