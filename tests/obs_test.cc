#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"

namespace clfd {
namespace obs {
namespace {

// ---- Logging ----

TEST(LogTest, ParseLogLevel) {
  EXPECT_EQ(ParseLogLevel("debug", LogLevel::kOff), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("INFO", LogLevel::kOff), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("Warn", LogLevel::kOff), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("warning", LogLevel::kOff), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("error", LogLevel::kOff), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("off", LogLevel::kDebug), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("bogus", LogLevel::kError), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("", LogLevel::kWarn), LogLevel::kWarn);
}

TEST(LogTest, LevelFiltering) {
  SetLogLevel(LogLevel::kWarn);
  EXPECT_FALSE(LogEnabled(LogLevel::kDebug));
  EXPECT_FALSE(LogEnabled(LogLevel::kInfo));
  EXPECT_TRUE(LogEnabled(LogLevel::kWarn));
  EXPECT_TRUE(LogEnabled(LogLevel::kError));
  SetLogLevel(LogLevel::kOff);
  EXPECT_FALSE(LogEnabled(LogLevel::kError));
  SetLogLevel(LogLevel::kDebug);
  EXPECT_TRUE(LogEnabled(LogLevel::kDebug));
  SetLogLevel(LogLevel::kWarn);
}

TEST(LogTest, FilteredStatementEmitsNothing) {
  SetLogLevel(LogLevel::kError);
  testing::internal::CaptureStderr();
  CLFD_LOG(INFO) << "should not appear" << Kv("k", 1);
  std::string captured = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(captured.empty());
  SetLogLevel(LogLevel::kWarn);
}

TEST(LogTest, EmittedLineHasLevelLocationAndFields) {
  SetLogLevel(LogLevel::kInfo);
  testing::internal::CaptureStderr();
  CLFD_LOG(INFO) << "hello" << Kv("epoch", 3) << Kv("loss", 0.25);
  std::string captured = testing::internal::GetCapturedStderr();
  EXPECT_NE(captured.find("I "), std::string::npos);
  EXPECT_NE(captured.find("obs_test.cc"), std::string::npos);
  EXPECT_NE(captured.find("hello"), std::string::npos);
  EXPECT_NE(captured.find("epoch=3"), std::string::npos);
  EXPECT_NE(captured.find("loss=0.25"), std::string::npos);
  EXPECT_EQ(captured.back(), '\n');
  SetLogLevel(LogLevel::kWarn);
}

// ---- Counters / gauges ----

TEST(MetricsTest, CounterMath) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(MetricsTest, GaugeLastWriteWins) {
  Gauge g;
  g.Set(1.5);
  g.Set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
}

// ---- Histogram ----

TEST(MetricsTest, HistogramExactPercentilesOnKnownData) {
  // Bucket bounds match the data resolution, so percentiles are exact.
  Histogram h(Histogram::LinearBounds(1.0, 1.0, 100));  // 1, 2, ..., 100
  for (int v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
}

TEST(MetricsTest, HistogramSkewedDistribution) {
  Histogram h(Histogram::LinearBounds(1.0, 1.0, 10));
  for (int i = 0; i < 99; ++i) h.Record(1.0);
  h.Record(10.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 10.0);
}

TEST(MetricsTest, HistogramOverflowBucketReportsMax) {
  Histogram h({1.0, 2.0});
  h.Record(0.5);
  h.Record(1000.0);  // overflow bucket
  EXPECT_EQ(h.count(), 2);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1000.0);
  EXPECT_EQ(h.BucketCount(0), 1);  // <= 1.0
  EXPECT_EQ(h.BucketCount(1), 0);  // <= 2.0
  EXPECT_EQ(h.BucketCount(2), 1);  // +inf
}

TEST(MetricsTest, HistogramEmpty) {
  Histogram h({1.0});
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.Min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 0.0);
}

TEST(MetricsTest, BoundBuilders) {
  auto linear = Histogram::LinearBounds(0.05, 0.05, 3);
  ASSERT_EQ(linear.size(), 3u);
  EXPECT_NEAR(linear[0], 0.05, 1e-12);
  EXPECT_NEAR(linear[2], 0.15, 1e-12);
  auto expo = Histogram::ExponentialBounds(16.0, 2.0, 4);
  ASSERT_EQ(expo.size(), 4u);
  EXPECT_DOUBLE_EQ(expo[0], 16.0);
  EXPECT_DOUBLE_EQ(expo[3], 128.0);
}

// ---- Series ----

TEST(MetricsTest, SeriesAppendsInOrder) {
  Series s;
  s.Append(0, 1.5);
  s.Append(1, 1.0);
  s.Append(2, 0.5);
  auto points = s.Points();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].second, 1.5);
  EXPECT_DOUBLE_EQ(points[2].first, 2.0);
  EXPECT_DOUBLE_EQ(points[2].second, 0.5);
}

// ---- Registry ----

TEST(MetricsRegistryTest, StablePointersAndJsonExport) {
  auto& registry = MetricsRegistry::Get();
  Counter* c = registry.GetCounter("test.registry.counter");
  EXPECT_EQ(c, registry.GetCounter("test.registry.counter"));
  c->Add(7);
  registry.GetGauge("test.registry.gauge")->Set(2.5);
  registry
      .GetHistogram("test.registry.hist", Histogram::LinearBounds(1, 1, 4))
      ->Record(2.0);
  registry.GetSeries("test.registry.series")->Append(0, 0.75);

  std::string json = registry.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"test.registry.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.registry.gauge\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":2"), std::string::npos);
  EXPECT_NE(json.find("[0,0.75]"), std::string::npos);

  std::string jsonl = registry.ToJsonLines();
  EXPECT_NE(jsonl.find("{\"type\":\"counter\",\"name\":\"test.registry."
                       "counter\""),
            std::string::npos);
  // Every line is one object.
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }

  // ResetForTest zeroes values but keeps instruments (cached pointers stay
  // valid).
  registry.ResetForTest();
  EXPECT_EQ(c->value(), 0);
  EXPECT_EQ(registry.GetCounter("test.registry.counter"), c);
}

TEST(MetricsRegistryTest, ConcurrentIncrementSmoke) {
  auto& registry = MetricsRegistry::Get();
  Counter* c = registry.GetCounter("test.concurrent.counter");
  Histogram* h = registry.GetHistogram("test.concurrent.hist",
                                       Histogram::LinearBounds(1, 1, 8));
  c->Reset();
  h->Reset();
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        c->Add(1);
        h->Record(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(c->value(), kThreads * kIters);
  EXPECT_EQ(h->count(), kThreads * kIters);
  EXPECT_DOUBLE_EQ(h->sum(), (1.0 + 2.0 + 3.0 + 4.0) * kIters);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndExportAreWellFormed) {
  // Unlike ConcurrentIncrementSmoke (which races only on Add), this races
  // instrument *creation*: same-name and distinct-name lookups from many
  // threads, interleaved with records and JSON exports.
  auto& registry = MetricsRegistry::Get();
  registry.GetCounter("test.mt.shared")->Reset();
  registry
      .GetHistogram("test.mt.hist", Histogram::LinearBounds(1, 1, 8))
      ->Reset();
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Counter* shared = registry.GetCounter("test.mt.shared");
      Counter* own = registry.GetCounter("test.mt.t" + std::to_string(t));
      own->Reset();
      Histogram* h = registry.GetHistogram(
          "test.mt.hist", Histogram::LinearBounds(1, 1, 8));
      for (int i = 0; i < kIters; ++i) {
        shared->Add(1);
        own->Add(1);
        h->Record(static_cast<double>(t + 1));
        if (i % 1024 == 0) {
          std::string json = registry.ToJson();  // export under contention
          EXPECT_FALSE(json.empty());
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(registry.GetCounter("test.mt.shared")->value(),
            kThreads * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.GetCounter("test.mt.t" + std::to_string(t))->value(),
              kIters);
  }
  Histogram* h = registry.GetHistogram("test.mt.hist",
                                       Histogram::LinearBounds(1, 1, 8));
  EXPECT_EQ(h->count(), kThreads * kIters);
  double expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) expected_sum += (t + 1.0) * kIters;
  EXPECT_DOUBLE_EQ(h->sum(), expected_sum);

  std::string json = registry.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_NE(json.find("\"test.mt.shared\""), std::string::npos);
}

// ---- Tracing ----

struct ParsedEvent {
  std::string name;
  long long ts = 0;
  long long dur = 0;
};

// Minimal extraction of (name, ts, dur) triples from the trace JSON.
std::vector<ParsedEvent> ParseEvents(const std::string& json) {
  std::vector<ParsedEvent> events;
  size_t pos = 0;
  while ((pos = json.find("{\"name\":\"", pos)) != std::string::npos) {
    ParsedEvent e;
    size_t name_begin = pos + 9;
    size_t name_end = json.find('"', name_begin);
    e.name = json.substr(name_begin, name_end - name_begin);
    size_t ts_pos = json.find("\"ts\":", pos);
    size_t dur_pos = json.find("\"dur\":", pos);
    e.ts = std::atoll(json.c_str() + ts_pos + 5);
    e.dur = std::atoll(json.c_str() + dur_pos + 6);
    events.push_back(e);
    pos = name_end;
  }
  return events;
}

TEST(TraceTest, NestedSpansProduceContainedEvents) {
  const char* path = "obs_test_trace.json";
  auto& recorder = TraceRecorder::Get();
  recorder.Start(path);
  {
    prof::Scope outer(prof::kSpan, "outer");
    outer.Arg("epoch", 1);
    {
      prof::Scope inner(prof::kSpan, "inner");
      // Ensure measurable, strictly nested durations.
      volatile double sink = 0;
      for (int i = 0; i < 100000; ++i) sink = sink + i * 0.5;
    }
  }
  EXPECT_EQ(recorder.EventCount(), 2u);
  ASSERT_TRUE(recorder.Stop());

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string json = buffer.str();
  std::remove(path);

  // Valid trace-event envelope.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"epoch\":1}"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));

  // Spans close in LIFO order (inner first) and the outer event's interval
  // contains the inner one — that is what chrome://tracing nests on.
  auto events = ParseEvents(json);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  const ParsedEvent& inner = events[0];
  const ParsedEvent& outer = events[1];
  EXPECT_LE(outer.ts, inner.ts);
  EXPECT_GE(outer.ts + outer.dur, inner.ts + inner.dur);
}

TEST(TraceTest, DisabledRecorderBuffersNothing) {
  auto& recorder = TraceRecorder::Get();
  ASSERT_TRUE(recorder.Stop());  // make sure recording is off
  {
    prof::Scope span(prof::kSpan, "ignored");
  }
  EXPECT_EQ(recorder.EventCount(), 0u);
}

// A span with all three sinks on takes one measurement: the tree node, the
// trace event and the capture entry share its name and its duration.
TEST(TraceTest, SpanFeedsTreeTraceAndCaptureFromOneMeasurement) {
  prof::ScopedEnabled on(true);
  prof::Reset();
  const char* path = "obs_test_trace_one_span.json";
  auto& recorder = TraceRecorder::Get();
  recorder.Start(path);
  PhaseCapture capture;
  {
    prof::Scope span(prof::kSpan, "test.one_span");
    volatile double sink = 0;
    for (int i = 0; i < 200000; ++i) sink = sink + i * 0.5;
  }
  ASSERT_TRUE(recorder.Stop());

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path);
  auto events = ParseEvents(buffer.str());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "test.one_span");

  const prof::ReportNode root = prof::Snapshot();
  const prof::ReportNode* node = root.Child("test.one_span");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->count, 1);
  const int64_t tree_us = node->ns / 1000;
  EXPECT_GT(tree_us, 0);
  EXPECT_NEAR(capture.Micros("test.one_span"), tree_us, 1);
  EXPECT_NEAR(events[0].dur, tree_us, 1);
}

TEST(TraceTest, ConcurrentSpansAllRecordedAndJsonWellFormed) {
  const char* path = "obs_test_trace_mt.json";
  auto& recorder = TraceRecorder::Get();
  recorder.Start(path);
  constexpr int kThreads = 8;
  constexpr int kSpans = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kSpans; ++i) {
        prof::Scope span(prof::kSpan, "mt_span");
        span.Arg("thread", t);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(recorder.EventCount(),
            static_cast<size_t>(kThreads) * kSpans);
  ASSERT_TRUE(recorder.Stop());

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string json = buffer.str();
  std::remove(path);

  // No event torn or dropped, and the JSON stays structurally sound under
  // contention.
  auto events = ParseEvents(json);
  EXPECT_EQ(events.size(), static_cast<size_t>(kThreads) * kSpans);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
}

// JSON has no NaN or infinity: every exporter writes a non-finite value as
// null, so the metrics JSON, its JSONL form and the trace file all parse.
TEST(TraceTest, NonFiniteValuesExportAsNull) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto& registry = MetricsRegistry::Get();
  registry.GetGauge("test.nonfinite.gauge")->Set(nan);
  registry.GetSeries("test.nonfinite.series")
      ->Append(0, std::numeric_limits<double>::infinity());
  const char* path = "obs_test_trace_nonfinite.json";
  auto& recorder = TraceRecorder::Get();
  recorder.Start(path);
  {
    prof::Scope span(prof::kSpan, "test.nonfinite.span");
    span.Arg("loss", nan);
  }
  ASSERT_TRUE(recorder.Stop());
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream trace;
  trace << in.rdbuf();
  std::remove(path);

  const auto is_null = [](const json::Value* v) {
    return v != nullptr && v->type == json::Value::Type::kNull;
  };
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::Parse(registry.ToJson(), &doc, &error)) << error;
  EXPECT_TRUE(is_null(doc.Find("gauges")->Find("test.nonfinite.gauge")));
  const json::Value* series =
      doc.Find("series")->Find("test.nonfinite.series");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->array.size(), 1u);
  EXPECT_TRUE(is_null(&series->array[0].array[1]));

  std::istringstream lines(registry.ToJsonLines());
  std::string line;
  int nulls = 0;
  while (std::getline(lines, line)) {
    ASSERT_TRUE(json::Parse(line, &doc, &error)) << error << "\n" << line;
    const std::string name = doc.StringOr("name", "");
    if (name == "test.nonfinite.gauge") {
      nulls += is_null(doc.Find("value"));
    } else if (name == "test.nonfinite.series") {
      nulls += is_null(&doc.Find("value")->array[0].array[1]);
    }
  }
  EXPECT_EQ(nulls, 2);

  ASSERT_TRUE(json::Parse(trace.str(), &doc, &error)) << error;
  const json::Value* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 1u);
  EXPECT_EQ(events->array[0].StringOr("name", ""), "test.nonfinite.span");
  EXPECT_TRUE(is_null(events->array[0].Find("args")->Find("loss")));
}

TEST(PhaseCaptureTest, CapturesOnlyTheOwningThread) {
  // Several threads run spans of the same phase concurrently; each
  // thread's capture must account only its own spans — this is what keeps
  // per-run phase breakdowns honest when seeds train in parallel.
  constexpr int kThreads = 4;
  constexpr int kSpans = 20;
  prof::ScopedEnabled on(true);
  prof::Reset();
  int64_t captured[kThreads] = {0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PhaseCapture capture;
      for (int i = 0; i < kSpans; ++i) {
        prof::Scope span(prof::kSpan, "mt_phase");
        volatile double sink = 0;
        for (int j = 0; j < 20000; ++j) sink = sink + j * 0.5;
      }
      captured[t] = capture.Micros("mt_phase");
    });
  }
  for (auto& thread : threads) thread.join();
  int64_t sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_GT(captured[t], 0) << t;
    sum += captured[t];
  }
  // The merged tree's phase node saw every span exactly once, so the
  // per-thread captures partition it (each capture rounds its own total
  // down to whole microseconds).
  const prof::ReportNode root = prof::Snapshot();
  const prof::ReportNode* phase = root.Child("mt_phase");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->count, kThreads * kSpans);
  EXPECT_LE(sum, phase->ns / 1000);
  EXPECT_GT(sum, phase->ns / 1000 - kThreads);
}

TEST(PhaseCaptureTest, InnerCaptureShadowsOuter) {
  PhaseCapture outer;
  {
    prof::Scope span(prof::kSpan, "shadow_phase");
    volatile double sink = 0;
    for (int i = 0; i < 50000; ++i) sink = sink + i * 0.5;
  }
  int64_t outer_before = outer.Micros("shadow_phase");
  EXPECT_GT(outer_before, 0);
  {
    PhaseCapture inner;
    {
      prof::Scope span(prof::kSpan, "shadow_phase");
      volatile double sink = 0;
      for (int i = 0; i < 50000; ++i) sink = sink + i * 0.5;
    }
    EXPECT_GT(inner.Micros("shadow_phase"), 0);
  }
  // The inner capture absorbed its span; the outer total is unchanged.
  EXPECT_EQ(outer.Micros("shadow_phase"), outer_before);
}

}  // namespace
}  // namespace obs
}  // namespace clfd
