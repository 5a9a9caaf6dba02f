// Tests for the perf-regression gate (tools/perfdiff) and the JSON parser
// underneath it (src/common/json): metric extraction from both artifact
// formats, direction-aware regression detection — including the canonical
// "2x MatMul slowdown must fail the gate" case — and parser error paths.

#include "perfdiff/perf_diff.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"

namespace clfd {
namespace {

json::Value MustParse(const std::string& text) {
  json::Value doc;
  std::string error;
  EXPECT_TRUE(json::Parse(text, &doc, &error)) << error;
  return doc;
}

// A minimal google-benchmark document with one iteration row, one
// aggregate row (must be skipped), and custom counters, at a given MatMul
// time scale.
std::string BenchDoc(double matmul_scale) {
  std::string ns = std::to_string(1000.0 * matmul_scale);
  std::string rate = std::to_string(2.0e9 / matmul_scale);
  return std::string("{\"benchmarks\":[") +
         "{\"name\":\"BM_MatMul/50\",\"run_type\":\"iteration\"," +
         "\"iterations\":100,\"real_time\":" + ns +
         ",\"cpu_time\":" + ns + ",\"time_unit\":\"ns\"," +
         "\"items_per_second\":" + rate + "}," +
         "{\"name\":\"BM_MatMul/50_mean\",\"run_type\":\"aggregate\"," +
         "\"aggregate_name\":\"mean\",\"real_time\":1.0," +
         "\"time_unit\":\"ns\"}," +
         "{\"name\":\"BM_Train\",\"run_type\":\"iteration\"," +
         "\"real_time\":2.5,\"cpu_time\":2.5,\"time_unit\":\"ms\"," +
         "\"heap_allocs_per_step\":40}]}";
}

TEST(JsonParser, ParsesScalarsContainersAndEscapes) {
  json::Value doc = MustParse(
      "{\"a\":[1,2.5,-3e2],\"s\":\"q\\\"\\u0041\",\"t\":true,\"n\":null}");
  ASSERT_TRUE(doc.IsObject());
  const json::Value* a = doc.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->IsArray());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
  EXPECT_EQ(doc.StringOr("s", ""), "q\"A");
  EXPECT_TRUE(doc.Find("t")->boolean);
  EXPECT_EQ(doc.Find("n")->type, json::Value::Type::kNull);
  EXPECT_EQ(doc.NumberOr("missing", -1.0), -1.0);
}

TEST(JsonParser, ReportsErrorsWithPosition) {
  json::Value doc;
  std::string error;
  EXPECT_FALSE(json::Parse("{\"a\":}", &doc, &error));
  EXPECT_NE(error.find("1:"), std::string::npos);
  EXPECT_FALSE(json::Parse("[1,2", &doc, &error));
  EXPECT_FALSE(json::Parse("{} trailing", &doc, &error));
  EXPECT_FALSE(json::Parse("", &doc, &error));
  // Depth bomb stops at the recursion cap instead of overflowing.
  std::string deep(200, '[');
  EXPECT_FALSE(json::Parse(deep, &doc, &error));
  EXPECT_NE(error.find("too deep"), std::string::npos);
}

TEST(PerfDiffExtract, BenchmarkRowsNormalizedAggregatesSkipped) {
  std::vector<perfdiff::Metric> ms =
      perfdiff::ExtractMetrics(MustParse(BenchDoc(1.0)));
  auto find = [&](const std::string& key) -> const perfdiff::Metric* {
    for (const perfdiff::Metric& m : ms) {
      if (m.key == key) return &m;
    }
    return nullptr;
  };
  const perfdiff::Metric* mm = find("BM_MatMul/50 real_time");
  ASSERT_NE(mm, nullptr);
  EXPECT_DOUBLE_EQ(mm->value, 1000.0);
  EXPECT_FALSE(mm->higher_is_better);
  // items_per_second is a rate: higher is better.
  const perfdiff::Metric* rate = find("BM_MatMul/50 items_per_second");
  ASSERT_NE(rate, nullptr);
  EXPECT_TRUE(rate->higher_is_better);
  // ms-unit times are normalized to ns so thresholds compare like units.
  const perfdiff::Metric* train = find("BM_Train real_time");
  ASSERT_NE(train, nullptr);
  EXPECT_DOUBLE_EQ(train->value, 2.5e6);
  // Custom counters come through; aggregate rows and meta fields do not.
  EXPECT_NE(find("BM_Train heap_allocs_per_step"), nullptr);
  EXPECT_EQ(find("BM_MatMul/50_mean real_time"), nullptr);
  EXPECT_EQ(find("BM_MatMul/50 iterations"), nullptr);
}

TEST(PerfDiffExtract, ProfileTreesKeyByScopePath) {
  json::Value doc = MustParse(
      "{\"tree\":{\"name\":\"root\",\"ns\":100,\"children\":["
      "{\"name\":\"pretrain\",\"ns\":90,\"children\":["
      "{\"name\":\"MatMul\",\"ns\":60,\"gflops\":1.5}]}]}}");
  std::vector<perfdiff::Metric> ms = perfdiff::ExtractMetrics(doc);
  bool found_ns = false, found_gflops = false;
  for (const perfdiff::Metric& m : ms) {
    if (m.key == "root;pretrain;MatMul ns") {
      found_ns = true;
      EXPECT_FALSE(m.higher_is_better);
    }
    if (m.key == "root;pretrain;MatMul gflops") {
      found_gflops = true;
      EXPECT_TRUE(m.higher_is_better);
    }
  }
  EXPECT_TRUE(found_ns);
  EXPECT_TRUE(found_gflops);
}

TEST(PerfDiffGate, IdenticalInputsPass) {
  std::vector<perfdiff::Metric> base =
      perfdiff::ExtractMetrics(MustParse(BenchDoc(1.0)));
  perfdiff::DiffResult result = perfdiff::Diff(base, base, {});
  EXPECT_EQ(result.regressions, 0);
  EXPECT_TRUE(result.only_baseline.empty());
  EXPECT_TRUE(result.only_current.empty());
  for (const perfdiff::DeltaRow& row : result.rows) {
    EXPECT_DOUBLE_EQ(row.ratio, 1.0) << row.key;
  }
}

TEST(PerfDiffGate, TwoXMatMulSlowdownFails) {
  std::vector<perfdiff::Metric> base =
      perfdiff::ExtractMetrics(MustParse(BenchDoc(1.0)));
  std::vector<perfdiff::Metric> slow =
      perfdiff::ExtractMetrics(MustParse(BenchDoc(2.0)));
  perfdiff::DiffOptions options;  // default 50% threshold
  perfdiff::DiffResult result = perfdiff::Diff(base, slow, options);
  // Both the 2x time growth and the halved items/s register; BM_Train rows
  // are unchanged and must not.
  EXPECT_GE(result.regressions, 2);
  ASSERT_FALSE(result.rows.empty());
  // Ranked worst-first: the top row is a real regression.
  EXPECT_TRUE(result.rows[0].regression);
  const std::string table = perfdiff::FormatTable(result, options);
  EXPECT_NE(table.find("REGRESSED"), std::string::npos);
  // The reverse direction is an improvement, not a regression.
  EXPECT_EQ(perfdiff::Diff(slow, base, options).regressions, 0);
}

TEST(PerfDiffGate, ThresholdAndDirectionRespected) {
  std::vector<perfdiff::Metric> base{{"t ns", 100.0, false},
                                     {"r per_second", 100.0, true}};
  std::vector<perfdiff::Metric> cur{{"t ns", 140.0, false},
                                    {"r per_second", 72.0, true}};
  perfdiff::DiffOptions loose;
  loose.threshold = 0.5;
  EXPECT_EQ(perfdiff::Diff(base, cur, loose).regressions, 0);
  perfdiff::DiffOptions tight;
  tight.threshold = 0.25;
  // 1.4x time and 1/0.72 = 1.39x rate drop both exceed 25%.
  EXPECT_EQ(perfdiff::Diff(base, cur, tight).regressions, 2);
  // min_value filters noise-floor metrics out of the comparison.
  perfdiff::DiffOptions floor = tight;
  floor.min_value = 1000.0;
  EXPECT_EQ(perfdiff::Diff(base, cur, floor).regressions, 0);
}

TEST(PerfDiffGate, RepetitionRowsAggregateToBestObservation) {
  // --benchmark_repetitions emits one iteration row per repetition, all
  // with the same name. Duplicates aggregate to the best observation (min
  // for times, max for rates) instead of keeping only the first row.
  std::vector<perfdiff::Metric> base{{"t ns", 100.0, false},
                                     {"t ns", 90.0, false},
                                     {"r per_second", 50.0, true},
                                     {"r per_second", 60.0, true}};
  std::vector<perfdiff::Metric> cur{{"t ns", 400.0, false},
                                    {"t ns", 95.0, false},
                                    {"r per_second", 58.0, true},
                                    {"r per_second", 45.0, true}};
  perfdiff::DiffResult result = perfdiff::Diff(base, cur, {});
  ASSERT_EQ(result.rows.size(), 2u);
  // Best-vs-best (90 → 95 ns, 60 → 58 /s) is within the default threshold;
  // first-row-vs-first-row (100 → 400 ns) would have gated.
  EXPECT_EQ(result.regressions, 0);
  for (const perfdiff::DeltaRow& row : result.rows) {
    if (row.key == "t ns") {
      EXPECT_DOUBLE_EQ(row.baseline, 90.0);
      EXPECT_DOUBLE_EQ(row.current, 95.0);
    } else {
      EXPECT_EQ(row.key, "r per_second");
      EXPECT_DOUBLE_EQ(row.baseline, 60.0);
      EXPECT_DOUBLE_EQ(row.current, 58.0);
    }
  }
}

TEST(PerfDiffGate, AddedAndRemovedMetricsListedNotGated) {
  std::vector<perfdiff::Metric> base{{"a ns", 10.0, false},
                                     {"gone ns", 10.0, false}};
  std::vector<perfdiff::Metric> cur{{"a ns", 10.0, false},
                                    {"new ns", 10.0, false}};
  perfdiff::DiffResult result = perfdiff::Diff(base, cur, {});
  EXPECT_EQ(result.regressions, 0);
  ASSERT_EQ(result.only_baseline.size(), 1u);
  EXPECT_EQ(result.only_baseline[0], "gone ns");
  ASSERT_EQ(result.only_current.size(), 1u);
  EXPECT_EQ(result.only_current[0], "new ns");
  const std::string table = perfdiff::FormatTable(result, {});
  EXPECT_NE(table.find("removed    gone ns"), std::string::npos);
  EXPECT_NE(table.find("added      new ns"), std::string::npos);
}

TEST(PerfDiffPlanSpeedups, PairsPlanAgainstDynamicWithinOneArtifact) {
  // The corrector E2E benchmark at two backends, each with a plan:0/plan:1
  // pair, plus repetition duplicates (keep the min) and a plan-less
  // benchmark that must be ignored.
  std::vector<perfdiff::Metric> ms{
      {"BM_CorrectorE2E/backend:0/plan:0 real_time", 6000.0, false},
      {"BM_CorrectorE2E/backend:0/plan:1 real_time", 5000.0, false},
      {"BM_CorrectorE2E/backend:0/plan:1 real_time", 4000.0, false},
      {"BM_CorrectorE2E/backend:2/plan:0 real_time", 3000.0, false},
      {"BM_CorrectorE2E/backend:2/plan:1 real_time", 2000.0, false},
      {"BM_CorrectorE2E/backend:2/plan:1 plan_replays_per_iter", 9.0, false},
      {"BM_AdamStep real_time", 100.0, false},
  };
  std::vector<perfdiff::PlanSpeedupRow> rows = perfdiff::PlanSpeedups(ms);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key, "BM_CorrectorE2E/backend:0");
  EXPECT_DOUBLE_EQ(rows[0].dynamic_time, 6000.0);
  EXPECT_DOUBLE_EQ(rows[0].planned_time, 4000.0);
  EXPECT_DOUBLE_EQ(rows[0].speedup, 1.5);
  EXPECT_EQ(rows[1].key, "BM_CorrectorE2E/backend:2");
  EXPECT_DOUBLE_EQ(rows[1].speedup, 1.5);
  const std::string table = perfdiff::FormatPlanSpeedups(rows);
  EXPECT_NE(table.find("speedups vs dynamic tape"), std::string::npos);
  EXPECT_NE(table.find("1.50x"), std::string::npos);
}

TEST(PerfDiffPlanSpeedups, UnpairedPlanRowsProduceNoPair) {
  std::vector<perfdiff::Metric> ms{
      {"BM_CorrectorE2E/plan:1 real_time", 2000.0, false},
      {"BM_PlanReplay real_time", 500.0, false},
  };
  EXPECT_TRUE(perfdiff::PlanSpeedups(ms).empty());
  EXPECT_EQ(perfdiff::FormatPlanSpeedups({}), "");
}

}  // namespace
}  // namespace clfd
