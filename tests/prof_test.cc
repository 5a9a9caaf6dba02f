// Tests for the hierarchical profiler (src/obs/prof): scope-tree shape,
// exact analytic FLOP attribution for the instrumented kernels,
// byte-identical deterministic reports across thread widths 1/2/4, trace
// and profiler context propagation through parallel::ParallelFor, and the
// >= 95% wall-time attribution acceptance on an end-to-end corrector run.

#include "obs/prof.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "tensor/matrix.h"

namespace clfd {
namespace {

using obs::prof::ReportNode;

// Depth-first search for the first node with `name` anywhere in the tree.
const ReportNode* FindNode(const ReportNode& node, const std::string& name) {
  if (node.name == name) return &node;
  for (const ReportNode& c : node.children) {
    const ReportNode* found = FindNode(c, name);
    if (found != nullptr) return found;
  }
  return nullptr;
}

// Keeps loop results observable so the busy-work bodies aren't elided.
void Sink(double v) {
  volatile double sink = v;
  (void)sink;
}

// Restores the default pool width when a test resizes it.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { parallel::SetGlobalThreads(n); }
  ~ScopedThreads() { parallel::SetGlobalThreads(0); }
};

TEST(ProfScope, NestedScopesBuildTree) {
  obs::prof::ScopedEnabled on(true);
  obs::prof::Reset();
  {
    obs::prof::Scope outer("test.phase");
    obs::prof::AddFlops(5);
    {
      obs::prof::Scope inner("test.kernel");
      obs::prof::AddFlops(7);
      obs::prof::AddBytes(11);
    }
    {
      obs::prof::Scope inner("test.kernel");
    }
  }
  ReportNode root = obs::prof::Snapshot();
  const ReportNode* phase = root.Child("test.phase");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->count, 1);
  EXPECT_EQ(phase->flops, 5);
  const ReportNode* kernel = phase->Child("test.kernel");
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->count, 2);
  EXPECT_EQ(kernel->flops, 7);
  EXPECT_EQ(kernel->bytes, 11);
  // Inclusive timing: the phase covers its kernels.
  EXPECT_GE(phase->ns, kernel->ns);
  EXPECT_EQ(root.TotalFlops(), 12);
  EXPECT_EQ(root.TotalBytes(), 11);
}

TEST(ProfScope, DisabledScopesRecordNothing) {
  obs::prof::ScopedEnabled off(false);
  obs::prof::Reset();
  {
    obs::prof::Scope s("test.ghost");
    obs::prof::AddFlops(123);
  }
  ReportNode root = obs::prof::Snapshot();
  EXPECT_EQ(root.Child("test.ghost"), nullptr);
  EXPECT_EQ(root.TotalFlops(), 0);
}

TEST(ProfFlops, MatMulMatchesAnalyticCount) {
  obs::prof::ScopedEnabled on(true);
  obs::prof::Reset();
  Rng rng(1);
  Matrix a = Matrix::Randn(7, 13, 1.0f, &rng);
  Matrix b = Matrix::Randn(13, 5, 1.0f, &rng);
  {
    obs::prof::Scope s("test.mm");
    MatMul(a, b);
    MatMul(a, b);
  }
  ReportNode root = obs::prof::Snapshot();
  const ReportNode* mm = root.Child("test.mm")->Child("MatMul");
  ASSERT_NE(mm, nullptr);
  EXPECT_EQ(mm->count, 2);
  EXPECT_EQ(mm->flops, 2 * int64_t{2} * 7 * 13 * 5);
  EXPECT_GT(mm->bytes, 0);
}

TEST(ProfFlops, LstmGatesMatchAnalyticCounts) {
  obs::prof::ScopedEnabled on(true);
  obs::prof::Reset();
  const int b = 4, h = 3;
  Rng rng(2);
  Matrix pre = Matrix::Randn(b, 4 * h, 1.0f, &rng);
  Matrix hc_prev = Matrix::Randn(b, 2 * h, 1.0f, &rng);
  Matrix hc(b, 2 * h);
  Matrix acts(b, 5 * h);
  {
    obs::prof::Scope s("test.lstm");
    LstmGatesForward(pre, hc_prev, &hc, &acts);
    Matrix gout = Matrix::Randn(b, 2 * h, 1.0f, &rng);
    Matrix dpre(b, 4 * h);
    Matrix dhc_prev(b, 2 * h);
    LstmGatesBackward(gout, acts, hc_prev, &dpre, &dhc_prev);
  }
  ReportNode root = obs::prof::Snapshot();
  const ReportNode* fwd = root.Child("test.lstm")->Child("LstmGatesForward");
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(fwd->flops, int64_t{12} * b * h);
  const ReportNode* bwd = root.Child("test.lstm")->Child("LstmGatesBackward");
  ASSERT_NE(bwd, nullptr);
  EXPECT_EQ(bwd->flops, int64_t{20} * b * h);
}

// The same forced-parallel workload, run at a given pool width; returns the
// deterministic (timing-free) report. Byte-identical output across widths
// is the merge-determinism acceptance check: scope structure, counts,
// flops, and bytes may not depend on how chunks land on workers. The jobs
// are submitted from inside a span, so with a trace recording the workers
// also write their context events.
std::string DeterministicReportAtWidth(int width) {
  ScopedThreads threads(width);
  ScopedMatmulParallelThreshold force_parallel(0);
  obs::prof::Reset();
  Rng rng(3);
  Matrix a = Matrix::Randn(24, 16, 1.0f, &rng);
  Matrix b = Matrix::Randn(16, 8, 1.0f, &rng);
  {
    obs::prof::Scope phase(obs::prof::kSpan, "test.det");
    for (int i = 0; i < 3; ++i) {
      MatMul(a, b);
      MatMulTransposeB(a, Matrix::Randn(8, 16, 1.0f, &rng));
      parallel::ParallelFor(0, 40, 7, [](int64_t, int64_t) {});
    }
  }
  return obs::prof::ToJson(obs::prof::Snapshot(), /*include_timing=*/false);
}

TEST(ProfDeterminism, ReportsByteIdenticalAcrossWidths) {
  obs::prof::ScopedEnabled on(true);
  const std::string path = ::testing::TempDir() + "clfd_prof_det_trace.json";
  obs::TraceRecorder& rec = obs::TraceRecorder::Get();
  rec.Start(path);
  const std::string w1 = DeterministicReportAtWidth(1);
  const std::string w2 = DeterministicReportAtWidth(2);
  const std::string w4 = DeterministicReportAtWidth(4);
  EXPECT_GT(rec.EventCount(), 0u);
  ASSERT_TRUE(rec.Stop());
  std::remove(path.c_str());
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1, w4);
  // Sanity: the deterministic form really is the deterministic mode and
  // carries no timing fields.
  EXPECT_NE(w1.find("\"mode\":\"deterministic\""), std::string::npos);
  EXPECT_EQ(w1.find("\"ns\":"), std::string::npos);
  EXPECT_EQ(w1.find("\"gflops\":"), std::string::npos);
}

TEST(ProfContext, WorkerScopesNestUnderSubmitterPath) {
  obs::prof::ScopedEnabled on(true);
  ScopedThreads threads(4);
  obs::prof::Reset();
  {
    obs::prof::Scope phase("test.ctx");
    parallel::ParallelFor(0, 64, 4, [](int64_t lo, int64_t hi) {
      double sink = 0;
      for (int64_t i = lo; i < hi; ++i) sink += static_cast<double>(i);
      Sink(sink);
    });
  }
  ReportNode root = obs::prof::Snapshot();
  const ReportNode* phase = root.Child("test.ctx");
  ASSERT_NE(phase, nullptr);
  // All 16 chunks land under the submitting scope, wherever they ran; and
  // no parallel.chunk node dangles at top level.
  const ReportNode* chunk = phase->Child("parallel.chunk");
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(chunk->count, 16);
  EXPECT_EQ(root.Child("parallel.chunk"), nullptr);
}

TEST(ProfContext, ConcurrentSpansPropagateToWorkers) {
  obs::prof::ScopedEnabled on(true);
  ScopedThreads threads(4);
  const std::string path = ::testing::TempDir() + "clfd_prof_trace.json";
  obs::TraceRecorder& rec = obs::TraceRecorder::Get();
  rec.Start(path);
  {
    obs::prof::Scope span(obs::prof::kSpan, "test.trace_phase");
    parallel::ParallelFor(0, 16, 1, [](int64_t, int64_t) {
      obs::prof::Scope inner(obs::prof::kSpan, "test.worker_op");
      // Slow chunks: on a single-core host the submitting thread would
      // otherwise drain every chunk before a worker ever wakes, and the
      // worker-side context events under test would never be emitted.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
  }
  ASSERT_TRUE(rec.Stop());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream os;
  os << in.rdbuf();
  const std::string trace = os.str();
  std::remove(path.c_str());
  // Workers got one synthetic enclosing event named after the innermost
  // entry of the submitter's path, carrying the full path as a "ctx" arg;
  // the body's spans recorded without corruption. No other event exists —
  // in particular no second per-worker (shard) event.
  EXPECT_NE(trace.find("\"ctx\":\"test.trace_phase\""), std::string::npos);
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::Parse(trace, &doc, &error)) << error;
  const json::Value* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  int spans = 0, contexts = 0, worker_ops = 0;
  for (const json::Value& e : events->array) {
    const std::string name = e.StringOr("name", "");
    const json::Value* args = e.Find("args");
    if (name == "test.worker_op") {
      ++worker_ops;
    } else if (name == "test.trace_phase" && args != nullptr &&
               args->Find("ctx") != nullptr) {
      ++contexts;
    } else {
      EXPECT_EQ(name, "test.trace_phase") << "unexpected event";
      ++spans;
    }
  }
  EXPECT_EQ(spans, 1);
  EXPECT_EQ(worker_ops, 16);
  // At most one context event per worker for the one job.
  EXPECT_GE(contexts, 1);
  EXPECT_LE(contexts, 3);
}

// The timing JSON's thread_pool section copies "parallel.*" entries out of
// the metrics registry's JSON, where the shard-skew histogram is a nested
// object; a scalar-style scrape cut it at its first comma and emitted
// unparseable output. The whole report must stay valid JSON.
TEST(ProfRender, TimingJsonStaysValidWithNestedPoolHistogram) {
  obs::prof::ScopedEnabled on(true);
  ScopedThreads threads(4);
  obs::prof::Reset();
  // Make the histogram's presence deterministic rather than dependent on
  // the pooled run below recording nonzero chunk times.
  obs::MetricsRegistry::Get()
      .GetHistogram("parallel.shard_skew",
                    obs::Histogram::LinearBounds(1.0, 0.25, 16))
      ->Record(1.5);
  {
    obs::prof::Scope phase("test.json_valid");
    parallel::ParallelFor(0, 64, 4, [](int64_t lo, int64_t hi) {
      double sink = 0;
      for (int64_t i = lo; i < hi; ++i) sink += static_cast<double>(i);
      Sink(sink);
    });
  }
  const std::string out =
      obs::prof::ToJson(obs::prof::Snapshot(), /*include_timing=*/true);
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::Parse(out, &doc, &error)) << error << "\n" << out;
  const json::Value* pool = doc.Find("thread_pool");
  ASSERT_NE(pool, nullptr);
  ASSERT_TRUE(pool->IsObject());
  const json::Value* skew = pool->Find("parallel.shard_skew");
  ASSERT_NE(skew, nullptr);
  // The histogram came through as the full nested object, not a prefix.
  ASSERT_TRUE(skew->IsObject());
  EXPECT_GE(skew->NumberOr("count", 0.0), 1.0);
}

// Quiescence contract: a worker that picks a job up but claims zero chunks
// still re-roots its profiler tree; the join must order that teardown
// before the submitter's Snapshot/Reset. Two chunks across four lanes
// leaves at least two zero-chunk participants per iteration; run under
// TSan this is the regression check for the handshake.
TEST(ProfContext, ZeroChunkWorkersQuiesceBeforeSnapshotReset) {
  obs::prof::ScopedEnabled on(true);
  ScopedThreads threads(4);
  for (int i = 0; i < 200; ++i) {
    obs::prof::Reset();
    {
      obs::prof::Scope phase("test.zero_chunk");
      parallel::ParallelFor(0, 2, 1, [](int64_t, int64_t) {});
    }
    ReportNode root = obs::prof::Snapshot();
    const ReportNode* phase = root.Child("test.zero_chunk");
    ASSERT_NE(phase, nullptr);
    ASSERT_NE(phase->Child("parallel.chunk"), nullptr);
    EXPECT_EQ(phase->Child("parallel.chunk")->count, 2);
  }
}

TEST(ProfRender, CollapsedStacksAndRooflineRender) {
  ReportNode root{"root", 0, 0, 0, 0, {}};
  ReportNode phase{"phase", 5'000'000, 1, 0, 0, {}};
  phase.children.push_back(ReportNode{"MatMul", 4'000'000, 10, 8'000'000,
                                      2'000'000, {}});
  root.children.push_back(phase);
  root.ns = phase.ns;

  const std::string collapsed = obs::prof::ToCollapsed(root);
  // Inclusive minus children: 1 ms of self time for the phase, 4 ms for
  // the kernel, in flamegraph "path weight" form.
  EXPECT_NE(collapsed.find("phase 1000\n"), std::string::npos);
  EXPECT_NE(collapsed.find("phase;MatMul 4000\n"), std::string::npos);

  const std::string roofline = obs::prof::RooflineReport(root, 10.0);
  EXPECT_NE(roofline.find("MatMul"), std::string::npos);
  EXPECT_NE(roofline.find("%peak"), std::string::npos);
  // 8 MFLOP over 4 ms = 2 GFLOP/s; at a 10 GFLOP/s peak that is 20%.
  EXPECT_NE(roofline.find("2.00"), std::string::npos);
  EXPECT_NE(roofline.find("20.0%"), std::string::npos);

  EXPECT_DOUBLE_EQ(obs::prof::AttributedFraction(phase), 0.8);
}

// Acceptance: on an end-to-end corrector experiment, at least 95% of the
// run scope's wall-time is attributed to child scopes (phases, ops,
// kernels) — the profiler sees essentially everything the run does.
TEST(ProfAttribution, CorrectorRunIsAtLeast95PercentAttributed) {
  obs::prof::ScopedEnabled on(true);
  obs::prof::Reset();
  SplitSpec split{60, 6, 30, 6};
  ClfdConfig config = ClfdConfig::Fast();
  config.emb_dim = 16;
  config.hidden_dim = 16;
  config.batch_size = 24;
  config.aux_batch_size = 4;
  config.budget = {2, 30, 2};
  RunSweep({{"corrector", kLabelCorrector, config, DatasetKind::kWiki, split,
             NoiseSpec::Uniform(0.45)}},
           /*seeds=*/1);
  ReportNode root = obs::prof::Snapshot();
  const ReportNode* run = FindNode(root, "corrector_run");
  ASSERT_NE(run, nullptr);
  EXPECT_GE(obs::prof::AttributedFraction(*run), 0.95)
      << obs::prof::RooflineReport(root);
}

}  // namespace
}  // namespace clfd
