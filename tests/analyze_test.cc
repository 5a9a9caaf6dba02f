// Unit tests for tools/analyze: every analyzer rule has a positive fixture
// (the rule fires), a negative fixture (clean code does not fire), and,
// where a pragma can suppress it, a pragma fixture (the same violation
// suppressed by an allow-pragma). The violating snippets live in string
// literals, which the analyzer's own string-stripper blanks out — so this
// file stays clean under `analyze.repo` even though it spells out every
// forbidden pattern.
//
// The nested-parallel-for, blocking-in-worker, and scoped-state-escape
// positives are deliberately shaped so that no per-line token rule could
// catch them: the offending token sequence is split across lines and only
// becomes a violation because of *where* it sits (inside a worker lambda,
// or in a lambda declared after the scoped object) — which requires the
// flow model, not a grep.

#include "analyze/analyze.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"

namespace clfd {
namespace analyze {
namespace {

int CountRule(const std::vector<Diagnostic>& ds, const std::string& rule) {
  return static_cast<int>(
      std::count_if(ds.begin(), ds.end(),
                    [&](const Diagnostic& d) { return d.rule == rule; }));
}

// Joins snippet lines so fixtures stay readable at use sites.
std::string Lines(std::initializer_list<const char*> lines) {
  std::string out;
  for (const char* l : lines) {
    out += l;
    out += "\n";
  }
  return out;
}

// Runs the whole-program analysis on an in-memory file set. Layering
// fixtures use a small three-layer module table (a < b < c) so they do
// not depend on the real tree's layer assignments; the real modules stay
// declared so fixtures at real paths (src/core/...) are not unknown.
std::vector<Diagnostic> Analyze(std::vector<FileInput> files) {
  Options opts;
  opts.layers.insert({{"a", 0}, {"b", 1}, {"c", 2}});
  return AnalyzeProgram(files, opts);
}

std::vector<Diagnostic> AnalyzeOne(const std::string& path,
                                   const std::string& content) {
  return Analyze({FileInput{path, content}});
}

// Diagnostics of `rule` in a one-line file at `path`.
int Hits(const std::string& path, const std::string& code,
         const std::string& rule) {
  return CountRule(AnalyzeOne(path, code + "\n"), rule);
}

constexpr char kModelPath[] = "src/core/clfd.cc";
constexpr char kInfraPath[] = "src/parallel/thread_pool.cc";

// ---------------------------------------------------------------------------
// Rule registration

TEST(AnalyzeRules, AllRulesRegisteredAndUnique) {
  const std::vector<std::string>& names = RuleNames();
  EXPECT_EQ(names.size(), 21u);
  std::vector<std::string> sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
  for (const char* id :
       {kRuleLayeringUpward, kRuleLayeringCycle, kRuleLayeringUnknown,
        kRuleIncludeUnused, kRuleMutableGlobal, kRulePlanCaptureConfinement,
        kRuleNestedParallelFor, kRuleBlockingInWorker, kRuleScopeEscape,
        kRuleNonTreeAccumulation, kRuleDeterminismRand, kRuleDeterminismTime,
        kRuleDeterminismUnordered, kRuleRawThread, kRuleRawNew,
        kRuleLoggingStdio, kRuleUncheckedStreamWrite, kRulePragmaOnce,
        kRuleUsingNamespace, kRulePragmaUnused, kRuleDotStale}) {
    EXPECT_NE(std::find(names.begin(), names.end(), std::string(id)),
              names.end())
        << id;
  }
}

TEST(AnalyzeRules, DefaultLayersCoverKnownModulesAndCommonIsRoot) {
  const auto& layers = DefaultLayers();
  ASSERT_NE(layers.find("common"), layers.end());
  EXPECT_EQ(layers.at("common"), 0);
  for (const char* m : {"obs", "parallel", "tensor", "autograd", "nn",
                        "losses", "recovery", "encoders", "core",
                        "baselines", "eval", "data", "metrics", "augment",
                        "embedding"}) {
    EXPECT_NE(layers.find(m), layers.end()) << m;
  }
}

// ---------------------------------------------------------------------------
// Pass 1: layering

TEST(AnalyzeLayering, UpwardIncludeFires) {
  // b (layer 1) reaching up into c (layer 2).
  auto ds = Analyze({
      {"src/b/x.h", Lines({"#include \"c/y.h\"", "using c_t = int;"})},
      {"src/c/y.h", Lines({"struct Y {};"})},
  });
  EXPECT_EQ(CountRule(ds, kRuleLayeringUpward), 1);
  EXPECT_EQ(ds[0].path, "src/b/x.h");
  EXPECT_EQ(ds[0].line, 1);
}

TEST(AnalyzeLayering, SameRankPeersMustNotIncludeEachOther) {
  Options opts;
  opts.layers = {{"a", 0}, {"b", 1}, {"c", 1}};
  auto ds = AnalyzeProgram(
      {
          {"src/b/x.h", Lines({"#include \"c/y.h\"", "Y y;"})},
          {"src/c/y.h", Lines({"struct Y {};"})},
      },
      opts);
  EXPECT_EQ(CountRule(ds, kRuleLayeringUpward), 1);
}

TEST(AnalyzeLayering, DownwardIncludeIsClean) {
  auto ds = Analyze({
      {"src/c/y.cc", Lines({"#include \"b/x.h\"", "X x;"})},
      {"src/b/x.h", Lines({"struct X {};"})},
  });
  EXPECT_EQ(CountRule(ds, kRuleLayeringUpward), 0);
}

TEST(AnalyzeLayering, PragmaSuppressesUpwardInclude) {
  auto ds = Analyze({
      {"src/b/x.h",
       Lines({"// transitional; tracked for removal",
              "// clfd-analyze: allow(layering-upward-include)",
              "#include \"c/y.h\"", "Y y;"})},
      {"src/c/y.h", Lines({"struct Y {};"})},
  });
  EXPECT_EQ(CountRule(ds, kRuleLayeringUpward), 0);
}

TEST(AnalyzeLayering, CycleFires) {
  // a <-> b: the b->a edge is legal by rank, a->b is upward, and the
  // cycle detector reports the loop independently of the rank table.
  auto ds = Analyze({
      {"src/a/x.h", Lines({"#include \"b/y.h\"", "Y ya;"})},
      {"src/b/y.h", Lines({"#include \"a/x.h\"", "struct Y {};"})},
  });
  EXPECT_GE(CountRule(ds, kRuleLayeringCycle), 1);
  bool has_path = false;
  for (const Diagnostic& d : ds) {
    if (d.rule == kRuleLayeringCycle &&
        d.message.find("->") != std::string::npos) {
      has_path = true;
    }
  }
  EXPECT_TRUE(has_path);
}

TEST(AnalyzeLayering, AcyclicGraphHasNoCycleDiagnostics) {
  auto ds = Analyze({
      {"src/c/z.cc",
       Lines({"#include \"b/y.h\"", "#include \"a/x.h\"", "X x; Y y;"})},
      {"src/b/y.h", Lines({"#include \"a/x.h\"", "struct Y { X x; };"})},
      {"src/a/x.h", Lines({"struct X {};"})},
  });
  EXPECT_EQ(CountRule(ds, kRuleLayeringCycle), 0);
}

TEST(AnalyzeLayering, PragmaSuppressesCycleAtReportedEdge) {
  // The cycle is reported at the back edge's representative include site
  // (here: b's include of a, the first edge that closes the loop in DFS
  // order); the upward half is reported at a's include of b. Each site
  // carries its own pragma.
  auto ds = Analyze({
      {"src/a/x.h",
       Lines({"// quarantined legacy edge",
              "// clfd-analyze: allow(layering-upward-include)",
              "#include \"b/y.h\"", "Y ya;"})},
      {"src/b/y.h",
       Lines({"// quarantined legacy edge",
              "// clfd-analyze: allow(layering-cycle)",
              "#include \"a/x.h\"", "struct Y {};"})},
  });
  EXPECT_EQ(CountRule(ds, kRuleLayeringCycle), 0);
  EXPECT_EQ(CountRule(ds, kRuleLayeringUpward), 0);
}

TEST(AnalyzeLayering, UnknownModuleFires) {
  auto ds = AnalyzeOne("src/zz/new_thing.h", Lines({"struct T {};"}));
  EXPECT_EQ(CountRule(ds, kRuleLayeringUnknown), 1);
  EXPECT_EQ(ds[0].line, 1);
}

TEST(AnalyzeLayering, KnownModuleIsClean) {
  auto ds = AnalyzeOne("src/a/t.h", Lines({"struct T {};"}));
  EXPECT_EQ(CountRule(ds, kRuleLayeringUnknown), 0);
}

TEST(AnalyzeLayering, PragmaSuppressesUnknownModule) {
  auto ds = AnalyzeOne(
      "src/zz/new_thing.h",
      Lines({"// clfd-analyze: allow(layering-unknown-module)",
             "struct T {};"}));
  EXPECT_EQ(CountRule(ds, kRuleLayeringUnknown), 0);
}

// ---------------------------------------------------------------------------
// Pass 1: IWYU-lite

TEST(AnalyzeIwyu, UnusedIncludeFires) {
  auto ds = Analyze({
      {"src/b/user.cc",
       Lines({"#include \"a/x.h\"", "int main_like() { return 0; }"})},
      {"src/a/x.h", Lines({"struct X {};", "X MakeX();"})},
  });
  EXPECT_EQ(CountRule(ds, kRuleIncludeUnused), 1);
}

TEST(AnalyzeIwyu, ReferencedIncludeIsClean) {
  auto ds = Analyze({
      {"src/b/user.cc",
       Lines({"#include \"a/x.h\"", "X Use() { return MakeX(); }"})},
      {"src/a/x.h", Lines({"struct X {};", "X MakeX();"})},
  });
  EXPECT_EQ(CountRule(ds, kRuleIncludeUnused), 0);
}

TEST(AnalyzeIwyu, InlineFunctionDefinitionsAreExports) {
  // A header that also declares a type: calling only one of its inline
  // functions still uses it, and an out-of-class member definition exports
  // nothing.
  const std::string header = Lines(
      {"struct X { int Get() const; };",
       "inline int X::Get() const { return 1; }",
       "inline X MakeX() { return X{}; }"});
  auto used = Analyze({
      {"src/b/user.cc", Lines({"#include \"a/x.h\"",
                                "int Use() { MakeX(); return 0; }"})},
      {"src/a/x.h", header},
  });
  EXPECT_EQ(CountRule(used, kRuleIncludeUnused), 0);
  auto member_only = Analyze({
      {"src/b/user.cc",
       Lines({"#include \"a/x.h\"", "int Get() { return 0; }"})},
      {"src/a/x.h", header},
  });
  EXPECT_EQ(CountRule(member_only, kRuleIncludeUnused), 1);
}

TEST(AnalyzeIwyu, MacroUseCountsAsReference) {
  auto ds = Analyze({
      {"src/b/user.cc",
       Lines({"#include \"a/log.h\"",
              "void F() { A_LOG(\"hello\"); }"})},
      {"src/a/log.h", Lines({"#define A_LOG(msg) Emit(msg)"})},
  });
  EXPECT_EQ(CountRule(ds, kRuleIncludeUnused), 0);
}

TEST(AnalyzeIwyu, OwnHeaderAndSystemIncludesAreExempt) {
  auto ds = Analyze({
      {"src/a/x.cc",
       Lines({"#include \"a/x.h\"", "#include <vector>",
              "int Impl() { return 1; }"})},
      {"src/a/x.h", Lines({"struct X {};", "X MakeX();"})},
  });
  EXPECT_EQ(CountRule(ds, kRuleIncludeUnused), 0);
}

TEST(AnalyzeIwyu, PragmaSuppressesUnusedInclude) {
  auto ds = Analyze({
      {"src/b/user.cc",
       Lines({"// kept for its transitive platform shims",
              "// clfd-analyze: allow(include-unused)",
              "#include \"a/x.h\"", "int n;"})},
      {"src/a/x.h", Lines({"struct X {};"})},
  });
  EXPECT_EQ(CountRule(ds, kRuleIncludeUnused), 0);
}

// ---------------------------------------------------------------------------
// Pass 2: semantic-mutable-global

TEST(AnalyzeMutableGlobal, MultiLineStaticDeclarationFires) {
  // Split across three lines: a per-line token rule cannot see this
  // declaration, the symbol scanner can.
  auto ds = AnalyzeOne("src/a/model.cc",
                   Lines({"static", "std::vector<int>", "    g_cache;"}));
  ASSERT_EQ(CountRule(ds, kRuleMutableGlobal), 1);
  EXPECT_EQ(ds[0].line, 1);
  EXPECT_NE(ds[0].message.find("g_cache"), std::string::npos);
}

TEST(AnalyzeMutableGlobal, NamespaceScopeStateFires) {
  for (const char* decl :
       {"std::atomic<int> g_counter{0};", "thread_local int depth = 0;"}) {
    auto ds = AnalyzeOne("src/a/model.cc", Lines({decl}));
    EXPECT_EQ(CountRule(ds, kRuleMutableGlobal), 1) << decl;
  }
}

TEST(AnalyzeMutableGlobal, FunctionLocalStaticFires) {
  auto ds = AnalyzeOne(
      "src/a/model.cc",
      Lines({"int Next() {", "  static int calls = 0;",
             "  return ++calls;", "}"}));
  ASSERT_EQ(CountRule(ds, kRuleMutableGlobal), 1);
  EXPECT_EQ(ds[0].line, 2);
}

TEST(AnalyzeMutableGlobal, ConstAndFunctionShapesAreClean) {
  auto ds = AnalyzeOne(
      "src/a/model.cc",
      Lines({"static const int kTableSize = 64;",
             "static constexpr double kEps = 1e-6;",
             "static int Helper(int x) { return x + 1; }",
             "static Widget MakeWidget();",
             "static_assert(sizeof(int) == 4);"}));
  EXPECT_EQ(CountRule(ds, kRuleMutableGlobal), 0);
  // A header's static factory: template commas and parens in the return
  // type must not hide the call parens.
  ds = AnalyzeOne("src/a/model.h",
                  Lines({"#pragma once", "struct Grid {",
                         "  static std::vector<double> Bounds(int n);",
                         "};"}));
  EXPECT_EQ(CountRule(ds, kRuleMutableGlobal), 0);
}

TEST(AnalyzeMutableGlobal, InfraPathsAreExempt) {
  auto ds = AnalyzeOne("src/parallel/thread_pool.cc",
                   Lines({"static int g_pool_state = 0;"}));
  EXPECT_EQ(CountRule(ds, kRuleMutableGlobal), 0);
}

TEST(AnalyzeMutableGlobal, PragmaSuppresses) {
  auto ds = AnalyzeOne(
      "src/a/model.cc",
      Lines({"// dispatch selector; value never changes results",
             "// clfd-analyze: allow(semantic-mutable-global)",
             "std::atomic<int> g_backend{-1};"}));
  EXPECT_EQ(CountRule(ds, kRuleMutableGlobal), 0);
}

// ---------------------------------------------------------------------------
// Pass 2b: plan-capture-confinement

TEST(AnalyzePlanCapture, ProtocolReferenceOutsidePlanFires) {
  auto ds = AnalyzeOne(
      "src/a/layer.cc",
      Lines({"void Install() {",
             "  ag::SetTapeHooks(nullptr);", "}"}));
  ASSERT_EQ(CountRule(ds, kRulePlanCaptureConfinement), 1);
  EXPECT_EQ(ds[0].line, 2);
}

TEST(AnalyzePlanCapture, PlannerOutsideCaptureSitesFires) {
  auto ds = AnalyzeOne(
      "src/a/gce.cc",
      Lines({"float Loss() {",
             "  plan::Planner planner;",
             "  return 0.0f;", "}"}));
  ASSERT_EQ(CountRule(ds, kRulePlanCaptureConfinement), 1);
  EXPECT_EQ(ds[0].line, 2);
}

TEST(AnalyzePlanCapture, PlanAutogradAndTrainerSitesAreExempt) {
  const char* protocol = "ag::TapeHooks* h = ag::CurrentTapeHooks();";
  EXPECT_EQ(CountRule(AnalyzeOne("src/plan/plan.cc", Lines({protocol})),
                      kRulePlanCaptureConfinement),
            0);
  EXPECT_EQ(CountRule(AnalyzeOne("src/autograd/var.cc", Lines({protocol})),
                      kRulePlanCaptureConfinement),
            0);
  const char* api = "plan::Planner planner;";
  EXPECT_EQ(CountRule(AnalyzeOne("src/core/classifier_trainer.cc",
                                 Lines({api})),
                      kRulePlanCaptureConfinement),
            0);
  EXPECT_EQ(CountRule(AnalyzeOne("src/encoders/sharded_step.cc",
                                 Lines({api})),
                      kRulePlanCaptureConfinement),
            0);
}

TEST(AnalyzePlanCapture, TrainerSiteMayNotTouchProtocol) {
  // Capture sites get the Planner facade, not the raw hook protocol.
  auto ds = AnalyzeOne("src/core/classifier_trainer.cc",
                       Lines({"ag::SetTapeHooks(nullptr);"}));
  ASSERT_EQ(CountRule(ds, kRulePlanCaptureConfinement), 1);
}

TEST(AnalyzePlanCapture, MentionsInCommentsAndStringsAreClean) {
  auto ds = AnalyzeOne(
      "src/a/layer.cc",
      Lines({"// replay goes through plan::Planner, never SetTapeHooks",
             "const char* kMsg = \"ExecutionPlan\";"}));
  EXPECT_EQ(CountRule(ds, kRulePlanCaptureConfinement), 0);
}

TEST(AnalyzePlanCapture, PragmaSuppresses) {
  auto ds = AnalyzeOne(
      "src/a/layer.cc",
      Lines({"// test-only shim; replay semantics owned by the harness",
             "// clfd-analyze: allow(plan-capture-confinement)",
             "plan::Planner planner;"}));
  EXPECT_EQ(CountRule(ds, kRulePlanCaptureConfinement), 0);
}

// ---------------------------------------------------------------------------
// Pass 3: nested-parallel-for
//
// Seeded true positive: the inner submission happens through a helper
// lambda two scopes down, on its own line with innocuous tokens — only the
// worker-region flow model connects it to the enclosing ParallelFor.

TEST(AnalyzeConcurrency, NestedParallelForInsideWorkerFires) {
  auto ds = AnalyzeOne(
      "src/a/step.cc",
      Lines({"void Step(int64_t n) {",
             "  parallel::ParallelFor(0, n, 1, [&](int64_t b, int64_t e) {",
             "    auto inner = [&](int64_t m) {",
             "      parallel::ParallelFor(0, m, 1,",
             "                            [&](int64_t, int64_t) {});",
             "    };",
             "    inner(e - b);",
             "  });", "}"}));
  ASSERT_EQ(CountRule(ds, kRuleNestedParallelFor), 1);
  EXPECT_EQ(ds[0].line, 4);
}

TEST(AnalyzeConcurrency, SequentialParallelForsAreClean) {
  auto ds = AnalyzeOne(
      "src/a/step.cc",
      Lines({"void Step(int64_t n) {",
             "  parallel::ParallelFor(0, n, 1, [&](int64_t, int64_t) {});",
             "  parallel::ParallelFor(0, n, 1, [&](int64_t, int64_t) {});",
             "}"}));
  EXPECT_EQ(CountRule(ds, kRuleNestedParallelFor), 0);
}

TEST(AnalyzeConcurrency, TreeReduceInsideWorkerIsClean) {
  // The sharded_step.cc merge idiom: TreeReduce is a serial fold on the
  // calling thread, so invoking it per-chunk is fine.
  auto ds = AnalyzeOne(
      "src/a/step.cc",
      Lines({"void Merge(int64_t n) {",
             "  parallel::ParallelFor(0, n, 1, [&](int64_t lo, int64_t hi) {",
             "    for (int64_t p = lo; p < hi; ++p) {",
             "      parallel::TreeReduce(&slots, [](M** a, M* b) {",
             "        (*a)->Add(*b);", "      });", "    }",
             "  });", "}"}));
  EXPECT_EQ(CountRule(ds, kRuleNestedParallelFor), 0);
}

TEST(AnalyzeConcurrency, PragmaSuppressesNestedParallelFor) {
  auto ds = AnalyzeOne(
      "src/a/step.cc",
      Lines({"void Step(int64_t n) {",
             "  parallel::ParallelFor(0, n, 1, [&](int64_t b, int64_t e) {",
             "    // inline-by-design: inner loop is tiny and serial",
             "    // clfd-analyze: allow(nested-parallel-for)",
             "    parallel::ParallelFor(0, e - b, 1,",
             "                          [&](int64_t, int64_t) {});",
             "  });", "}"}));
  EXPECT_EQ(CountRule(ds, kRuleNestedParallelFor), 0);
}

// ---------------------------------------------------------------------------
// Pass 3: blocking-in-worker

TEST(AnalyzeConcurrency, LockGuardInsideWorkerFires) {
  auto ds = AnalyzeOne(
      "src/a/step.cc",
      Lines({"void Step(int64_t n) {",
             "  parallel::ParallelFor(0, n, 1, [&](int64_t b, int64_t e) {",
             "    std::lock_guard<std::mutex> g(mu_);",
             "    Consume(b, e);",
             "  });", "}"}));
  ASSERT_EQ(CountRule(ds, kRuleBlockingInWorker), 1);
  EXPECT_EQ(ds[0].line, 3);
}

TEST(AnalyzeConcurrency, FsyncAndMemberWaitInsideWorkerFire) {
  auto ds = AnalyzeOne(
      "src/a/step.cc",
      Lines({"void Step(int64_t n) {",
             "  parallel::ParallelFor(0, n, 1, [&](int64_t, int64_t) {",
             "    fsync(fd_);",
             "    cv_.wait(lk);",
             "  });", "}"}));
  EXPECT_EQ(CountRule(ds, kRuleBlockingInWorker), 2);
}

TEST(AnalyzeConcurrency, SameCallsOutsideWorkerAreClean) {
  auto ds = AnalyzeOne(
      "src/a/step.cc",
      Lines({"void Flush() {",
             "  std::lock_guard<std::mutex> g(mu_);",
             "  fsync(fd_);",
             "}"}));
  EXPECT_EQ(CountRule(ds, kRuleBlockingInWorker), 0);
}

TEST(AnalyzeConcurrency, PragmaSuppressesBlockingInWorker) {
  auto ds = AnalyzeOne(
      "src/a/step.cc",
      Lines({"void Step(int64_t n) {",
             "  parallel::ParallelFor(0, n, 1, [&](int64_t, int64_t) {",
             "    // error path only; never taken in steady state",
             "    // clfd-analyze: allow(blocking-in-worker)",
             "    std::lock_guard<std::mutex> g(mu_);",
             "  });", "}"}));
  EXPECT_EQ(CountRule(ds, kRuleBlockingInWorker), 0);
}

// ---------------------------------------------------------------------------
// Pass 3: scoped-state-escape
//
// Seeded true positive: the reference line `Use(scope);` is indistinguish-
// able from any other call by tokens alone; it is a violation only because
// `scope` is a ScopedArena declared *outside* the lambda that uses it.

TEST(AnalyzeConcurrency, ScopedStateCapturedByLambdaFires) {
  auto ds = AnalyzeOne(
      "src/a/step.cc",
      Lines({"void Train() {",
             "  arena::ScopedArena scope(&arena_);",
             "  auto work = [&]() {",
             "    Use(scope);",
             "  };",
             "  Defer(work);", "}"}));
  ASSERT_EQ(CountRule(ds, kRuleScopeEscape), 1);
  EXPECT_EQ(ds[0].line, 4);
}

TEST(AnalyzeConcurrency, ScopedThresholdEscapeFires) {
  auto ds = AnalyzeOne(
      "src/a/step.cc",
      Lines({"void Bench() {",
             "  ScopedMatmulParallelThreshold serial(kNever);",
             "  pool.Submit([&]() { Touch(serial); });",
             "}"}));
  EXPECT_EQ(CountRule(ds, kRuleScopeEscape), 1);
}

TEST(AnalyzeConcurrency, ScopedStateDeclaredInsideLambdaIsClean) {
  // The sharded_step.cc pattern: each worker chunk opens its own scope.
  auto ds = AnalyzeOne(
      "src/a/step.cc",
      Lines({"void Step(int64_t n) {",
             "  parallel::ParallelFor(0, n, 1, [&](int64_t lo, int64_t hi) {",
             "    arena::ScopedArena tape_scope(arenas_[lo].get());",
             "    Replay(tape_scope, lo, hi);",
             "  });", "}"}));
  EXPECT_EQ(CountRule(ds, kRuleScopeEscape), 0);
}

TEST(AnalyzeConcurrency, ScopedStateUsedInDeclaringFrameIsClean) {
  auto ds = AnalyzeOne(
      "src/a/step.cc",
      Lines({"void Train() {",
             "  arena::ScopedArena scope(&arena_);",
             "  Use(scope);",
             "}"}));
  EXPECT_EQ(CountRule(ds, kRuleScopeEscape), 0);
}

TEST(AnalyzeConcurrency, PragmaSuppressesScopeEscape) {
  auto ds = AnalyzeOne(
      "src/a/step.cc",
      Lines({"void Train() {",
             "  arena::ScopedArena scope(&arena_);",
             "  auto work = [&]() {",
             "    // lambda is invoked synchronously in this frame",
             "    // clfd-analyze: allow(scoped-state-escape)",
             "    Use(scope);",
             "  };",
             "  work();", "}"}));
  EXPECT_EQ(CountRule(ds, kRuleScopeEscape), 0);
}

// ---------------------------------------------------------------------------
// Pass 4: non-tree-accumulation (src/tensor and src/parallel only)

TEST(AnalyzeDeterminism, SharedScalarAccumulationInWorkerFires) {
  auto ds = AnalyzeOne(
      "src/tensor/reduce_ops.cc",
      Lines({"double SumAll(int64_t n) {",
             "  double total = 0.0;",
             "  parallel::ParallelFor(0, n, 1, [&](int64_t b, int64_t e) {",
             "    for (int64_t i = b; i < e; ++i) total += At(i);",
             "  });",
             "  return total;", "}"}));
  ASSERT_EQ(CountRule(ds, kRuleNonTreeAccumulation), 1);
  for (const Diagnostic& d : ds) {
    if (d.rule == kRuleNonTreeAccumulation) {
      EXPECT_EQ(d.line, 4);
      EXPECT_NE(d.message.find("TreeReduce"), std::string::npos);
    }
  }
}

TEST(AnalyzeDeterminism, DisjointSlotIdiomIsClean) {
  auto ds = AnalyzeOne(
      "src/tensor/reduce_ops.cc",
      Lines({"double SumAll(int64_t n, int64_t chunks) {",
             "  std::vector<double> slots(chunks, 0.0);",
             "  parallel::ParallelFor(0, n, 1, [&](int64_t b, int64_t e) {",
             "    double acc = 0.0;",
             "    for (int64_t i = b; i < e; ++i) acc += At(i);",
             "    slots[ChunkOf(b)] = acc;",
             "  });",
             "  return parallel::TreeSum(slots);", "}"}));
  EXPECT_EQ(CountRule(ds, kRuleNonTreeAccumulation), 0);
}

TEST(AnalyzeDeterminism, AuditIsScopedToTensorAndParallel) {
  // Identical accumulation outside the audited modules: out of scope
  // (training-loop sums are covered by the RunMetrics equality tests).
  auto ds = AnalyzeOne(
      "src/a/loop.cc",
      Lines({"double Sum(int64_t n) {",
             "  double total = 0.0;",
             "  parallel::ParallelFor(0, n, 1, [&](int64_t b, int64_t e) {",
             "    for (int64_t i = b; i < e; ++i) total += At(i);",
             "  });",
             "  return total;", "}"}));
  EXPECT_EQ(CountRule(ds, kRuleNonTreeAccumulation), 0);
}

TEST(AnalyzeDeterminism, PragmaSuppresses) {
  auto ds = AnalyzeOne(
      "src/parallel/pool_stats.cc",
      Lines({"double Stat(int64_t n) {",
             "  double total = 0.0;",
             "  parallel::ParallelFor(0, n, 1, [&](int64_t b, int64_t e) {",
             "    // diagnostics only; value never reaches RunMetrics",
             "    // clfd-analyze: allow(non-tree-accumulation)",
             "    for (int64_t i = b; i < e; ++i) total += At(i);",
             "  });",
             "  return total;", "}"}));
  EXPECT_EQ(CountRule(ds, kRuleNonTreeAccumulation), 0);
}

// ---------------------------------------------------------------------------
// Pass 2: scoped-state-escape, storage half. Static, namespace-scope,
// member, and heap placements all let a scope outlive the step that
// opened it.

TEST(AnalyzeScopedStorage, FlagsScopesThatCanOutliveAStep) {
  for (const char* code :
       {"arena::ScopedArena tape_scope_;",
        "auto s = std::make_unique<arena::ScopedArena>(&a);",
        "static arena::ScopedArena s(&a);"}) {
    EXPECT_EQ(Hits(kModelPath, code, kRuleScopeEscape), 1) << code;
  }
}

TEST(AnalyzeScopedStorage, StackLocalsAndAllowlistedFilesPass) {
  EXPECT_EQ(Hits(kModelPath, "arena::ScopedArena scope(&step_arena);",
                 kRuleScopeEscape),
            0);
  // Owning a (non-scope) Arena in a member container is the intended
  // pattern for per-shard arenas and must not fire.
  EXPECT_EQ(Hits(kModelPath,
                 "arenas_.push_back(std::make_unique<arena::Arena>());",
                 kRuleScopeEscape),
            0);
  // The arena implementation itself is infrastructure.
  EXPECT_EQ(Hits("src/tensor/arena.cc", "static arena::ScopedArena s(&a);",
                 kRuleScopeEscape),
            0);
  auto ds = AnalyzeOne(kModelPath,
                       Lines({"// clfd-analyze: allow(scoped-state-escape)",
                              "arena::ScopedArena keep_alive_;"}));
  EXPECT_EQ(CountRule(ds, kRuleScopeEscape), 0);
}

TEST(AnalyzeScopedStorage, MembersComeFromBraceContext) {
  // A member is whatever a class body declares, whatever its name; a
  // function-local static is static storage; a static member function
  // and a parameter of scoped type declare no object.
  auto ds = AnalyzeOne(
      kModelPath,
      Lines({"struct Trainer {",
             "  check::ScopedEnable checks;",
             "  static arena::ScopedArena* Current();",
             "  void Use(const arena::ScopedArena& s);",
             "};",
             "void Step() {",
             "  static arena::ScopedArena s(&a);",
             "  arena::ScopedArena local(&a);",
             "}"}));
  std::vector<int> lines;
  for (const Diagnostic& d : ds) {
    if (d.rule == kRuleScopeEscape) lines.push_back(d.line);
  }
  EXPECT_EQ(lines, (std::vector<int>{2, 7}));
}

// ---------------------------------------------------------------------------
// Pass 5: hygiene token rules (src/ minus the infrastructure allowlist)
// and header conventions (every header).

TEST(AnalyzeDeterminismRand, FlagsRawRngSources) {
  auto ds = AnalyzeOne(kModelPath, Lines({"int x = rand();"}));
  ASSERT_EQ(CountRule(ds, kRuleDeterminismRand), 1);
  EXPECT_EQ(ds[0].line, 1);
  EXPECT_EQ(Hits(kModelPath, "std::random_device rd;", kRuleDeterminismRand),
            1);
  EXPECT_EQ(Hits(kModelPath, "std::mt19937 gen(42);", kRuleDeterminismRand),
            1);
}

TEST(AnalyzeDeterminismRand, CleanSeededRngAndCommentsPass) {
  auto ds = AnalyzeOne(kModelPath, Lines({"// rand() would be wrong here",
                                          "Rng rng(seed);",
                                          "double u = rng.Uniform();"}));
  EXPECT_EQ(CountRule(ds, kRuleDeterminismRand), 0);
  // Identifier boundaries: Operand( must not read as rand(.
  EXPECT_EQ(Hits(kModelPath, "int y = Operand(3);", kRuleDeterminismRand), 0);
}

TEST(AnalyzeDeterminismRand, InfraAllowlistAndPragmaSuppress) {
  EXPECT_EQ(Hits("src/common/rng.cc", "std::mt19937_64 engine_(seed);",
                 kRuleDeterminismRand),
            0);
  EXPECT_EQ(Hits(kModelPath,
                 "int x = rand();  // clfd-analyze: allow(determinism-rand)",
                 kRuleDeterminismRand),
            0);
}

TEST(AnalyzeDeterminismTime, FlagsWallClockReads) {
  EXPECT_EQ(Hits(kModelPath, "auto t = Clock::now();", kRuleDeterminismTime),
            1);
  EXPECT_EQ(Hits(kModelPath, "time_t t = time(nullptr);",
                 kRuleDeterminismTime),
            1);
}

TEST(AnalyzeDeterminismTime, NegativesAndPrecedingLinePragma) {
  // time_point as a *type* has no call parens and must pass.
  EXPECT_EQ(Hits(kModelPath, "steady_clock::time_point start;",
                 kRuleDeterminismTime),
            0);
  EXPECT_EQ(Hits(kInfraPath, "auto t = Clock::now();", kRuleDeterminismTime),
            0);
  auto ds = AnalyzeOne(
      kModelPath,
      Lines({"// timing only: clfd-analyze: allow(determinism-time)",
             "auto t = Clock::now();"}));
  EXPECT_EQ(CountRule(ds, kRuleDeterminismTime), 0);
}

TEST(AnalyzeDeterminismTime, FlagsChronoClocksOutsideObs) {
  // One diagnostic per line, even when a line names a clock and reads it.
  EXPECT_EQ(Hits(kModelPath, "auto t0 = std::chrono::steady_clock::now();",
                 kRuleDeterminismTime),
            1);
  EXPECT_EQ(Hits(kModelPath,
                 "using clk = std::chrono::high_resolution_clock;",
                 kRuleDeterminismTime),
            1);
}

TEST(AnalyzeDeterminismTime, InfraDurationsAndPragmaPass) {
  // The obs layer and the thread pool legitimately own the clock.
  for (const char* path : {"src/obs/prof.cc", kInfraPath}) {
    EXPECT_EQ(Hits(path, "auto t0 = std::chrono::steady_clock::now();",
                   kRuleDeterminismTime),
              0)
        << path;
  }
  // Duration *types* are not clock reads.
  EXPECT_EQ(Hits(kModelPath, "std::chrono::milliseconds wait(5);",
                 kRuleDeterminismTime),
            0);
  auto ds = AnalyzeOne(kModelPath,
                       Lines({"// clfd-analyze: allow(determinism-time)",
                              "auto t = std::chrono::steady_clock::now();"}));
  EXPECT_EQ(CountRule(ds, kRuleDeterminismTime), 0);
}

TEST(AnalyzeDeterminismUnordered, FlagsUnorderedContainers) {
  EXPECT_EQ(Hits(kModelPath, "std::unordered_map<int, int> m;",
                 kRuleDeterminismUnordered),
            1);
  EXPECT_EQ(Hits(kModelPath, "std::map<int, int> m;",
                 kRuleDeterminismUnordered),
            0);
  EXPECT_EQ(Hits(kModelPath,
                 "std::unordered_set<Node*> seen;  "
                 "// clfd-analyze: allow(determinism-unordered)",
                 kRuleDeterminismUnordered),
            0);
}

TEST(AnalyzeRawThread, FlagsThreadsOutsideParallel) {
  EXPECT_EQ(Hits(kModelPath, "std::thread t(worker);", kRuleRawThread), 1);
  EXPECT_EQ(Hits(kModelPath, "auto f = std::async(run);", kRuleRawThread), 1);
  EXPECT_EQ(Hits(kInfraPath, "std::thread t(worker);", kRuleRawThread), 0);
  EXPECT_EQ(Hits(kModelPath, "parallel::ParallelFor(0, n, 1, f);",
                 kRuleRawThread),
            0);
  EXPECT_EQ(Hits(kModelPath,
                 "std::thread t(worker);  "
                 "// clfd-analyze: allow(concurrency-raw-thread)",
                 kRuleRawThread),
            0);
}

TEST(AnalyzeRawNew, FlagsNewDeleteButNotDeletedFunctions) {
  EXPECT_EQ(Hits(kModelPath, "auto* p = new Matrix(2, 2);", kRuleRawNew), 1);
  EXPECT_EQ(Hits(kModelPath, "delete ptr;", kRuleRawNew), 1);
  EXPECT_EQ(Hits(kModelPath, "Foo(const Foo&) = delete;", kRuleRawNew), 0);
  EXPECT_EQ(Hits(kModelPath, "auto p = std::make_unique<Foo>();",
                 kRuleRawNew),
            0);
  // Prose in comments must not fire ("the new pool", "newly added").
  EXPECT_EQ(Hits(kModelPath,
                 "g_pool.reset();  // joins before the new pool spawns",
                 kRuleRawNew),
            0);
  EXPECT_EQ(Hits(kModelPath,
                 "auto* p = new Matrix(2, 2);  "
                 "// clfd-analyze: allow(resource-raw-new)",
                 kRuleRawNew),
            0);
}

TEST(AnalyzeLoggingStdio, FlagsDirectStdio) {
  EXPECT_EQ(Hits(kModelPath, "std::cout << loss;", kRuleLoggingStdio), 1);
  EXPECT_EQ(Hits(kModelPath, "printf(\"%f\", loss);", kRuleLoggingStdio), 1);
  // snprintf is string formatting, not output.
  EXPECT_EQ(Hits(kModelPath, "std::snprintf(buf, sizeof(buf), s);",
                 kRuleLoggingStdio),
            0);
  // The obs layer owns stderr.
  EXPECT_EQ(Hits("src/obs/trace.cc", "std::fprintf(stderr, \"x\");",
                 kRuleLoggingStdio),
            0);
  EXPECT_EQ(Hits(kModelPath,
                 "std::cerr << x;  // clfd-analyze: allow(logging-stdio)",
                 kRuleLoggingStdio),
            0);
}

TEST(AnalyzeUncheckedStreamWrite, FlagsAdHocFileWrites) {
  for (const char* code :
       {"std::ofstream out(path);", "fwrite(buf, 1, n, f);",
        "FILE* f = fopen(path, \"wb\");"}) {
    EXPECT_EQ(Hits(kModelPath, code, kRuleUncheckedStreamWrite), 1) << code;
  }
}

TEST(AnalyzeUncheckedStreamWrite, CleanReadsAndCommentsPass) {
  auto ds = AnalyzeOne(kModelPath, Lines({"// std::ofstream is banned here",
                                          "std::ifstream in(path);"}));
  EXPECT_EQ(CountRule(ds, kRuleUncheckedStreamWrite), 0);
}

TEST(AnalyzeUncheckedStreamWrite, IoAllowlistAndPragmaSuppress) {
  // The audited IO layer may open files however it needs to.
  for (const char* path :
       {"src/data/dataset_io.cc", "src/recovery/checkpoint.cc"}) {
    EXPECT_EQ(Hits(path, "std::ofstream out(path);",
                   kRuleUncheckedStreamWrite),
              0)
        << path;
  }
  EXPECT_EQ(Hits(kModelPath,
                 "std::ofstream out(p);  "
                 "// clfd-analyze: allow(unchecked-stream-write)",
                 kRuleUncheckedStreamWrite),
            0);
}

TEST(AnalyzeHeaderPragmaOnce, RequiresPragmaInHeaders) {
  auto ds = AnalyzeOne("src/core/foo.h", Lines({"int F();"}));
  ASSERT_EQ(CountRule(ds, kRulePragmaOnce), 1);
  EXPECT_EQ(ds[0].line, 1);
  EXPECT_EQ(CountRule(AnalyzeOne("src/core/foo.h",
                                 Lines({"#pragma once", "int F();"})),
                      kRulePragmaOnce),
            0);
  // Rule applies to headers only.
  EXPECT_EQ(Hits("src/core/foo.cc", "int F() {}", kRulePragmaOnce), 0);
  ds = AnalyzeOne("src/core/foo.h",
                  Lines({"// clfd-analyze: allow(header-pragma-once)",
                         "int F();"}));
  EXPECT_EQ(CountRule(ds, kRulePragmaOnce), 0);
}

TEST(AnalyzeUsingNamespace, FlagsUsingDirectiveInHeaders) {
  auto ds = AnalyzeOne("src/core/foo.h",
                       Lines({"#pragma once", "using namespace std;"}));
  ASSERT_EQ(CountRule(ds, kRuleUsingNamespace), 1);
  EXPECT_EQ(ds[0].line, 2);
  // Aliases are fine; directives in .cc files are out of scope here.
  ds = AnalyzeOne("src/core/foo.h",
                  Lines({"#pragma once", "namespace ag = clfd::ag;"}));
  EXPECT_EQ(CountRule(ds, kRuleUsingNamespace), 0);
  EXPECT_EQ(Hits("src/core/foo.cc", "using namespace std;",
                 kRuleUsingNamespace),
            0);
  ds = AnalyzeOne("src/core/foo.h",
                  Lines({"#pragma once",
                         "using namespace std;  "
                         "// clfd-analyze: allow(header-using-namespace)"}));
  EXPECT_EQ(CountRule(ds, kRuleUsingNamespace), 0);
}

TEST(AnalyzeHygieneScoping, RulesOnlyApplyUnderSrc) {
  // Tests and bench code may use clocks/threads freely; only header rules
  // reach them.
  EXPECT_TRUE(AnalyzeOne("tests/foo_test.cc",
                         Lines({"int x = rand();", "std::thread t(f);"}))
                  .empty());
  EXPECT_TRUE(
      AnalyzeOne("bench/bench_foo.cc", Lines({"auto t = Clock::now();"}))
          .empty());
}

// ---------------------------------------------------------------------------
// The stripper every pass reads through

TEST(AnalyzeStripper, StringsAndBlockCommentsAreBlanked) {
  for (const char* code : {"const char* s = \"rand() time( new \";",
                           "/* std::cout << rand(); */ int x = 0;",
                           "const char* s = R\"(rand() new)\";"}) {
    EXPECT_TRUE(AnalyzeOne(kModelPath, Lines({code})).empty()) << code;
  }
  // Violations *after* a block comment on the same line still fire.
  EXPECT_EQ(Hits(kModelPath, "/* c */ int x = rand();", kRuleDeterminismRand),
            1);
}

TEST(AnalyzeStripper, DigitSeparatorsAndStrayQuotesHideNothing) {
  // A `'` inside a number is a digit separator, not a char literal that
  // blanks everything up to the next `'` in the file.
  auto ds = AnalyzeOne(kModelPath, Lines({"constexpr int kN = 1'000;",
                                          "constexpr int kMask = 0xFF'FF;",
                                          "int x = rand();", "namespace {",
                                          "static int g_count = 0;", "}"}));
  EXPECT_EQ(CountRule(ds, kRuleDeterminismRand), 1);
  EXPECT_EQ(CountRule(ds, kRuleMutableGlobal), 1);
  // Prefixed char literals stay char literals.
  ds = AnalyzeOne(kModelPath, Lines({"auto c = u8'r'; int x = rand();",
                                     "auto w = L'r'; int y = rand();"}));
  EXPECT_EQ(CountRule(ds, kRuleDeterminismRand), 2);
  // An unterminated quote ends at its line.
  ds = AnalyzeOne(kModelPath, Lines({"#error can't build here",
                                     "#warning \"no closing quote",
                                     "int x = rand();"}));
  ASSERT_EQ(CountRule(ds, kRuleDeterminismRand), 1);
  EXPECT_EQ(ds[0].line, 3);
}

TEST(AnalyzeFormat, CompilerStyleOutput) {
  Diagnostic d{"src/a.cc", 12, "determinism-rand", "msg"};
  EXPECT_EQ(FormatCompilerStyle(d), "src/a.cc:12: determinism-rand: msg");
}

// ---------------------------------------------------------------------------
// pragma-unused

TEST(AnalyzePragmaUnused, UnknownOrIdleEntriesFire) {
  auto ds = AnalyzeOne(
      kModelPath,
      Lines({"int a = 0;  // clfd-analyze: allow(no-such-rule)",
             "int b = 0;  // clfd-analyze: allow(determinism-rand)",
             "// clfd-analyze: allow(determinism-time)",
             "int c = 0;",
             "int d = 0;  // clfd-analyze: allow(pragma-unused)"}));
  ASSERT_EQ(CountRule(ds, kRulePragmaUnused), 4);
  std::vector<int> lines;
  for (const Diagnostic& d : ds) lines.push_back(d.line);
  EXPECT_EQ(lines, (std::vector<int>{1, 2, 3, 5}));
  EXPECT_NE(ds[0].message.find("names no rule"), std::string::npos);
  EXPECT_NE(ds[1].message.find("suppresses nothing"), std::string::npos);
}

TEST(AnalyzePragmaUnused, SuppressingEntriesAreClean) {
  // Same-line and preceding-line pragmas that each suppress something;
  // one pragma may list several rules, and each entry counts on its own.
  auto ds = AnalyzeOne(
      kModelPath,
      Lines({"int x = rand();  // clfd-analyze: allow(determinism-rand)",
             "// why: timing only",
             "// clfd-analyze: allow(determinism-time, logging-stdio)",
             "std::cout << time(nullptr);"}));
  EXPECT_TRUE(ds.empty());
  // A pragma covers only the next line, so one above a blank line is idle.
  ds = AnalyzeOne(kModelPath,
                  Lines({"// clfd-analyze: allow(determinism-rand)", "",
                         "int x = rand();"}));
  EXPECT_EQ(CountRule(ds, kRulePragmaUnused), 1);
  EXPECT_EQ(CountRule(ds, kRuleDeterminismRand), 1);
}

// ---------------------------------------------------------------------------
// Module DAG rendering

TEST(AnalyzeDot, DeterministicAndStructured) {
  std::vector<FileInput> files = {
      {"src/b/x.cc", Lines({"#include \"a/x.h\"", "X x;"})},
      {"src/a/x.h", Lines({"struct X {};"})},
  };
  Options opts;
  opts.layers = {{"a", 0}, {"b", 1}};
  const std::string d1 = ModuleGraphDot(files, opts);
  const std::string d2 = ModuleGraphDot(files, opts);
  EXPECT_EQ(d1, d2);
  EXPECT_NE(d1.find("digraph clfd_modules"), std::string::npos);
  EXPECT_NE(d1.find("\"b\" -> \"a\";"), std::string::npos);
  EXPECT_NE(d1.find("label=\"a\\nlayer 0\""), std::string::npos);
}

TEST(AnalyzeDot, UndeclaredModulesRenderInUnknownBand) {
  std::vector<FileInput> files = {
      {"src/zz/x.h", Lines({"struct Q {};"})},
  };
  Options opts;
  opts.layers = {{"a", 0}};
  const std::string d = ModuleGraphDot(files, opts);
  EXPECT_NE(d.find("label=\"zz\\nlayer ?\""), std::string::npos);
}

// The module-dag-stale rule itself lives in the driver (main.cc compares
// the committed file against this rendering); determinism of the renderer
// above plus the `analyze.repo` ctest (which runs --check-dot against
// docs/module_dag.dot) covers its positive and negative behavior.

// ---------------------------------------------------------------------------
// JSON output

TEST(AnalyzeJson, EscapesAndShapesDiagnostics) {
  const std::string message = "say \"hi\" back\\slash\nnewline";
  std::vector<Diagnostic> ds = {
      {"src/a/x.cc", 3, "include-unused", message},
  };
  std::ostringstream os;
  WriteJsonDiagnostics(ds, os);
  const std::string out = os.str();
  EXPECT_EQ(out.front(), '[');
  EXPECT_NE(out.find("\"path\": \"src/a/x.cc\""), std::string::npos);
  EXPECT_NE(out.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(out.find("\\\"hi\\\""), std::string::npos);
  EXPECT_NE(out.find("back\\\\slash"), std::string::npos);
  // The escaped newline reads back as the message's own newline.
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::Parse(out, &v, &err)) << err;
  ASSERT_TRUE(v.IsArray());
  ASSERT_EQ(v.array.size(), 1u);
  EXPECT_EQ(v.array[0].StringOr("message", ""), message);
}

TEST(AnalyzeJson, EmptyDiagnosticsIsEmptyArray) {
  std::ostringstream os;
  WriteJsonDiagnostics({}, os);
  EXPECT_EQ(os.str(), "[]\n");
}

}  // namespace
}  // namespace analyze
}  // namespace clfd
