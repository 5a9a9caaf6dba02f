// Unit tests for tools/lint: every rule has a positive fixture (the rule
// fires), a negative fixture (clean code does not fire), and a pragma
// fixture (the same violation suppressed by `clfd-lint: allow(...)`). The
// violating snippets live in string literals, which the linter's own
// string-stripper blanks out — so this file stays clean under `lint.repo`
// even though it spells out every forbidden token.

#include "lint/lint.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace clfd {
namespace lint {
namespace {

int CountRule(const std::vector<Violation>& vs, const std::string& rule) {
  return static_cast<int>(
      std::count_if(vs.begin(), vs.end(),
                    [&](const Violation& v) { return v.rule == rule; }));
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

constexpr char kModelPath[] = "src/core/clfd.cc";
constexpr char kInfraPath[] = "src/parallel/thread_pool.cc";

TEST(LintDeterminismRand, FlagsRawRngSources) {
  auto vs = LintSource(kModelPath, Lines({"int x = rand();"}));
  ASSERT_EQ(CountRule(vs, kRuleDeterminismRand), 1);
  EXPECT_EQ(vs[0].line, 1);

  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"std::random_device rd;"})),
                      kRuleDeterminismRand),
            1);
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"std::mt19937 gen(42);"})),
                      kRuleDeterminismRand),
            1);
}

TEST(LintDeterminismRand, CleanSeededRngAndCommentsPass) {
  auto vs = LintSource(
      kModelPath,
      Lines({"// rand() would be wrong here",
             "Rng rng(seed);",
             "double u = rng.Uniform();"}));
  EXPECT_EQ(CountRule(vs, kRuleDeterminismRand), 0);
  // Identifier boundaries: Operand( must not read as rand(.
  EXPECT_EQ(CountRule(LintSource(kModelPath, Lines({"int y = Operand(3);"})),
                      kRuleDeterminismRand),
            0);
}

TEST(LintDeterminismRand, InfraAllowlistAndPragmaSuppress) {
  EXPECT_EQ(CountRule(LintSource("src/common/rng.cc",
                                 Lines({"std::mt19937_64 engine_(seed);"})),
                      kRuleDeterminismRand),
            0);
  auto vs = LintSource(
      kModelPath,
      Lines({"int x = rand();  // clfd-lint: allow(determinism-rand)"}));
  EXPECT_EQ(CountRule(vs, kRuleDeterminismRand), 0);
}

TEST(LintDeterminismTime, FlagsWallClockReads) {
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"auto t = Clock::now();"})),
                      kRuleDeterminismTime),
            1);
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"time_t t = time(nullptr);"})),
                      kRuleDeterminismTime),
            1);
}

TEST(LintDeterminismTime, NegativesAndPrecedingLinePragma) {
  // time_point as a *type* has no call parens and must pass.
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"steady_clock::time_point start;"})),
                      kRuleDeterminismTime),
            0);
  EXPECT_EQ(CountRule(LintSource(kInfraPath,
                                 Lines({"auto t = Clock::now();"})),
                      kRuleDeterminismTime),
            0);
  auto vs = LintSource(kModelPath,
                       Lines({"// timing only: clfd-lint: allow(determinism-time)",
                              "auto t = Clock::now();"}));
  EXPECT_EQ(CountRule(vs, kRuleDeterminismTime), 0);
}

TEST(LintRawChronoTiming, FlagsChronoClocksOutsideObs) {
  EXPECT_EQ(
      CountRule(LintSource(
                    kModelPath,
                    Lines({"auto t0 = std::chrono::steady_clock::now();"})),
                kRuleRawChronoTiming),
      1);
  EXPECT_EQ(
      CountRule(
          LintSource(
              kModelPath,
              Lines({"using clk = std::chrono::high_resolution_clock;"})),
          kRuleRawChronoTiming),
      1);
}

TEST(LintRawChronoTiming, InfraDurationsAndPragmaPass) {
  // The obs layer and the thread pool legitimately own the clock.
  EXPECT_EQ(
      CountRule(LintSource(
                    "src/obs/prof.cc",
                    Lines({"auto t0 = std::chrono::steady_clock::now();"})),
                kRuleRawChronoTiming),
      0);
  EXPECT_EQ(
      CountRule(LintSource(
                    kInfraPath,
                    Lines({"auto t0 = std::chrono::steady_clock::now();"})),
                kRuleRawChronoTiming),
      0);
  // Duration *types* are not clock reads.
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"std::chrono::milliseconds wait(5);"})),
                      kRuleRawChronoTiming),
            0);
  auto vs = LintSource(
      kModelPath,
      Lines({"// clfd-lint: allow(raw-chrono-timing, determinism-time)",
             "auto t = std::chrono::steady_clock::now();"}));
  EXPECT_EQ(CountRule(vs, kRuleRawChronoTiming), 0);
}

TEST(LintDeterminismUnordered, FlagsUnorderedContainers) {
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"std::unordered_map<int, int> m;"})),
                      kRuleDeterminismUnordered),
            1);
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"std::map<int, int> m;"})),
                      kRuleDeterminismUnordered),
            0);
  auto vs = LintSource(
      kModelPath,
      Lines({"std::unordered_set<Node*> seen;  "
             "// clfd-lint: allow(determinism-unordered)"}));
  EXPECT_EQ(CountRule(vs, kRuleDeterminismUnordered), 0);
}

TEST(LintRawThread, FlagsThreadsOutsideParallel) {
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"std::thread t(worker);"})),
                      kRuleRawThread),
            1);
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"auto f = std::async(run);"})),
                      kRuleRawThread),
            1);
  EXPECT_EQ(CountRule(LintSource(kInfraPath,
                                 Lines({"std::thread t(worker);"})),
                      kRuleRawThread),
            0);
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"parallel::ParallelFor(0, n, 1, f);"})),
                      kRuleRawThread),
            0);
  auto vs = LintSource(
      kModelPath,
      Lines({"std::thread t(worker);  // clfd-lint: allow(concurrency-raw-thread)"}));
  EXPECT_EQ(CountRule(vs, kRuleRawThread), 0);
}

TEST(LintRawNew, FlagsNewDeleteButNotDeletedFunctions) {
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"auto* p = new Matrix(2, 2);"})),
                      kRuleRawNew),
            1);
  EXPECT_EQ(CountRule(LintSource(kModelPath, Lines({"delete ptr;"})),
                      kRuleRawNew),
            1);
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"Foo(const Foo&) = delete;"})),
                      kRuleRawNew),
            0);
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"auto p = std::make_unique<Foo>();"})),
                      kRuleRawNew),
            0);
  // Prose in comments must not fire ("the new pool", "newly added").
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"g_pool.reset();  // joins before the "
                                        "new pool spawns"})),
                      kRuleRawNew),
            0);
  auto vs = LintSource(
      kModelPath,
      Lines({"auto* p = new Matrix(2, 2);  // clfd-lint: allow(resource-raw-new)"}));
  EXPECT_EQ(CountRule(vs, kRuleRawNew), 0);
}

TEST(LintArenaScope, FlagsScopesThatCanOutliveAStep) {
  // Member (trailing-underscore declarator), heap, and static placements
  // all let the scope outlive the step that opened it.
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"arena::ScopedArena tape_scope_;"})),
                      kRuleArenaScope),
            1);
  EXPECT_EQ(CountRule(
                LintSource(kModelPath,
                           Lines({"auto s = std::make_unique<arena::"
                                  "ScopedArena>(&a);"})),
                      kRuleArenaScope),
            1);
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"static arena::ScopedArena s(&a);"})),
                      kRuleArenaScope),
            1);
}

TEST(LintArenaScope, StackLocalsAndAllowlistedFilesPass) {
  EXPECT_EQ(CountRule(
                LintSource(kModelPath,
                           Lines({"arena::ScopedArena scope(&step_arena);"})),
                kRuleArenaScope),
            0);
  // Owning a (non-scope) Arena in a member container is the intended
  // pattern for per-shard arenas and must not fire.
  EXPECT_EQ(CountRule(
                LintSource(kModelPath,
                           Lines({"arenas_.push_back(std::make_unique<"
                                  "arena::Arena>());"})),
                kRuleArenaScope),
            0);
  // The arena implementation itself is infrastructure.
  EXPECT_EQ(CountRule(LintSource("src/tensor/arena.cc",
                                 Lines({"static arena::ScopedArena s(&a);"})),
                      kRuleArenaScope),
            0);
  auto vs = LintSource(
      kModelPath,
      Lines({"// clfd-lint: allow(arena-scope-escape)",
             "arena::ScopedArena keep_alive_;"}));
  EXPECT_EQ(CountRule(vs, kRuleArenaScope), 0);
}

TEST(LintLoggingStdio, FlagsDirectStdio) {
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"std::cout << loss;"})),
                      kRuleLoggingStdio),
            1);
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"printf(\"%f\", loss);"})),
                      kRuleLoggingStdio),
            1);
  // snprintf is string formatting, not output.
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"std::snprintf(buf, sizeof(buf), s);"})),
                      kRuleLoggingStdio),
            0);
  // The obs layer owns stderr.
  EXPECT_EQ(CountRule(LintSource("src/obs/trace.cc",
                                 Lines({"std::fprintf(stderr, \"x\");"})),
                      kRuleLoggingStdio),
            0);
  auto vs = LintSource(
      kModelPath,
      Lines({"std::cerr << x;  // clfd-lint: allow(logging-stdio)"}));
  EXPECT_EQ(CountRule(vs, kRuleLoggingStdio), 0);
}

TEST(LintHeaderPragmaOnce, RequiresPragmaInHeaders) {
  auto vs = LintSource("src/core/foo.h", Lines({"int F();"}));
  ASSERT_EQ(CountRule(vs, kRulePragmaOnce), 1);
  EXPECT_EQ(vs[0].line, 1);
  EXPECT_EQ(CountRule(LintSource("src/core/foo.h",
                                 Lines({"#pragma once", "int F();"})),
                      kRulePragmaOnce),
            0);
  // Rule applies to headers only.
  EXPECT_EQ(CountRule(LintSource("src/core/foo.cc", Lines({"int F() {}"})),
                      kRulePragmaOnce),
            0);
  EXPECT_EQ(CountRule(LintSource("src/core/foo.h",
                                 Lines({"// clfd-lint: allow(header-pragma-once)",
                                        "int F();"})),
                      kRulePragmaOnce),
            0);
}

TEST(LintUsingNamespace, FlagsUsingDirectiveInHeaders) {
  auto vs = LintSource("src/core/foo.h",
                       Lines({"#pragma once", "using namespace std;"}));
  ASSERT_EQ(CountRule(vs, kRuleUsingNamespace), 1);
  EXPECT_EQ(vs[0].line, 2);
  // Aliases are fine; directives in .cc files are out of scope here.
  EXPECT_EQ(CountRule(LintSource("src/core/foo.h",
                                 Lines({"#pragma once",
                                        "namespace ag = clfd::ag;"})),
                      kRuleUsingNamespace),
            0);
  EXPECT_EQ(CountRule(LintSource("src/core/foo.cc",
                                 Lines({"using namespace std;"})),
                      kRuleUsingNamespace),
            0);
  EXPECT_EQ(
      CountRule(LintSource("src/core/foo.h",
                           Lines({"#pragma once",
                                  "using namespace std;  "
                                  "// clfd-lint: allow(header-using-namespace)"})),
                kRuleUsingNamespace),
      0);
}

TEST(LintScoping, RulesOnlyApplyUnderSrc) {
  // Tests and bench code may use clocks/threads freely; only header rules
  // reach them.
  EXPECT_TRUE(LintSource("tests/foo_test.cc",
                         Lines({"int x = rand();", "std::thread t(f);"}))
                  .empty());
  EXPECT_TRUE(LintSource("bench/bench_foo.cc",
                         Lines({"auto t = Clock::now();"}))
                  .empty());
}

TEST(LintStripper, StringsAndBlockCommentsAreBlanked) {
  EXPECT_TRUE(LintSource(kModelPath,
                         Lines({"const char* s = \"rand() time( new \";"}))
                  .empty());
  EXPECT_TRUE(LintSource(kModelPath,
                         Lines({"/* std::cout << rand(); */ int x = 0;"}))
                  .empty());
  // Violations *after* a block comment on the same line still fire.
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"/* c */ int x = rand();"})),
                      kRuleDeterminismRand),
            1);
  // Raw strings.
  EXPECT_TRUE(LintSource(kModelPath,
                         Lines({"const char* s = R\"(rand() new)\";"}))
                  .empty());
}

TEST(LintFormat, CompilerStyleOutput) {
  Violation v{"src/a.cc", 12, "determinism-rand", "msg"};
  EXPECT_EQ(FormatViolation(v), "src/a.cc:12: determinism-rand: msg");
}

TEST(LintRules, EveryRuleIsRegistered) {
  const auto& names = RuleNames();
  for (const char* id :
       {kRuleDeterminismRand, kRuleDeterminismTime, kRuleRawChronoTiming,
        kRuleDeterminismUnordered, kRuleRawThread, kRuleRawNew,
        kRuleArenaScope, kRuleLoggingStdio, kRuleUncheckedStreamWrite,
        kRulePragmaOnce, kRuleUsingNamespace}) {
    EXPECT_NE(std::find(names.begin(), names.end(), std::string(id)),
              names.end())
        << id;
  }
  EXPECT_EQ(names.size(), 11u);
}

TEST(LintUncheckedStreamWrite, FlagsAdHocFileWrites) {
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"std::ofstream out(path);"})),
                      kRuleUncheckedStreamWrite),
            1);
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"fwrite(buf, 1, n, f);"})),
                      kRuleUncheckedStreamWrite),
            1);
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"FILE* f = fopen(path, \"wb\");"})),
                      kRuleUncheckedStreamWrite),
            1);
}

TEST(LintUncheckedStreamWrite, CleanReadsAndCommentsPass) {
  EXPECT_EQ(CountRule(LintSource(kModelPath,
                                 Lines({"// std::ofstream is banned here",
                                        "std::ifstream in(path);"})),
                      kRuleUncheckedStreamWrite),
            0);
}

TEST(LintUncheckedStreamWrite, IoAllowlistAndPragmaSuppress) {
  // The audited IO layer may open files however it needs to.
  for (const char* path :
       {"src/nn/serialize.cc", "src/data/dataset_io.cc",
        "src/recovery/checkpoint.cc"}) {
    EXPECT_EQ(CountRule(LintSource(path,
                                   Lines({"std::ofstream out(path);"})),
                        kRuleUncheckedStreamWrite),
              0)
        << path;
  }
  auto vs = LintSource(
      kModelPath,
      Lines({"std::ofstream out(p);  "
             "// clfd-lint: allow(unchecked-stream-write)"}));
  EXPECT_EQ(CountRule(vs, kRuleUncheckedStreamWrite), 0);
}

}  // namespace
}  // namespace lint
}  // namespace clfd
