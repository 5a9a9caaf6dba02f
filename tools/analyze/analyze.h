#pragma once

// clfd_analyze: the repo's static checker (DESIGN.md §14). It sees every
// translation unit at once, so besides per-line rules it checks
// *relationships*: the module include DAG against the declared layering,
// symbol-resolved declaration rules, flow-aware concurrency misuse inside
// ParallelFor worker lambdas, and the float-accumulation determinism
// idioms. Zero third-party dependencies: a comment/string stripper and a
// token stream (text.h, tokenize.h), not a compiler frontend.
//
// Five passes (DESIGN.md §14):
//   1. include-graph layering — parse every #include, build the module
//      DAG, enforce the declared layer ranks (upward and same-rank edges
//      are violations), reject cycles, flag unused includes (IWYU-lite via
//      exported-symbol reference approximation), and emit/verify the
//      committed DOT graph (docs/module_dag.dot).
//   2. symbol-table semantic rules — a per-TU declaration scanner (brace
//      contexts: namespace / type / function / lambda) that checks
//      mutable globals, plan-capture confinement, and Scoped* RAII objects
//      given static, member, or heap storage, symbol-resolved (multi-line
//      declarations, qualified names, no false fires on factory-function
//      declarations).
//   3. concurrency misuse — nested ParallelFor submission from inside a
//      worker lambda, blocking calls (fsync/sleep/lock acquisition/file
//      IO) inside pool chunks, and ScopedArena / ScopedEnable objects
//      referenced from lambdas that captured them — thread-local scoped
//      state neither transfers to workers nor may outlive its frame.
//   4. determinism audit — floating-point accumulation into cross-chunk
//      shared scalars from inside src/tensor / src/parallel worker
//      lambdas that bypasses the disjoint-slot + TreeReduce idiom.
//   5. hygiene — per-line token rules over each file's stripped lines:
//      nondeterministic RNG and clock reads, unordered containers, raw
//      threads, raw new/delete, direct stdio and file writes in src/, and
//      the header conventions everywhere.
//
// A violation on a line is suppressed by an allow-pragma naming its rule
// (`clfd-analyze:` then `allow(<rule>)`) in a comment on that line or on
// an immediately preceding comment-only line; pragma sites must carry a
// why-comment (review convention). A pragma entry that suppresses nothing
// is itself a pragma-unused violation.

#include <map>
#include <string>
#include <vector>

#include "analyze/diag.h"

namespace clfd {
namespace analyze {

// One file of the program under analysis. `path` is repo-relative with
// forward slashes ("src/tensor/matrix.cc"); pass scoping keys off it.
struct FileInput {
  std::string path;
  std::string content;
};

// Rule ids, in reporting order. Every id has positive and negative
// fixtures in tests/analyze_test.cc, and every id a pragma can suppress
// has a pragma fixture. pragma-unused cannot be suppressed, and main.cc
// reports module-dag-stale after pragma filtering.
inline constexpr char kRuleLayeringUpward[] = "layering-upward-include";
inline constexpr char kRuleLayeringCycle[] = "layering-cycle";
inline constexpr char kRuleLayeringUnknown[] = "layering-unknown-module";
inline constexpr char kRuleIncludeUnused[] = "include-unused";
inline constexpr char kRuleMutableGlobal[] = "semantic-mutable-global";
inline constexpr char kRulePlanCaptureConfinement[] =
    "plan-capture-confinement";
inline constexpr char kRuleNestedParallelFor[] = "nested-parallel-for";
inline constexpr char kRuleBlockingInWorker[] = "blocking-in-worker";
inline constexpr char kRuleScopeEscape[] = "scoped-state-escape";
inline constexpr char kRuleNonTreeAccumulation[] = "non-tree-accumulation";
inline constexpr char kRuleDeterminismRand[] = "determinism-rand";
inline constexpr char kRuleDeterminismTime[] = "determinism-time";
inline constexpr char kRuleDeterminismUnordered[] = "determinism-unordered";
inline constexpr char kRuleRawThread[] = "concurrency-raw-thread";
inline constexpr char kRuleRawNew[] = "resource-raw-new";
inline constexpr char kRuleLoggingStdio[] = "logging-stdio";
inline constexpr char kRuleUncheckedStreamWrite[] = "unchecked-stream-write";
inline constexpr char kRulePragmaOnce[] = "header-pragma-once";
inline constexpr char kRuleUsingNamespace[] = "header-using-namespace";
inline constexpr char kRulePragmaUnused[] = "pragma-unused";
inline constexpr char kRuleDotStale[] = "module-dag-stale";

// All rule ids, for --list-rules and for validating pragma arguments.
const std::vector<std::string>& RuleNames();

// The declared module layering: module name -> layer rank. An include
// edge from module A into module B is legal iff rank(B) < rank(A);
// same-rank modules are peers and must not include each other. Modules
// under src/ that are missing from this map are layering-unknown-module
// violations, which is what forces the map (and the committed DOT graph)
// to evolve with the tree.
const std::map<std::string, int>& DefaultLayers();

struct Options {
  std::map<std::string, int> layers = DefaultLayers();
};

// Runs all five passes over `files` (the whole program: every checked-in
// .cc/.h, repo-relative paths). Returns pragma-filtered diagnostics
// sorted by (path, line, rule).
std::vector<Diagnostic> AnalyzeProgram(const std::vector<FileInput>& files,
                                       const Options& opts = Options());

// Renders the observed module include DAG (src/ modules only) as
// deterministic Graphviz DOT, modules grouped by declared layer rank.
// This is what docs/module_dag.dot is generated from; `clfd_analyze
// --check-dot` diffs the committed file against this output.
std::string ModuleGraphDot(const std::vector<FileInput>& files,
                           const Options& opts = Options());

}  // namespace analyze
}  // namespace clfd
