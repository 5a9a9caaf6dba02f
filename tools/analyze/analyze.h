#pragma once

// clfd_analyze: whole-program semantic static analysis for the CLFD
// codebase. Where clfd_lint applies per-line token rules to one file at a
// time, this tool sees every translation unit at once and checks
// *relationships*: the module include DAG against the declared layering,
// symbol-resolved declaration rules, flow-aware concurrency misuse inside
// ParallelFor worker lambdas, and the float-accumulation determinism
// idioms. Zero third-party dependencies — it shares the comment/string
// stripper and token stream with clfd_lint (tools/analysis_common).
//
// Four passes (DESIGN.md §14):
//   1. include-graph layering — parse every #include, build the module
//      DAG, enforce the declared layer ranks (upward and same-rank edges
//      are violations), reject cycles, flag unused includes (IWYU-lite via
//      exported-symbol reference approximation), and emit/verify the
//      committed DOT graph (docs/module_dag.dot).
//   2. symbol-table semantic rules — a per-TU declaration scanner (brace
//      contexts: namespace / type / function / lambda) that checks
//      mutable globals and plan-capture confinement symbol-resolved
//      (multi-line declarations, qualified names, no false fires on
//      factory-function declarations).
//   3. concurrency misuse — nested ParallelFor submission from inside a
//      worker lambda, blocking calls (fsync/sleep/lock acquisition/file
//      IO) inside pool chunks, and ScopedArena / ScopedEnable objects
//      referenced from lambdas that captured them — thread-local scoped
//      state neither transfers to workers nor may outlive its frame.
//   4. determinism audit — floating-point accumulation into cross-chunk
//      shared scalars from inside src/tensor / src/parallel worker
//      lambdas that bypasses the disjoint-slot + TreeReduce idiom.
//
// A violation on a line is suppressed by `// clfd-analyze: allow(<rule>)`
// in a comment on that line or on an immediately preceding comment-only
// line; pragma sites must carry a why-comment (review convention, like
// the lint pragmas).

#include <map>
#include <string>
#include <vector>

#include "analysis_common/diag.h"

namespace clfd {
namespace analyze {

using analysis::Diagnostic;

// One file of the program under analysis. `path` is repo-relative with
// forward slashes ("src/tensor/matrix.cc"); pass scoping keys off it.
struct FileInput {
  std::string path;
  std::string content;
};

// Rule ids, in reporting order. Every id has positive, negative, and
// pragma-suppressed fixtures in tests/analyze_test.cc.
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

// Runs all four passes over `files` (the whole program: every checked-in
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
