#pragma once

#include <string>
#include <vector>

#include "analysis_common/diag.h"

namespace clfd {
namespace lint {

// One rule violation at a specific source line — the shared diagnostic
// record (analysis_common/diag.h), so lint and analyze output formats
// (compiler-style and --json) stay byte-compatible. `path` is the
// repo-relative path (forward slashes) the content was linted as; rule
// scoping keys off this path, so callers must not pass absolute paths.
using Violation = analysis::Diagnostic;

// Rule ids, in reporting order. Every id here has at least one positive and
// one negative fixture in tests/lint_test.cc.
inline constexpr const char kRuleDeterminismRand[] = "determinism-rand";
inline constexpr const char kRuleDeterminismTime[] = "determinism-time";
inline constexpr const char kRuleDeterminismUnordered[] =
    "determinism-unordered";
inline constexpr const char kRuleRawThread[] = "concurrency-raw-thread";
inline constexpr const char kRuleRawNew[] = "resource-raw-new";
inline constexpr const char kRuleArenaScope[] = "arena-scope-escape";
inline constexpr const char kRuleRawChronoTiming[] = "raw-chrono-timing";
inline constexpr const char kRuleLoggingStdio[] = "logging-stdio";
inline constexpr const char kRuleUncheckedStreamWrite[] =
    "unchecked-stream-write";
inline constexpr const char kRulePragmaOnce[] = "header-pragma-once";
inline constexpr const char kRuleUsingNamespace[] = "header-using-namespace";

// All rule ids, for --list-rules and for validating pragma arguments.
const std::vector<std::string>& RuleNames();

// Lints one translation unit. `rel_path` decides which rules apply:
//   - determinism / concurrency / resource / logging / arena rules run on
//     files under src/ except the infrastructure allowlist (src/obs/,
//     src/parallel/, src/common/rng.*, src/common/check.*,
//     src/common/fault.*, src/tensor/arena.*);
//   - unchecked-stream-write additionally exempts the audited IO layer
//     (src/nn/serialize.cc, src/data/dataset_io.cc,
//     src/recovery/checkpoint.cc), where every write path checks stream /
//     syscall status and reports failure through a typed error;
//   - header rules run on every .h/.hpp under src/, tests/, bench/, tools/.
// A violation on a line is suppressed by `// clfd-lint: allow(<rule>[,..])`
// in a comment on that line, or on an immediately preceding comment-only
// line.
std::vector<Violation> LintSource(const std::string& rel_path,
                                  const std::string& content);

// "path:line: rule: message" — the fix-it format compilers use, so editors
// and CI logs hyperlink it.
std::string FormatViolation(const Violation& v);

}  // namespace lint
}  // namespace clfd
