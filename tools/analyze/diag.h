#pragma once

// Diagnostic record + output formats. clfd_analyze prints the compiler
// fix-it format by default (so editors, CI logs, and the GitHub problem
// matcher in .github/problem-matcher.json all hyperlink it) and a
// machine-readable JSON array under --json.

#include <iosfwd>
#include <string>
#include <vector>

namespace clfd {
namespace analyze {

// One rule violation at a specific source line. `path` is the
// repo-relative path (forward slashes) the content was analyzed as; rule
// scoping keys off this path, so callers must not pass absolute paths.
struct Diagnostic {
  std::string path;
  int line = 0;        // 1-based
  std::string rule;    // rule id, e.g. "determinism-rand"
  std::string message;
};

// "path:line: rule: message".
std::string FormatCompilerStyle(const Diagnostic& d);

// Writes `[{"path": ..., "line": ..., "rule": ..., "message": ...}, ...]`
// with one object per line, trailing newline included.
void WriteJsonDiagnostics(const std::vector<Diagnostic>& diags,
                          std::ostream& os);

}  // namespace analyze
}  // namespace clfd
