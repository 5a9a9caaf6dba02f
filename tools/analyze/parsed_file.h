#pragma once

// Internal representation shared by the clfd_analyze passes: one file
// lexed once (stripped lines + token stream + preprocessor facts), plus
// the pragma-aware reporter the passes funnel diagnostics through.

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analyze/diag.h"
#include "analyze/text.h"
#include "analyze/tokenize.h"

namespace clfd {
namespace analyze {

struct IncludeDirective {
  std::string target;  // as written: "tensor/matrix.h" or "vector"
  int line = 0;        // 1-based
  bool system = false; // <...> include
};

struct ParsedFile {
  std::string path;    // repo-relative, forward slashes
  std::string module;  // "tensor" for src/tensor/...; "" outside src/
  std::vector<Line> lines;    // stripped, with pragma allows
  std::vector<Token> tokens;  // preprocessor lines excluded
  std::vector<IncludeDirective> includes;
  std::set<std::string> defines;  // macro names #define'd here
};

ParsedFile ParseFile(const std::string& path, const std::string& content);

// Appends {path, line, rule, message} unless an allow-pragma naming `rule`
// covers the line (same line or immediately preceding comment-only line),
// and remembers which pragma entries suppressed something.
class Reporter {
 public:
  explicit Reporter(std::vector<Diagnostic>* out) : out_(out) {}

  void Report(const ParsedFile& file, int line, const std::string& rule,
              const std::string& message);

  // pragma-unused: every allow entry in `file` that names no rule or
  // suppressed nothing. Runs after every other pass has reported.
  void ReportUnusedPragmas(const ParsedFile& file);

 private:
  std::vector<Diagnostic>* out_;
  // (path, pragma line, rule) of every entry that suppressed a diagnostic.
  std::set<std::tuple<std::string, int, std::string>> used_;
};

// The Scoped* RAII classes that patch thread-local or process-global state
// for their declaring frame (scoped-state-escape, passes 2 and 3).
bool IsScopedStateClass(const std::string& name);

// Pass 2: declaration-scanner rules (semantic-mutable-global,
// plan-capture-confinement, the storage half of scoped-state-escape).
// Also exposes the exported-symbol extraction pass 1 uses for IWYU-lite.
std::set<std::string> ExtractExportedSymbols(const ParsedFile& file);
void CheckSymbols(const ParsedFile& file, Reporter* reporter);

// Pass 3 + 4: worker-lambda concurrency misuse and the float-accumulation
// determinism audit (the latter only for src/tensor and src/parallel).
void CheckConcurrency(const ParsedFile& file, Reporter* reporter);

// Pass 1: module layering, cycles, unknown modules, unused includes.
void CheckIncludeGraph(const std::vector<ParsedFile>& files,
                       const std::map<std::string, int>& layers,
                       Reporter* reporter);

// Pass 5: per-line hygiene token rules and the header conventions.
void CheckHygiene(const ParsedFile& file, Reporter* reporter);

}  // namespace analyze
}  // namespace clfd
