#pragma once

// Internal representation shared by the clfd_analyze passes: one file
// lexed once (stripped lines + token stream + preprocessor facts), plus
// the pragma-aware reporter the passes funnel diagnostics through.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis_common/diag.h"
#include "analysis_common/text.h"
#include "analysis_common/tokenize.h"

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
  std::vector<analysis::Line> lines;   // stripped, with clfd-analyze allows
  std::vector<analysis::Token> tokens; // preprocessor lines excluded
  std::vector<IncludeDirective> includes;
  std::set<std::string> defines;       // macro names #define'd here
};

ParsedFile ParseFile(const std::string& path, const std::string& content);

// Appends {path, line, rule, message} unless an `// clfd-analyze:
// allow(rule)` pragma covers the line (same line or immediately preceding
// comment-only line).
class Reporter {
 public:
  explicit Reporter(std::vector<analysis::Diagnostic>* out) : out_(out) {}

  void Report(const ParsedFile& file, int line, const std::string& rule,
              const std::string& message) {
    if (line >= 1 &&
        analysis::Allowed(file.lines, static_cast<size_t>(line) - 1, rule)) {
      return;
    }
    out_->push_back(analysis::Diagnostic{file.path, line, rule, message});
  }

 private:
  std::vector<analysis::Diagnostic>* out_;
};

// Pass 2: declaration-scanner rules (semantic-mutable-global,
// plan-capture-confinement). Also exposes the exported-symbol
// extraction pass 1 uses for IWYU-lite.
std::set<std::string> ExtractExportedSymbols(const ParsedFile& file);
void CheckSymbols(const ParsedFile& file, Reporter* reporter);

// Pass 3 + 4: worker-lambda concurrency misuse and the float-accumulation
// determinism audit (the latter only for src/tensor and src/parallel).
void CheckConcurrency(const ParsedFile& file, Reporter* reporter);

// Pass 1: module layering, cycles, unknown modules, unused includes.
void CheckIncludeGraph(const std::vector<ParsedFile>& files,
                       const std::map<std::string, int>& layers,
                       Reporter* reporter);

}  // namespace analyze
}  // namespace clfd
