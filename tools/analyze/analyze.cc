#include "analyze/analyze.h"

#include <algorithm>

#include "analyze/parsed_file.h"

namespace clfd {
namespace analyze {

namespace {

// Extracts the include target from a raw directive line ("..." or <...>).
bool ParseIncludeTarget(const std::string& raw, IncludeDirective* out) {
  size_t q = raw.find('"');
  if (q != std::string::npos) {
    size_t e = raw.find('"', q + 1);
    if (e == std::string::npos) return false;
    out->target = raw.substr(q + 1, e - q - 1);
    out->system = false;
    return true;
  }
  size_t a = raw.find('<');
  if (a != std::string::npos) {
    size_t e = raw.find('>', a + 1);
    if (e == std::string::npos) return false;
    out->target = raw.substr(a + 1, e - a - 1);
    out->system = true;
    return true;
  }
  return false;
}

// True when the stripped line is the given preprocessor directive
// (`#include`, `#define`, ...), tolerating `#  include` spacing.
bool IsDirective(const std::string& code, const std::string& name,
                 size_t* after) {
  size_t b = code.find_first_not_of(" \t");
  if (b == std::string::npos || code[b] != '#') return false;
  size_t d = code.find_first_not_of(" \t", b + 1);
  if (d == std::string::npos) return false;
  if (code.compare(d, name.size(), name) != 0) return false;
  *after = d + name.size();
  return true;
}

std::string PathModule(const std::string& path) {
  if (!StartsWith(path, "src/")) return "";
  size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return "";
  return path.substr(4, slash - 4);
}

}  // namespace

const std::vector<std::string>& RuleNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      kRuleLayeringUpward,   kRuleLayeringCycle,
      kRuleLayeringUnknown,  kRuleIncludeUnused,
      kRuleMutableGlobal,    kRulePlanCaptureConfinement,
      kRuleNestedParallelFor, kRuleBlockingInWorker,
      kRuleScopeEscape,      kRuleNonTreeAccumulation,
      kRuleDeterminismRand,  kRuleDeterminismTime,
      kRuleDeterminismUnordered, kRuleRawThread,
      kRuleRawNew,           kRuleLoggingStdio,
      kRuleUncheckedStreamWrite, kRulePragmaOnce,
      kRuleUsingNamespace,   kRulePragmaUnused,
      kRuleDotStale,
  };
  return *names;
}

// The declared layering of src/ (DESIGN.md §14 has the diagram; the
// committed rendering is docs/module_dag.dot). Reading it bottom-up:
// `common` is the root; `obs` and `parallel` are leaf infrastructure
// everything may use; `tensor` owns the kernels; `data`,
// `metrics`, `augment`, and `embedding` are side substrates; `autograd`
// sits on tensor; `nn` and `losses` are peer layers on autograd;
// `recovery` sits under the training loops (they run their epochs
// through its PhaseLoop, so it must sit *below* encoders/core);
// `encoders` -> `core` -> `baselines` -> `eval` is the
// training/experiment stack. A new src/ directory must be added here (and
// the DOT regenerated) before the tree passes `analyze.repo` — that is
// deliberate: layering is declared, not inferred.
const std::map<std::string, int>& DefaultLayers() {
  static const std::map<std::string, int>* layers =
      new std::map<std::string, int>{
          {"common", 0},
          {"obs", 1},
          {"parallel", 2}, {"data", 2}, {"metrics", 2},
          {"tensor", 3},   {"augment", 3},
          {"autograd", 4}, {"embedding", 4},
          {"nn", 5},       {"losses", 5},   {"plan", 5},
          {"recovery", 6},
          {"encoders", 7},
          {"core", 8},
          {"baselines", 9},
          {"eval", 10},
      };
  return *layers;
}

void Reporter::Report(const ParsedFile& file, int line,
                      const std::string& rule, const std::string& message) {
  auto allows = [&](int at) {
    if (at < 1 || at > static_cast<int>(file.lines.size())) return false;
    const std::vector<std::string>& ids = file.lines[at - 1].allows;
    return std::find(ids.begin(), ids.end(), rule) != ids.end();
  };
  int pragma_line = 0;
  if (allows(line)) {
    pragma_line = line;
  } else if (allows(line - 1) && file.lines[line - 2].comment_only) {
    pragma_line = line - 1;
  }
  if (pragma_line != 0) {
    used_.emplace(file.path, pragma_line, rule);
    return;
  }
  out_->push_back(Diagnostic{file.path, line, rule, message});
}

void Reporter::ReportUnusedPragmas(const ParsedFile& file) {
  const std::vector<std::string>& rules = RuleNames();
  for (size_t i = 0; i < file.lines.size(); ++i) {
    const int line = static_cast<int>(i) + 1;
    for (const std::string& id : file.lines[i].allows) {
      if (std::find(rules.begin(), rules.end(), id) == rules.end()) {
        out_->push_back(Diagnostic{
            file.path, line, kRulePragmaUnused,
            "allow(" + id + ") names no rule (`clfd_analyze --list-rules` "
            "prints them); a pragma for an unknown id silences nothing"});
      } else if (used_.count({file.path, line, id}) == 0) {
        out_->push_back(Diagnostic{
            file.path, line, kRulePragmaUnused,
            "allow(" + id + ") suppresses nothing on " +
                (file.lines[i].comment_only ? "this or the next line"
                                            : "this line") +
                "; delete the stale pragma"});
      }
    }
  }
}

ParsedFile ParseFile(const std::string& path, const std::string& content) {
  ParsedFile f;
  f.path = path;
  f.module = PathModule(path);
  f.lines = SplitAndStrip(content);
  f.tokens = Tokenize(f.lines);

  // Preprocessor facts come straight from the lines (the tokenizer skips
  // directive lines). Include targets are read from the *raw* content of
  // the directive line, because the stripper blanks the quoted path.
  std::vector<std::string> raw_lines;
  {
    std::string cur;
    for (char c : content) {
      if (c == '\n') {
        raw_lines.push_back(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
    raw_lines.push_back(cur);
  }
  for (size_t i = 0; i < f.lines.size(); ++i) {
    size_t after = 0;
    if (IsDirective(f.lines[i].code, "include", &after)) {
      IncludeDirective inc;
      inc.line = static_cast<int>(i) + 1;
      if (i < raw_lines.size() && ParseIncludeTarget(raw_lines[i], &inc)) {
        f.includes.push_back(inc);
      }
    } else if (IsDirective(f.lines[i].code, "define", &after)) {
      const std::string& code = f.lines[i].code;
      size_t b = code.find_first_not_of(" \t", after);
      if (b != std::string::npos) {
        size_t e = b;
        while (e < code.size() && IsIdentChar(code[e])) ++e;
        if (e > b) f.defines.insert(code.substr(b, e - b));
      }
    }
  }
  return f;
}

std::vector<Diagnostic> AnalyzeProgram(const std::vector<FileInput>& files,
                                       const Options& opts) {
  std::vector<ParsedFile> parsed;
  parsed.reserve(files.size());
  for (const FileInput& in : files) {
    parsed.push_back(ParseFile(in.path, in.content));
  }

  std::vector<Diagnostic> diags;
  Reporter reporter(&diags);
  CheckIncludeGraph(parsed, opts.layers, &reporter);
  for (const ParsedFile& f : parsed) {
    CheckHygiene(f, &reporter);
    if (!StartsWith(f.path, "src/")) continue;
    CheckSymbols(f, &reporter);
    CheckConcurrency(f, &reporter);
  }
  for (const ParsedFile& f : parsed) reporter.ReportUnusedPragmas(f);

  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return diags;
}

}  // namespace analyze
}  // namespace clfd
