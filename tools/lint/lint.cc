#include "lint/lint.h"

#include <algorithm>
#include <cstddef>

#include "analysis_common/paths.h"
#include "analysis_common/text.h"

namespace clfd {
namespace lint {

namespace {

// Pass 1 — splitting the file into comment/string-stripped lines plus
// per-line pragma sets — lives in tools/analysis_common (shared with
// clfd_analyze); this file keeps only the token rules.
using analysis::Allowed;
using analysis::EndsWith;
using analysis::HasToken;
using analysis::IsIdentChar;
using analysis::Line;
using analysis::StartsWith;

constexpr char kPragmaKey[] = "clfd-lint:";

// ---------------------------------------------------------------------------
// Rules. Token scans run on the blanked code text only.
// ---------------------------------------------------------------------------

struct TokenRule {
  const char* id;
  std::vector<std::string> tokens;
  const char* message;
};

const std::vector<TokenRule>& SourceHygieneRules() {
  static const std::vector<TokenRule>* rules = new std::vector<TokenRule>{
      {kRuleDeterminismRand,
       {"rand(", "srand(", "drand48", "random_device", "random_shuffle",
        "mt19937"},
       "nondeterministic RNG source in model/training code; draw from an "
       "explicitly seeded clfd::Rng (src/common/rng.h) instead"},
      {kRuleDeterminismTime,
       {"time(", "clock(", "::now(", "gettimeofday", "clock_gettime"},
       "wall-clock read in model/training code; timestamps vary run-to-run "
       "and break the bitwise reproducibility guarantee"},
      {kRuleRawChronoTiming,
       {"chrono::steady_clock", "high_resolution_clock"},
       "raw std::chrono clock outside src/obs; take timestamps through "
       "obs::UptimeMicros() or wrap the region in an obs::prof::Scope so "
       "the time shows up in traces and profiles instead of ad-hoc "
       "variables"},
      {kRuleDeterminismUnordered,
       {"std::unordered_"},
       "std::unordered_* iteration order is unspecified and can vary with "
       "libstdc++/load factor; use std::map, a sorted vector, or allow-"
       "pragma a use that never iterates"},
      {kRuleRawThread,
       {"std::thread", "std::jthread", "std::async"},
       "raw threading primitive outside src/parallel; route work through "
       "parallel::ParallelFor so determinism and nesting guards apply"},
      {kRuleLoggingStdio,
       {"std::cout", "std::cerr", "std::clog", "printf(", "fprintf(",
        "puts("},
       "direct stdio in library code; use CLFD_LOG (src/obs/log.h) so "
       "output is leveled, rate-controlled, and capturable"},
  };
  return *rules;
}

// arena-scope-escape: a ScopedArena routes tape allocations into memory
// that is recycled at the next step's Reset(), so the scope object must be
// a plain stack local whose lifetime is bounded by one training step (or
// one inference chunk). Flags placements that can outlive a step: static /
// thread_local storage, heap placement (new / make_unique / make_shared /
// unique_ptr), and class members (the trailing-underscore naming
// convention). The static rule catches the declaration shape; actual
// escaped *memory* is caught at runtime by the NaN poison Arena::Reset()
// applies under check::Enabled().
bool LooksLikeEscapingScopedArena(const std::string& code) {
  if (!HasToken(code, "ScopedArena")) return false;
  for (const char* bad :
       {"static ", "thread_local ", "new ", "make_unique", "make_shared",
        "unique_ptr", "shared_ptr"}) {
    if (HasToken(code, bad)) return true;
  }
  // Member declaration: `arena::ScopedArena scope_;` — a declarator whose
  // name ends in '_' right before the terminating ';' or '{...}'.
  size_t pos = code.find("ScopedArena");
  std::string rest = code.substr(pos);
  size_t stop = rest.find_first_of(";={");
  if (stop == std::string::npos) return false;
  size_t name_end = rest.find_last_not_of(" \t", stop == 0 ? 0 : stop - 1);
  return name_end != std::string::npos && rest[name_end] == '_';
}

// resource-raw-new: word `new` anywhere, word `delete` except `= delete`.
bool HasRawNewDelete(const std::string& code, std::string* what) {
  // `new` must be followed by a type; "new " covers it, the EndsWith case
  // covers line-wrapped `... = new\n  Foo()`.
  bool ends_with_word_new =
      EndsWith(code, "new") &&
      (code.size() == 3 || !IsIdentChar(code[code.size() - 4]));
  if (HasToken(code, "new ") || ends_with_word_new) {
    *what = "new";
    return true;
  }
  size_t pos = code.find("delete");
  while (pos != std::string::npos) {
    bool word = (pos == 0 || !IsIdentChar(code[pos - 1])) &&
                (pos + 6 >= code.size() || !IsIdentChar(code[pos + 6]));
    if (word) {
      size_t prev = code.find_last_not_of(" \t", pos == 0 ? 0 : pos - 1);
      bool deleted_fn = prev != std::string::npos && code[prev] == '=';
      if (!deleted_fn) {
        *what = "delete";
        return true;
      }
    }
    pos = code.find("delete", pos + 6);
  }
  return false;
}

// ---------------------------------------------------------------------------
// Path scoping. The shared infra allowlist lives in analysis_common/paths.*;
// the audited IO layer is lint-specific.
// ---------------------------------------------------------------------------

// Audited IO layer for unchecked-stream-write: the only src/ files allowed
// to open output streams / call write syscalls. Each of these reports
// failure through a typed error or a false return — serialize.cc returns
// the final stream state from SaveParameters, dataset_io.cc validates on
// both ends of the round trip, and recovery/checkpoint.cc fsyncs and
// checks every POSIX write before the atomic rename commits anything.
bool IsIoAllowlisted(const std::string& path) {
  return path == "src/nn/serialize.cc" || path == "src/data/dataset_io.cc" ||
         path == "src/recovery/checkpoint.cc";
}

bool SourceRulesApply(const std::string& path) {
  return StartsWith(path, "src/") && !analysis::IsInfraAllowlisted(path);
}

}  // namespace

const std::vector<std::string>& RuleNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      kRuleDeterminismRand,   kRuleDeterminismTime,
      kRuleRawChronoTiming,
      kRuleDeterminismUnordered, kRuleRawThread,
      kRuleRawNew,            kRuleArenaScope,
      kRuleLoggingStdio,      kRuleUncheckedStreamWrite,
      kRulePragmaOnce,        kRuleUsingNamespace,
  };
  return *names;
}

std::vector<Violation> LintSource(const std::string& rel_path,
                                  const std::string& content) {
  std::vector<Violation> out;
  std::vector<Line> lines = analysis::SplitAndStrip(content, kPragmaKey);
  const bool header = analysis::IsHeaderPath(rel_path);
  const bool src_rules = SourceRulesApply(rel_path);

  auto report = [&](size_t idx, const char* rule, const std::string& msg) {
    if (Allowed(lines, idx, rule)) return;
    out.push_back(Violation{rel_path, static_cast<int>(idx) + 1, rule, msg});
  };

  if (header) {
    bool has_pragma_once = false;
    for (const Line& l : lines) {
      if (l.code.find("#pragma once") != std::string::npos) {
        has_pragma_once = true;
        break;
      }
    }
    if (!has_pragma_once && !Allowed(lines, 0, kRulePragmaOnce)) {
      out.push_back(Violation{
          rel_path, 1, kRulePragmaOnce,
          "header must start with #pragma once (repo convention; include "
          "guards are not used here)"});
    }
    for (size_t i = 0; i < lines.size(); ++i) {
      if (HasToken(lines[i].code, "using namespace")) {
        report(i, kRuleUsingNamespace,
               "using-directive in a header leaks the namespace into every "
               "includer; qualify names instead");
      }
    }
  }

  if (src_rules) {
    for (size_t i = 0; i < lines.size(); ++i) {
      const std::string& code = lines[i].code;
      if (code.empty()) continue;
      for (const TokenRule& rule : SourceHygieneRules()) {
        for (const std::string& tok : rule.tokens) {
          if (HasToken(code, tok)) {
            report(i, rule.id, rule.message);
            break;
          }
        }
      }
      if (!IsIoAllowlisted(rel_path)) {
        for (const char* tok : {"std::ofstream", "fwrite(", "::fopen(",
                                "fopen("}) {
          if (HasToken(code, tok)) {
            report(i, kRuleUncheckedStreamWrite,
                   "file write outside the audited IO layer; durable output "
                   "must go through nn::serialize / data::dataset_io / "
                   "recovery::checkpoint, which validate stream state and "
                   "commit atomically (write-temp + fsync + rename)");
            break;
          }
        }
      }
      std::string what;
      if (HasRawNewDelete(code, &what)) {
        report(i, kRuleRawNew,
               "raw `" + what +
                   "`; use std::make_unique/std::make_shared or a container "
                   "so ownership is explicit");
      }
      if (LooksLikeEscapingScopedArena(code)) {
        report(i, kRuleArenaScope,
               "ScopedArena must be a stack local bounded by one training "
               "step (or inference chunk); static/member/heap placement "
               "lets arena-backed tensors outlive the arena Reset() that "
               "recycles their memory");
      }
    }
  }

  std::sort(out.begin(), out.end(), [](const Violation& a,
                                       const Violation& b) {
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  return out;
}

std::string FormatViolation(const Violation& v) {
  return analysis::FormatCompilerStyle(v);
}

}  // namespace lint
}  // namespace clfd
