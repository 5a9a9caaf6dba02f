// Pass 5: hygiene. Per-line token rules over each file's stripped lines,
// in two scopes:
//   - source rules (determinism / concurrency / resource / logging / IO)
//     run on files under src/ except the infrastructure allowlist
//     (paths.h); unchecked-stream-write additionally exempts the audited
//     IO layer;
//   - header rules run on every .h/.hpp the analyzer is given.

#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "analyze/parsed_file.h"
#include "analyze/paths.h"
#include "analyze/text.h"

namespace clfd {
namespace analyze {

namespace {

struct TokenRule {
  const char* id;
  std::vector<std::string> tokens;
  const char* message;
};

const std::vector<TokenRule>& SourceTokenRules() {
  static const std::vector<TokenRule>* rules = new std::vector<TokenRule>{
      {kRuleDeterminismRand,
       {"rand(", "srand(", "drand48", "random_device", "random_shuffle",
        "mt19937"},
       "nondeterministic RNG source in model/training code; draw from an "
       "explicitly seeded clfd::Rng (src/common/rng.h) instead"},
      {kRuleDeterminismTime,
       {"time(", "clock(", "::now(", "gettimeofday", "clock_gettime",
        "chrono::steady_clock", "high_resolution_clock"},
       "wall-clock read in model/training code; timestamps vary run-to-run "
       "and break the bitwise reproducibility guarantee"},
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

// Audited IO layer for unchecked-stream-write: the only src/ files allowed
// to open output streams / call write syscalls. Each of these reports
// failure through a typed error or a false return — dataset_io.cc
// validates on both ends of the round trip, and recovery/checkpoint.cc
// fsyncs and checks every POSIX write before the atomic rename commits
// anything.
bool IsIoAllowlisted(const std::string& path) {
  return path == "src/data/dataset_io.cc" ||
         path == "src/recovery/checkpoint.cc";
}

}  // namespace

void CheckHygiene(const ParsedFile& file, Reporter* reporter) {
  const std::vector<Line>& lines = file.lines;

  if (IsHeaderPath(file.path)) {
    bool has_pragma_once = false;
    for (const Line& l : lines) {
      if (l.code.find("#pragma once") != std::string::npos) {
        has_pragma_once = true;
        break;
      }
    }
    if (!has_pragma_once) {
      reporter->Report(file, 1, kRulePragmaOnce,
                       "header must start with #pragma once (repo "
                       "convention; include guards are not used here)");
    }
    for (size_t i = 0; i < lines.size(); ++i) {
      if (HasToken(lines[i].code, "using namespace")) {
        reporter->Report(file, static_cast<int>(i) + 1, kRuleUsingNamespace,
                         "using-directive in a header leaks the namespace "
                         "into every includer; qualify names instead");
      }
    }
  }

  if (!StartsWith(file.path, "src/") || IsInfraAllowlisted(file.path)) {
    return;
  }
  const bool io_allowlisted = IsIoAllowlisted(file.path);
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    if (code.empty()) continue;
    const int line = static_cast<int>(i) + 1;
    for (const TokenRule& rule : SourceTokenRules()) {
      for (const std::string& tok : rule.tokens) {
        if (HasToken(code, tok)) {
          reporter->Report(file, line, rule.id, rule.message);
          break;
        }
      }
    }
    if (!io_allowlisted) {
      for (const char* tok :
           {"std::ofstream", "fwrite(", "::fopen(", "fopen("}) {
        if (HasToken(code, tok)) {
          reporter->Report(
              file, line, kRuleUncheckedStreamWrite,
              "file write outside the audited IO layer; durable output "
              "must go through data::dataset_io / recovery::checkpoint, "
              "which validate stream state and commit atomically "
              "(write-temp + fsync + rename)");
          break;
        }
      }
    }
    std::string what;
    if (HasRawNewDelete(code, &what)) {
      reporter->Report(file, line, kRuleRawNew,
                       "raw `" + what +
                           "`; use std::make_unique/std::make_shared or a "
                           "container so ownership is explicit");
    }
  }
}

}  // namespace analyze
}  // namespace clfd
