// Pass 3 + 4: concurrency misuse and the determinism audit. Both walk the
// token stream with a small flow model: paren-tracked ParallelFor /
// TreeReduce call frames, a lambda stack (a lambda passed into an active
// frame — or nested inside one that was — executes on pool workers), a
// brace-scoped variable table for Scoped* RAII state and float/double
// scalars. That model catches what a per-line token rule cannot: the *same*
// tokens are fine at top level and a bug inside a worker chunk, and a
// ScopedArena is fine in the frame that declared it but a
// use-after-scope / wrong-thread bug when a lambda that outlives or
// re-homes the frame captures it.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "analyze/parsed_file.h"
#include "analyze/text.h"

namespace clfd {
namespace analyze {

// Thread-local / process-global scoped RAII state. None of it transfers
// to pool workers (the pool threads have their own thread-local slots),
// and none of it may outlive the declaring frame — so a reference from a
// lambda declared *after* the object is a latent wrong-thread or
// use-after-scope bug.
bool IsScopedStateClass(const std::string& name) {
  static const std::set<std::string>* names = new std::set<std::string>{
      "ScopedArena",     "ScopedEnable",
      "ScopedEnabled",   "ScopedFaultPlan",
      "ScopedMatmulParallelThreshold",
      "ScopedContext",
  };
  return names->count(name) != 0;
}

namespace {

// Entry points whose lambda argument runs on pool worker threads.
// (TreeReduce is deliberately absent: it is a serial fixed-order fold on
// the calling thread — src/parallel/reduce.h — so calling it from inside
// a worker chunk is fine and sharded_step.cc does exactly that.)
bool IsPoolEntryPoint(const std::string& s) { return s == "ParallelFor"; }

bool IsBlockingFreeFunction(const std::string& s) {
  static const std::set<std::string>* names = new std::set<std::string>{
      "fsync",  "fdatasync", "sleep",     "usleep", "nanosleep",
      "fopen",  "fwrite",    "fread",     "fflush", "fclose",
      "sleep_for", "sleep_until",
  };
  return names->count(s) != 0;
}

bool IsLockType(const std::string& s) {
  return s == "lock_guard" || s == "unique_lock" || s == "scoped_lock" ||
         s == "shared_lock";
}

bool IsBlockingMember(const std::string& s) {
  return s == "lock" || s == "wait" || s == "wait_for" ||
         s == "wait_until" || s == "join";
}

bool IsStreamType(const std::string& s) {
  return s == "ofstream" || s == "ifstream" || s == "fstream";
}

struct Lambda {
  bool worker = false;     // runs on pool worker threads
  int intro_paren = 0;     // paren depth at the `[` introducer
  int body_brace = -1;     // brace depth of the body; -1 until `{` seen
};

struct TrackedVar {
  std::string name;
  int brace_depth = 0;     // depth the declaration lives at
  size_t lambda_size = 0;  // lambda-stack size at declaration
  bool scoped = false;     // Scoped* RAII state (else: float/double scalar)
};

class ConcurrencyScanner {
 public:
  ConcurrencyScanner(const ParsedFile& file, Reporter* reporter)
      : file_(file), reporter_(reporter) {
    audit_accumulation_ = StartsWith(file.path, "src/tensor/") ||
                          StartsWith(file.path, "src/parallel/");
  }

  void Run() {
    const std::vector<Token>& toks = file_.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind == Token::Kind::kPunct) {
        HandlePunct(toks, i);
        continue;
      }
      if (t.kind != Token::Kind::kIdent) continue;
      HandleIdent(toks, i);
    }
  }

 private:
  bool InWorkerRegion() const {
    for (const Lambda& l : lambdas_) {
      if (l.worker) return true;
    }
    return false;
  }

  bool LambdaIntroducer(const std::vector<Token>& toks, size_t i) const {
    if (i == 0) return true;
    const Token& p = toks[i - 1];
    if (p.kind == Token::Kind::kIdent) {
      return p.text == "return" || p.text == "co_return" ||
             p.text == "co_yield";
    }
    if (p.kind == Token::Kind::kNumber || p.kind == Token::Kind::kString ||
        p.kind == Token::Kind::kChar) {
      return false;
    }
    return p.text != ")" && p.text != "]";
  }

  void HandlePunct(const std::vector<Token>& toks, size_t i) {
    const std::string& t = toks[i].text;
    if (t == "(") {
      // A pool entry point named immediately before this paren opens a
      // frame whose lambda arguments are worker bodies. A *call* in a
      // worker region is the nested-submission bug; a declaration or
      // definition signature is not a call, but its parameter list cannot
      // lexically sit inside a worker lambda, so the frame is harmless.
      if (i > 0 && toks[i - 1].kind == Token::Kind::kIdent &&
          IsPoolEntryPoint(toks[i - 1].text)) {
        ++paren_depth_;
        if (InWorkerRegion()) {
          reporter_->Report(
              file_, toks[i - 1].line, kRuleNestedParallelFor,
              "nested " + toks[i - 1].text + " submitted from inside a "
              "ParallelFor worker lambda; the pool runs nested parallel "
              "sections inline per-chunk, which silently serializes and "
              "changes the chunk geometry other code relies on — hoist "
              "the inner loop out of the worker body");
        }
        frames_.push_back(paren_depth_);
        return;
      }
      ++paren_depth_;
      return;
    }
    if (t == ")") {
      if (!frames_.empty() && frames_.back() == paren_depth_) {
        frames_.pop_back();
      }
      paren_depth_ = std::max(0, paren_depth_ - 1);
      return;
    }
    if (t == "[" && LambdaIntroducer(toks, i)) {
      Lambda l;
      l.intro_paren = paren_depth_;
      // Worker iff it is an argument inside an active entry-point frame,
      // or declared inside a lambda that already is one.
      l.worker = (!frames_.empty() && paren_depth_ >= frames_.back()) ||
                 InWorkerRegion();
      lambdas_.push_back(l);
      return;
    }
    if (t == "{") {
      ++brace_depth_;
      if (!lambdas_.empty() && lambdas_.back().body_brace < 0 &&
          paren_depth_ == lambdas_.back().intro_paren) {
        lambdas_.back().body_brace = brace_depth_;
      }
      return;
    }
    if (t == "}") {
      brace_depth_ = std::max(0, brace_depth_ - 1);
      while (!lambdas_.empty() && lambdas_.back().body_brace >= 0 &&
             brace_depth_ < lambdas_.back().body_brace) {
        lambdas_.pop_back();
      }
      vars_.erase(std::remove_if(vars_.begin(), vars_.end(),
                                 [&](const TrackedVar& v) {
                                   return v.brace_depth > brace_depth_;
                                 }),
                  vars_.end());
      return;
    }
  }

  void HandleIdent(const std::vector<Token>& toks, size_t i) {
    const std::string& t = toks[i].text;
    const bool next_is_paren =
        i + 1 < toks.size() && toks[i + 1].text == "(";

    // --- declarations we track ---
    if (IsScopedStateClass(t) && i + 1 < toks.size() &&
        toks[i + 1].kind == Token::Kind::kIdent) {
      vars_.push_back(TrackedVar{toks[i + 1].text, brace_depth_,
                                 lambdas_.size(), /*scoped=*/true});
      skip_index_ = i + 1;
      return;
    }
    if (audit_accumulation_ && (t == "float" || t == "double") &&
        i + 1 < toks.size() && toks[i + 1].kind == Token::Kind::kIdent &&
        !(i + 2 < toks.size() &&
          (toks[i + 2].text == "(" || toks[i + 2].text == "::"))) {
      vars_.push_back(TrackedVar{toks[i + 1].text, brace_depth_,
                                 lambdas_.size(), /*scoped=*/false});
      skip_index_ = i + 1;
      return;
    }
    if (i == skip_index_) return;

    // --- scoped-state escape (any lambda, worker or not) ---
    if (!lambdas_.empty()) {
      for (const TrackedVar& v : vars_) {
        if (v.scoped && v.name == t && lambdas_.size() > v.lambda_size) {
          reporter_->Report(
              file_, toks[i].line, kRuleScopeEscape,
              "scoped state '" + t + "' is referenced from a lambda that "
              "captured it; Scoped* RAII objects patch thread-local or "
              "process-global state for their *declaring frame only* — a "
              "capturing lambda can run on another thread or after the "
              "scope ends, where the patch is absent or dangling");
          break;
        }
      }
    }

    const bool in_worker = InWorkerRegion();

    // --- blocking calls inside a worker chunk ---
    if (in_worker) {
      const bool after_member_access =
          i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
      if ((next_is_paren && !after_member_access &&
           IsBlockingFreeFunction(t)) ||
          (next_is_paren && after_member_access &&
           (IsBlockingMember(t) || IsBlockingFreeFunction(t))) ||
          IsLockType(t) || IsStreamType(t) || t == "fstream" ||
          t == "getline" || t == "system") {
        reporter_->Report(
            file_, toks[i].line, kRuleBlockingInWorker,
            "blocking call ('" + t + "') inside a ParallelFor worker "
            "chunk; chunks are statically partitioned and sized for pure "
            "compute — blocking one worker stalls the whole static "
            "schedule (and IO/locks reintroduce cross-run ordering "
            "variance); move IO and synchronization outside the parallel "
            "section");
      }

      // --- determinism audit: compound FP accumulation into a scalar
      // declared outside this lambda (i.e. shared across chunks) ---
      if (audit_accumulation_ && i + 1 < toks.size()) {
        const std::string& op = toks[i + 1].text;
        const bool compound = op == "+=" || op == "-=" || op == "*=" ||
                              op == "/=";
        const bool plain_member =
            i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->" ||
                      toks[i - 1].text == "]");
        if (compound && !plain_member) {
          for (const TrackedVar& v : vars_) {
            if (!v.scoped && v.name == t &&
                lambdas_.size() > v.lambda_size) {
              reporter_->Report(
                  file_, toks[i].line, kRuleNonTreeAccumulation,
                  "floating-point accumulation into '" + t + "', a "
                  "scalar shared across worker chunks; cross-chunk "
                  "reductions must use the disjoint-slot + TreeReduce "
                  "idiom (src/parallel/reduce.h) or k-ascending "
                  "accumulation so results are bitwise-identical at "
                  "every thread width");
              break;
            }
          }
        }
      }
    }
  }

  const ParsedFile& file_;
  Reporter* reporter_;
  bool audit_accumulation_ = false;
  int paren_depth_ = 0;
  int brace_depth_ = 0;
  size_t skip_index_ = static_cast<size_t>(-1);
  std::vector<int> frames_;  // paren depth of active entry-point calls
  std::vector<Lambda> lambdas_;
  std::vector<TrackedVar> vars_;
};

}  // namespace

void CheckConcurrency(const ParsedFile& file, Reporter* reporter) {
  ConcurrencyScanner scanner(file, reporter);
  scanner.Run();
}

}  // namespace analyze
}  // namespace clfd
