// Pass 2: symbol-table semantic rules. A per-TU declaration scanner walks
// the token stream with a brace-context stack (namespace / type / enum /
// function / lambda / block), which gives two things per-line token rules
// cannot: (a) the set of names a header *exports* (types, functions,
// variables, aliases, enumerators, macros) — the substrate for the
// IWYU-lite pass — and (b) symbol-resolved mutable-global,
// plan-capture-confinement, and scoped-state storage rules that survive
// multi-line declarations and qualified names without extra pragma
// escapes (factory-function declarations, const tables, and deleted
// functions are recognized structurally, not by line shape).

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "analyze/parsed_file.h"
#include "analyze/paths.h"
#include "analyze/text.h"

namespace clfd {
namespace analyze {

namespace {

bool IsKeyword(const std::string& s) {
  static const std::set<std::string>* kw = new std::set<std::string>{
      "alignas",  "alignof",  "auto",     "bool",      "break",
      "case",     "catch",    "char",     "class",     "const",
      "constexpr", "constinit", "consteval", "continue", "decltype",
      "default",  "delete",   "do",       "double",    "else",
      "enum",     "explicit", "extern",   "false",     "final",
      "float",    "for",      "friend",   "goto",      "if",
      "inline",   "int",      "long",     "mutable",   "namespace",
      "new",      "noexcept", "nullptr",  "operator",  "override",
      "private",  "protected", "public",  "register",  "requires",
      "return",   "short",    "signed",   "sizeof",    "static",
      "struct",   "switch",   "template", "this",      "thread_local",
      "throw",    "true",     "try",      "typedef",   "typeid",
      "typename", "union",    "unsigned", "using",     "virtual",
      "void",     "volatile", "wchar_t",  "while",     "std",
  };
  return kw->count(s) != 0;
}

enum class Scope { kNamespace, kType, kEnum, kFunction, kLambda, kBlock };

bool IsDeclScope(Scope s) {
  return s == Scope::kNamespace || s == Scope::kType || s == Scope::kEnum;
}

struct Context {
  Scope scope;
  std::vector<Token> stmt;  // statement buffer at this nesting level
};

bool HasIdent(const std::vector<Token>& stmt, const std::string& name) {
  for (const Token& t : stmt) {
    if (t.kind == Token::Kind::kIdent && t.text == name) return true;
  }
  return false;
}

// The identifier right after `class` / `struct` / `union` / `enum [class]`,
// skipping attributes and alignas.
std::string TypeNameOf(const std::vector<Token>& stmt) {
  for (size_t i = 0; i < stmt.size(); ++i) {
    const std::string& t = stmt[i].text;
    if (t != "class" && t != "struct" && t != "union" && t != "enum") {
      continue;
    }
    for (size_t j = i + 1; j < stmt.size(); ++j) {
      if (stmt[j].text == "[[") {
        while (j < stmt.size() && stmt[j].text != "]]") ++j;
        continue;
      }
      if (stmt[j].kind == Token::Kind::kIdent) {
        if (stmt[j].text == "class" || stmt[j].text == "struct" ||
            stmt[j].text == "alignas" || stmt[j].text == "final") {
          continue;
        }
        return stmt[j].text;
      }
      if (stmt[j].kind != Token::Kind::kPunct) break;
    }
    break;
  }
  return "";
}

// Splits out the declared name of a non-type declaration statement at
// namespace/class scope: the identifier before the first top-level `(`
// (function or ctor-style variable), else the identifier before the first
// top-level `=` / `{}` placeholder / end of statement (variable, alias).
std::string DeclaredNameOf(const std::vector<Token>& stmt) {
  int paren = 0;
  int angle = 0;
  size_t marker = stmt.size();
  size_t first_paren = stmt.size();
  for (size_t i = 0; i < stmt.size(); ++i) {
    const Token& t = stmt[i];
    if (t.kind == Token::Kind::kPunct) {
      if (t.text == "(") {
        if (paren == 0 && angle == 0 && first_paren == stmt.size()) {
          first_paren = i;
        }
        ++paren;
      } else if (t.text == ")") {
        paren = std::max(0, paren - 1);
      } else if (paren == 0 && t.text == "<") {
        ++angle;
      } else if (paren == 0 && (t.text == ">" || t.text == ">>")) {
        angle = std::max(0, angle - (t.text == ">>" ? 2 : 1));
      } else if (paren == 0 && angle == 0 &&
                 (t.text == "=" || t.text == "{}")) {
        marker = i;
        break;
      }
    }
  }
  size_t end = std::min(marker, first_paren);
  // Walk back over array brackets / numbers to the declarator name.
  for (size_t i = end; i > 0; --i) {
    const Token& t = stmt[i - 1];
    if (t.kind == Token::Kind::kPunct &&
        (t.text == "[" || t.text == "]")) {
      continue;
    }
    if (t.kind == Token::Kind::kNumber) continue;
    if (t.kind == Token::Kind::kIdent && !IsKeyword(t.text)) return t.text;
    break;
  }
  return "";
}

// True when the statement declares a function (or a ctor-initialized
// object, which is indistinguishable without types): a top-level `(`
// before any top-level `=` / brace-init / end.
bool IsFunctionShaped(const std::vector<Token>& stmt) {
  int paren = 0;
  int angle = 0;
  for (const Token& t : stmt) {
    if (t.kind != Token::Kind::kPunct) continue;
    if (t.text == "(") {
      if (paren == 0 && angle == 0) return true;
      ++paren;
    } else if (t.text == ")") {
      paren = std::max(0, paren - 1);
    } else if (paren == 0 && t.text == "<") {
      ++angle;
    } else if (paren == 0 && (t.text == ">" || t.text == ">>")) {
      angle = std::max(0, angle - (t.text == ">>" ? 2 : 1));
    } else if (paren == 0 && angle == 0 &&
               (t.text == "=" || t.text == "{}")) {
      return false;
    }
  }
  return false;
}

// `std::atomic<...>` as the declared type (top-level, not nested inside
// another template's arguments).
bool IsAtomicDecl(const std::vector<Token>& stmt) {
  int angle = 0;
  for (size_t i = 0; i < stmt.size(); ++i) {
    const Token& t = stmt[i];
    if (t.kind == Token::Kind::kPunct) {
      if (t.text == "<") ++angle;
      if (t.text == ">" || t.text == ">>") {
        angle = std::max(0, angle - (t.text == ">>" ? 2 : 1));
      }
    }
    if (angle == 0 && t.kind == Token::Kind::kIdent && t.text == "atomic" &&
        i + 1 < stmt.size() && stmt[i + 1].text == "<") {
      return true;
    }
  }
  return false;
}

// The tape-interception protocol (autograd/tape_hooks.h) and the plan
// engine's internals. A file that names these is wiring itself into graph
// capture/replay directly, bypassing the Planner's validation and
// fallback machinery.
const char* const kPlanProtocolTokens[] = {
    "TapeHooks", "SetTapeHooks", "CurrentTapeHooks",
    "Capturer",  "Replayer",     "HooksGuard",
};

// The Planner facade. Legal only at the trainer capture sites (and inside
// src/plan itself); see IsPlanCaptureSite.
const char* const kPlanApiTokens[] = {
    "ExecutionPlan", "Planner", "MakeKey", "ReplayMismatch",
};

class DeclarationScanner {
 public:
  DeclarationScanner(const ParsedFile& file, std::set<std::string>* exports,
                     Reporter* reporter)
      : file_(file), exports_(exports), reporter_(reporter) {
    src_rules_ = reporter_ != nullptr && StartsWith(file.path, "src/") &&
                 !IsInfraAllowlisted(file.path);
  }

  void Run() {
    stack_.push_back(Context{Scope::kNamespace, {}});
    const std::vector<Token>& toks = file_.tokens;
    int pending_lambda_paren = -1;  // paren depth at lambda introducer
    int paren_depth = 0;
    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind == Token::Kind::kPunct) {
        if (t.text == "(") ++paren_depth;
        if (t.text == ")") paren_depth = std::max(0, paren_depth - 1);
        if (t.text == "[" && LambdaIntroducer(toks, i)) {
          // Skip the capture list; the next `{` at this paren depth opens
          // the lambda body.
          size_t j = i + 1;
          int depth = 1;
          while (j < toks.size() && depth > 0) {
            if (toks[j].text == "[") ++depth;
            if (toks[j].text == "]") --depth;
            ++j;
          }
          pending_lambda_paren = paren_depth;
          Cur().stmt.push_back(t);
          i = j - 1;
          continue;
        }
        if (t.text == "{") {
          Scope s;
          if (pending_lambda_paren >= 0 &&
              paren_depth == pending_lambda_paren) {
            s = Scope::kLambda;
            pending_lambda_paren = -1;
          } else {
            s = ClassifyBrace();
          }
          // A namespace / type / enum / function header is consumed by
          // its own brace construct; only init-braces and lambdas are
          // part of a statement that continues at the parent level.
          if (s != Scope::kBlock && s != Scope::kLambda) Cur().stmt.clear();
          stack_.push_back(Context{s, {}});
          continue;
        }
        if (t.text == "}") {
          if (stack_.size() > 1) {
            if (Cur().scope == Scope::kEnum) ProcessEnumerator();
            const Scope popped = Cur().scope;
            stack_.pop_back();
            if (popped == Scope::kBlock || popped == Scope::kLambda) {
              // Leave a placeholder so `X x{...};` and `auto f = [..]{};`
              // statements stay parseable by the parent level.
              Token ph;
              ph.kind = Token::Kind::kPunct;
              ph.text = "{}";
              ph.line = t.line;
              Cur().stmt.push_back(ph);
            }
          }
          continue;
        }
        if (t.text == ";") {
          ProcessStatement();
          Cur().stmt.clear();
          continue;
        }
        if (t.text == "," && Cur().scope == Scope::kEnum &&
            paren_depth == 0) {
          ProcessEnumerator();
          Cur().stmt.clear();
          continue;
        }
      }
      Cur().stmt.push_back(t);
    }
    ProcessStatement();  // trailing statement without `;`
  }

 private:
  Context& Cur() { return stack_.back(); }

  // A `[` introduces a lambda when it cannot be a subscript or attribute:
  // the previous significant token is not an identifier, `)`, `]`, or a
  // literal. (`[[` attributes are a single token and never reach here.)
  bool LambdaIntroducer(const std::vector<Token>& toks, size_t i) const {
    if (i == 0) return true;
    const Token& p = toks[i - 1];
    if (p.kind == Token::Kind::kIdent) {
      // `return [...]` / `case x:` keywords still introduce expressions.
      return p.text == "return" || p.text == "co_return" ||
             p.text == "co_yield";
    }
    if (p.kind == Token::Kind::kNumber || p.kind == Token::Kind::kString ||
        p.kind == Token::Kind::kChar) {
      return false;
    }
    return p.text != ")" && p.text != "]";
  }

  Scope ClassifyBrace() {
    const std::vector<Token>& stmt = Cur().stmt;
    if (HasIdent(stmt, "namespace")) return Scope::kNamespace;
    if (HasIdent(stmt, "enum")) {
      RecordTypeDecl();
      return Scope::kEnum;
    }
    if (HasIdent(stmt, "class") || HasIdent(stmt, "struct") ||
        HasIdent(stmt, "union")) {
      RecordTypeDecl();
      return Scope::kType;
    }
    for (const Token& t : stmt) {
      if (t.kind == Token::Kind::kPunct && t.text == ")") {
        RecordFunctionDef();
        return Scope::kFunction;
      }
    }
    return Scope::kBlock;
  }

  // Exports are *namespace-scope* names only: types, free functions,
  // globals, aliases, and enumerators of namespace-scope enums. Members
  // are deliberately excluded — they are reached through their type's
  // name, and member identifiers (`b`, `h`, `Step`, ...) are common
  // enough that exporting them would mark nearly every include as used.
  void RecordTypeDecl() {
    if (exports_ == nullptr || Cur().scope != Scope::kNamespace) return;
    std::string name = TypeNameOf(Cur().stmt);
    if (!name.empty()) exports_->insert(name);
  }

  // A free function defined at namespace scope (an inline function in a
  // header) exports its name like a declaration does. An out-of-class
  // member definition (`T::f(...) {`) exports nothing.
  void RecordFunctionDef() {
    if (exports_ == nullptr || Cur().scope != Scope::kNamespace) return;
    const std::vector<Token>& stmt = Cur().stmt;
    const std::string name = DeclaredNameOf(stmt);
    if (name.empty()) return;
    for (size_t i = 1; i < stmt.size(); ++i) {
      if (stmt[i].text == name && stmt[i - 1].text == "::") return;
    }
    exports_->insert(name);
  }

  void ProcessEnumerator() {
    if (exports_ == nullptr) return;
    if (stack_.size() < 2 ||
        stack_[stack_.size() - 2].scope != Scope::kNamespace) {
      return;
    }
    for (const Token& t : Cur().stmt) {
      if (t.kind == Token::Kind::kIdent && !IsKeyword(t.text)) {
        exports_->insert(t.text);
        break;
      }
    }
  }

  void ProcessStatement() {
    const std::vector<Token>& stmt = Cur().stmt;
    if (stmt.empty()) return;
    const Scope scope = Cur().scope;

    if (IsDeclScope(scope)) {
      if (scope == Scope::kEnum) {
        ProcessEnumerator();
        return;
      }
      if (exports_ != nullptr && scope == Scope::kNamespace &&
          !HasIdent(stmt, "friend")) {
        if (HasIdent(stmt, "class") || HasIdent(stmt, "struct") ||
            HasIdent(stmt, "union") || HasIdent(stmt, "enum")) {
          std::string name = TypeNameOf(stmt);
          if (!name.empty()) exports_->insert(name);
        } else {
          std::string name = DeclaredNameOf(stmt);
          if (!name.empty()) exports_->insert(name);
        }
      }
    }
    CheckMutableGlobal(stmt, scope);
    CheckScopedStorage(stmt, scope);
  }

  void CheckMutableGlobal(const std::vector<Token>& stmt, Scope scope) {
    if (!src_rules_) return;
    const bool has_storage =
        HasIdent(stmt, "static") || HasIdent(stmt, "thread_local");
    const bool ns_atomic =
        (scope == Scope::kNamespace || scope == Scope::kType) &&
        IsAtomicDecl(stmt);
    if (!has_storage && !ns_atomic) return;
    for (const char* skip :
         {"const", "constexpr", "constinit", "static_assert", "using",
          "friend", "extern", "typedef", "class", "struct", "enum",
          "union", "template"}) {
      if (HasIdent(stmt, skip)) return;
    }
    if (IsFunctionShaped(stmt)) return;
    std::string name = DeclaredNameOf(stmt);
    reporter_->Report(
        file_, stmt.front().line, kRuleMutableGlobal,
        "mutable " +
            std::string(has_storage ? "static/thread_local" : "atomic") +
            " state" + (name.empty() ? "" : " ('" + name + "')") +
            " in model/training code can make results depend on call "
            "interleaving; keep state in explicitly threaded objects "
            "(symbol-resolved check; spans multi-line declarations)");
  }

  // scoped-state-escape, storage half (the capture half is pass 3): a
  // Scoped* object must be a stack local bounded by its declaring frame.
  // Static or thread_local storage, a namespace-scope object, a class
  // member, or heap placement all outlive that frame. Aliases, friends,
  // forward and operator declarations declare no object; a
  // function-shaped statement without `static` counts as a function
  // declaration, as in CheckMutableGlobal, and in a class a static one
  // is a member function.
  void CheckScopedStorage(const std::vector<Token>& stmt, Scope scope) {
    if (!src_rules_) return;
    for (const char* skip : {"using", "typedef", "friend", "extern", "class",
                             "struct", "operator"}) {
      if (HasIdent(stmt, skip)) return;
    }
    const Token* cls = nullptr;
    bool names_object_type = false;  // named before `(`, `=`, or `{...}`
    bool past_declarator = false;
    for (const Token& t : stmt) {
      if (t.text == "(" || t.text == "=" || t.text == "{}") {
        past_declarator = true;
      }
      if (cls == nullptr && t.kind == Token::Kind::kIdent &&
          IsScopedStateClass(t.text)) {
        cls = &t;
        names_object_type = !past_declarator;
      }
    }
    if (cls == nullptr) return;
    const bool function_shaped = IsFunctionShaped(stmt);
    const char* where = nullptr;
    if (HasIdent(stmt, "new") || HasIdent(stmt, "make_unique") ||
        HasIdent(stmt, "make_shared") || HasIdent(stmt, "unique_ptr") ||
        HasIdent(stmt, "shared_ptr")) {
      where = "heap placement";
    } else if (!names_object_type) {
      return;
    } else if ((HasIdent(stmt, "static") || HasIdent(stmt, "thread_local")) &&
               !(function_shaped && scope == Scope::kType)) {
      where = "static/thread_local storage";
    } else if (!function_shaped && scope == Scope::kType) {
      where = "class-member storage";
    } else if (!function_shaped && scope == Scope::kNamespace) {
      where = "namespace-scope storage";
    } else {
      return;
    }
    reporter_->Report(
        file_, cls->line, kRuleScopeEscape,
        "scoped state '" + cls->text + "' has " + where + "; Scoped* RAII "
        "objects patch thread-local or process-global state for their "
        "declaring frame only, so they must be stack locals bounded by one "
        "training step (or inference chunk) — a ScopedArena that outlives "
        "its step lets arena-backed tensors outlive the Reset() that "
        "recycles their memory");
  }

  const ParsedFile& file_;
  std::set<std::string>* exports_;
  Reporter* reporter_;
  bool src_rules_ = false;  // src/ outside the infrastructure allowlist
  std::vector<Context> stack_;
};

}  // namespace

std::set<std::string> ExtractExportedSymbols(const ParsedFile& file) {
  std::set<std::string> exports = file.defines;
  DeclarationScanner scanner(file, &exports, nullptr);
  scanner.Run();
  return exports;
}

void CheckSymbols(const ParsedFile& file, Reporter* reporter) {
  DeclarationScanner scanner(file, nullptr, reporter);
  scanner.Run();

  // Plan-capture confinement: the tape-interception protocol
  // is private to src/autograd + src/plan, and the Planner facade may only
  // appear at the trainer capture sites. Anywhere else, building or
  // replaying a plan sidesteps the one code path that validates bindings
  // and falls back to the dynamic tape on mismatch.
  const bool protocol_ok = IsPlanProtocolAllowlisted(file.path);
  const bool capture_site_ok = protocol_ok ||
                               IsPlanCaptureSite(file.path);
  if (!protocol_ok || !capture_site_ok) {
    for (const Token& t : file.tokens) {
      if (t.kind != Token::Kind::kIdent) continue;
      bool hit = false;
      if (!protocol_ok) {
        for (const char* banned : kPlanProtocolTokens) {
          if (t.text == banned) {
            reporter->Report(
                file, t.line, kRulePlanCaptureConfinement,
                "tape-interception machinery ('" + t.text + "') outside "
                "src/autograd and src/plan; graph capture/replay must go "
                "through plan::Planner, which validates bindings and falls "
                "back to the dynamic tape on mismatch");
            hit = true;
            break;
          }
        }
      }
      if (hit || capture_site_ok) continue;
      for (const char* banned : kPlanApiTokens) {
        if (t.text == banned) {
          reporter->Report(
              file, t.line, kRulePlanCaptureConfinement,
              "plan capture ('" + t.text + "') outside the trainer capture "
              "sites; plans are per-phase training-loop state — ops, "
              "layers, and losses must stay plan-agnostic");
          break;
        }
      }
    }
  }
}

}  // namespace analyze
}  // namespace clfd
