#include "analyze/text.h"

#include <cctype>

namespace clfd {
namespace analyze {

namespace {

constexpr char kPragmaKey[] = "clfd-analyze:";

void ParsePragmas(const std::string& comment, std::vector<std::string>* out) {
  const std::string key = kPragmaKey;
  size_t pos = comment.find(key);
  while (pos != std::string::npos) {
    size_t p = pos + key.size();
    while (p < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[p]))) {
      ++p;
    }
    const std::string verb = "allow(";
    if (comment.compare(p, verb.size(), verb) == 0) {
      size_t open = p + verb.size();
      size_t close = comment.find(')', open);
      if (close != std::string::npos) {
        std::string list = comment.substr(open, close - open);
        std::string id;
        for (char c : list + ",") {
          if (c == ',') {
            if (!id.empty()) out->push_back(id);
            id.clear();
          } else if (!std::isspace(static_cast<unsigned char>(c))) {
            id.push_back(c);
          }
        }
      }
    }
    pos = comment.find(key, pos + key.size());
  }
}

// True when the code emitted so far ends in a number that starts with a
// digit, so a `'` here is a digit separator (`1'000`, `0xFF'FF`) rather
// than the start of a char literal (`u8'a'`, `L'a'`).
bool EndsInNumber(const std::string& code) {
  size_t b = code.size();
  while (b > 0 && (IsIdentChar(code[b - 1]) || code[b - 1] == '.')) --b;
  return b < code.size() && std::isdigit(static_cast<unsigned char>(code[b]));
}

}  // namespace

std::vector<Line> SplitAndStrip(const std::string& content) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  std::vector<Line> lines;
  Line cur;
  std::string cur_comment;   // comment text accumulated on the current line
  bool cur_has_code = false;
  State state = State::kCode;
  std::string raw_delim;     // delimiter of an active raw string, ")d..."

  auto end_line = [&]() {
    ParsePragmas(cur_comment, &cur.allows);
    cur.comment_only = !cur_has_code && !cur_comment.empty();
    lines.push_back(std::move(cur));
    cur = Line();
    cur_comment.clear();
    cur_has_code = false;
  };

  const size_t n = content.size();
  for (size_t i = 0; i < n; ++i) {
    char c = content[i];
    char next = i + 1 < n ? content[i + 1] : '\0';
    if (c == '\n') {
      // Only block comments and raw strings span lines; an unterminated
      // string or char literal must not hide the rest of the file.
      if (state != State::kBlockComment && state != State::kRawString) {
        state = State::kCode;
      }
      end_line();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          cur.code += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          cur.code += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   content[i - 1])) &&
                               content[i - 1] != '_'))) {
          // Raw string literal R"delim( ... )delim".
          size_t open = content.find('(', i + 2);
          if (open == std::string::npos) {
            cur.code += c;  // malformed; treat as code
          } else {
            raw_delim = ")" + content.substr(i + 2, open - (i + 2)) + "\"";
            state = State::kRawString;
            cur.code += "\"\"";
            cur_has_code = true;
            i = open;  // skip past the opening paren
          }
        } else if (c == '"') {
          state = State::kString;
          cur.code += "\"\"";
          cur_has_code = true;
        } else if (c == '\'' && EndsInNumber(cur.code)) {
          // Digit separator: dropped, so the number stays one token.
        } else if (c == '\'') {
          state = State::kChar;
          cur.code += "' '";
          cur_has_code = true;
        } else {
          cur.code += c;
          if (!std::isspace(static_cast<unsigned char>(c))) {
            cur_has_code = true;
          }
        }
        break;
      case State::kLineComment:
        cur_comment += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else {
          cur_comment += c;
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\n') {
          ++i;  // skip the escaped char, but never swallow a newline
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\n') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (c == raw_delim[0] &&
            content.compare(i, raw_delim.size(), raw_delim) == 0) {
          state = State::kCode;
          i += raw_delim.size() - 1;
        }
        break;
    }
  }
  end_line();
  return lines;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool HasToken(const std::string& code, const std::string& token) {
  const bool need_boundary = IsIdentChar(token[0]);
  size_t pos = code.find(token);
  while (pos != std::string::npos) {
    if (!need_boundary || pos == 0 || !IsIdentChar(code[pos - 1])) {
      return true;
    }
    pos = code.find(token, pos + 1);
  }
  return false;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace analyze
}  // namespace clfd
