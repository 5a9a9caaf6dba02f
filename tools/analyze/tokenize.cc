#include "analyze/tokenize.h"

#include <cctype>

namespace clfd {
namespace analyze {

namespace {

bool IsPreprocessorLine(const std::string& code) {
  size_t b = code.find_first_not_of(" \t");
  return b != std::string::npos && code[b] == '#';
}

// Operators that must stay one token. Longest-match-first within each
// leading character; everything else becomes a single-char punct token.
const char* const kMultiCharPuncts[] = {
    "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "+=", "-=", "*=",
    "/=",  "%=",  "&=",  "|=",  "^=", "==", "!=", "<=", ">=", "&&", "||",
    "<<",  ">>",  "[[",  "]]",
};

}  // namespace

std::vector<Token> Tokenize(const std::vector<Line>& lines) {
  std::vector<Token> out;
  bool in_preproc = false;  // continuation of a preprocessor directive
  for (size_t li = 0; li < lines.size(); ++li) {
    const std::string& code = lines[li].code;
    const int line_no = static_cast<int>(li) + 1;
    if (in_preproc || IsPreprocessorLine(code)) {
      // A trailing backslash continues the directive onto the next line.
      size_t e = code.find_last_not_of(" \t");
      in_preproc = e != std::string::npos && code[e] == '\\';
      continue;
    }
    size_t i = 0;
    const size_t n = code.size();
    while (i < n) {
      char c = code[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      Token t;
      t.line = line_no;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i;
        while (j < n && IsIdentChar(code[j])) ++j;
        t.kind = Token::Kind::kIdent;
        t.text = code.substr(i, j - i);
        i = j;
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        // Numbers (incl. hex/float suffixes); pulls in trailing ident
        // chars and dots, which is plenty for analysis purposes.
        size_t j = i;
        while (j < n && (IsIdentChar(code[j]) || code[j] == '.')) ++j;
        t.kind = Token::Kind::kNumber;
        t.text = code.substr(i, j - i);
        i = j;
      } else if (c == '"') {
        // Blanked string literal: `""`.
        t.kind = Token::Kind::kString;
        t.text = "\"\"";
        i = code.find('"', i + 1);
        i = i == std::string::npos ? n : i + 1;
      } else if (c == '\'') {
        // Blanked char literal: `' '`.
        t.kind = Token::Kind::kChar;
        t.text = "' '";
        i = code.find('\'', i + 1);
        i = i == std::string::npos ? n : i + 1;
      } else {
        t.kind = Token::Kind::kPunct;
        t.text = std::string(1, c);
        for (const char* op : kMultiCharPuncts) {
          std::string s(op);
          if (code.compare(i, s.size(), s) == 0) {
            t.text = s;
            break;
          }
        }
        i += t.text.size();
      }
      out.push_back(std::move(t));
    }
  }
  return out;
}

}  // namespace analyze
}  // namespace clfd
