#pragma once

// The analyzer's lexical substrate: a comment/string/raw-string stripper
// that preserves line structure, inline-pragma parsing, and small token
// helpers. Every pass reads the stripped lines or the token stream built
// from them (tokenize.h), so all rules agree on what counts as code.

#include <string>
#include <vector>

namespace clfd {
namespace analyze {

// One source line after stripping. Comment and string-literal *contents*
// are blanked (string literals collapse to `""`, char literals to `' '`,
// comments to spaces) so token rules never fire on prose, while pragmas
// are parsed out of the comment text before it is dropped. Line structure
// is preserved exactly, so violation line numbers match the original
// file.
struct Line {
  std::string code;                 // comments/strings blanked
  std::vector<std::string> allows;  // rule ids named by pragmas on this line
  bool comment_only = false;        // nothing but whitespace + comment(s)
};

// Splits `content` into stripped lines. A comment containing
// `clfd-analyze:` followed by `allow(rule[, rule...])` is a pragma. A
// digit separator (`1'000`) stays part of its number, and an unterminated
// string or char literal ends at its line.
std::vector<Line> SplitAndStrip(const std::string& content);

bool IsIdentChar(char c);

// True if `token` occurs in `code` with no identifier character
// immediately before it (so "rand(" does not match "srand("). The
// boundary test only applies when the token begins with an identifier
// character — "::now(" legitimately follows one.
bool HasToken(const std::string& code, const std::string& token);

bool StartsWith(const std::string& s, const std::string& prefix);
bool EndsWith(const std::string& s, const std::string& suffix);

}  // namespace analyze
}  // namespace clfd
