#pragma once

// A flat C++ token stream over stripped lines (see text.h). This is not a
// compiler lexer: string/char literals were already blanked by
// SplitAndStrip (they arrive as `""` / `' '` and become single kString /
// kChar tokens), and preprocessor lines — any line whose first
// non-whitespace code character is `#`, plus backslash-continuation lines
// that follow one — are skipped entirely, so macro bodies never leak
// half-statements into the stream. Multi-character operators the analyses
// care about (`::`, `->`, compound assignments, `[[`/`]]` attributes, ...)
// are merged into single punctuation tokens.

#include <string>
#include <vector>

#include "analyze/text.h"

namespace clfd {
namespace analyze {

struct Token {
  enum class Kind { kIdent, kNumber, kPunct, kString, kChar };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 0;  // 1-based line in the original file
};

std::vector<Token> Tokenize(const std::vector<Line>& lines);

}  // namespace analyze
}  // namespace clfd
