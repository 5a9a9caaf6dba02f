#include "obs/json_writer.h"

#include <cmath>
#include <cstdio>

namespace clfd {
namespace obs {

void AppendJsonString(std::ostream* os, std::string_view s) {
  *os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      *os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *os << buf;
    } else {
      *os << c;
    }
  }
  *os << '"';
}

void AppendJsonNumber(std::ostream* os, double v, int digits) {
  if (!std::isfinite(v)) {
    *os << "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  *os << buf;
}

}  // namespace obs
}  // namespace clfd
