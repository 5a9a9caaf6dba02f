#include "analyze/diag.h"

#include <cstdio>
#include <ostream>
#include <sstream>

namespace clfd {
namespace analyze {

std::string FormatCompilerStyle(const Diagnostic& d) {
  std::ostringstream os;
  os << d.path << ":" << d.line << ": " << d.rule << ": " << d.message;
  return os.str();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void WriteJsonDiagnostics(const std::vector<Diagnostic>& diags,
                          std::ostream& os) {
  os << "[";
  for (size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "  {\"path\": \"" << JsonEscape(d.path) << "\", \"line\": "
       << d.line << ", \"rule\": \"" << JsonEscape(d.rule)
       << "\", \"message\": \"" << JsonEscape(d.message) << "\"}";
  }
  os << (diags.empty() ? "]\n" : "\n]\n");
}

}  // namespace analyze
}  // namespace clfd
