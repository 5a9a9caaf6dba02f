#include "analyze/diag.h"

#include <ostream>
#include <sstream>

#include "obs/json_writer.h"

namespace clfd {
namespace analyze {

std::string FormatCompilerStyle(const Diagnostic& d) {
  std::ostringstream os;
  os << d.path << ":" << d.line << ": " << d.rule << ": " << d.message;
  return os.str();
}

void WriteJsonDiagnostics(const std::vector<Diagnostic>& diags,
                          std::ostream& os) {
  os << "[";
  for (size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "  {\"path\": ";
    obs::AppendJsonString(&os, d.path);
    os << ", \"line\": " << d.line << ", \"rule\": ";
    obs::AppendJsonString(&os, d.rule);
    os << ", \"message\": ";
    obs::AppendJsonString(&os, d.message);
    os << "}";
  }
  os << (diags.empty() ? "]\n" : "\n]\n");
}

}  // namespace analyze
}  // namespace clfd
