// clfd_analyze: the repo's static checker (DESIGN.md §14).
//
// Loads every .cc/.h under src/, tests/, bench/, and tools/ (one program,
// analyzed together — the passes need the full include graph), runs the
// five passes, and reports compiler-style diagnostics. Exit status is 1
// when any violation survives pragma filtering, so it slots directly into
// ctest as `analyze.repo`.
//
// Usage:
//   clfd_analyze [--root DIR] [--list-rules] [--json]
//                [--dot FILE] [--check-dot FILE] [subdir...]
// With no subdirs, analyzes src tests bench tools. --dot writes the module
// DAG (Graphviz) to FILE and exits; --check-dot diffs FILE against the
// freshly rendered DAG and reports module-dag-stale when the committed
// graph no longer matches the tree. --json replaces the compiler-style
// report on stdout with a JSON array of {path, line, rule, message}.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.h"

namespace fs = std::filesystem;

namespace {

bool HasAnalyzableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".cpp" || ext == ".h" || ext == ".hpp";
}

std::string ReadFile(const fs::path& p, bool* ok) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    *ok = false;
    return "";
  }
  std::ostringstream os;
  os << in.rdbuf();
  *ok = true;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::vector<std::string> subdirs;
  bool json = false;
  std::string dot_out;
  std::string dot_check;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--list-rules") {
      for (const std::string& r : clfd::analyze::RuleNames()) {
        std::cout << r << "\n";
      }
      return 0;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--dot" && i + 1 < argc) {
      dot_out = argv[++i];
    } else if (arg == "--check-dot" && i + 1 < argc) {
      dot_check = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: clfd_analyze [--root DIR] [--list-rules] "
                   "[--json] [--dot FILE] [--check-dot FILE] [subdir...]\n";
      return 0;
    } else {
      subdirs.push_back(arg);
    }
  }
  if (subdirs.empty()) subdirs = {"src", "tests", "bench", "tools"};

  std::vector<clfd::analyze::FileInput> inputs;
  std::error_code ec;
  for (const std::string& sub : subdirs) {
    fs::path dir = root / sub;
    if (!fs::is_directory(dir, ec)) {
      std::cerr << "clfd_analyze: skipping missing directory "
                << dir.string() << "\n";
      continue;
    }
    std::vector<fs::path> files;
    for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (it->is_regular_file(ec) && HasAnalyzableExtension(it->path())) {
        files.push_back(it->path());
      }
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& file : files) {
      bool ok = false;
      std::string content = ReadFile(file, &ok);
      if (!ok) {
        std::cerr << "clfd_analyze: cannot read " << file.string() << "\n";
        return 1;
      }
      const std::string rel = fs::relative(file, root, ec).generic_string();
      inputs.push_back(clfd::analyze::FileInput{
          ec ? file.generic_string() : rel, std::move(content)});
    }
  }

  const clfd::analyze::Options opts;

  if (!dot_out.empty()) {
    std::ofstream out(dot_out, std::ios::binary);
    if (!out) {
      std::cerr << "clfd_analyze: cannot write " << dot_out << "\n";
      return 1;
    }
    out << clfd::analyze::ModuleGraphDot(inputs, opts);
    std::cerr << "clfd_analyze: wrote module DAG to " << dot_out << "\n";
    return 0;
  }

  std::vector<clfd::analyze::Diagnostic> diags =
      clfd::analyze::AnalyzeProgram(inputs, opts);

  if (!dot_check.empty()) {
    const fs::path committed =
        fs::path(dot_check).is_absolute() ? fs::path(dot_check)
                                          : root / dot_check;
    bool ok = false;
    const std::string want = clfd::analyze::ModuleGraphDot(inputs, opts);
    const std::string have = ReadFile(committed, &ok);
    if (!ok) {
      diags.push_back(clfd::analyze::Diagnostic{
          dot_check, 1, clfd::analyze::kRuleDotStale,
          "committed module DAG is missing; regenerate with "
          "`clfd_analyze --root . --dot " +
              dot_check + "`"});
    } else if (have != want) {
      diags.push_back(clfd::analyze::Diagnostic{
          dot_check, 1, clfd::analyze::kRuleDotStale,
          "committed module DAG no longer matches the tree's include "
          "graph; regenerate with `clfd_analyze --root . --dot " +
              dot_check + "`"});
    }
  }

  if (json) {
    clfd::analyze::WriteJsonDiagnostics(diags, std::cout);
  } else {
    for (const clfd::analyze::Diagnostic& d : diags) {
      std::cout << clfd::analyze::FormatCompilerStyle(d) << "\n";
    }
  }
  std::cerr << "clfd_analyze: " << inputs.size() << " files, "
            << diags.size() << " violation(s)\n";
  return diags.empty() ? 0 : 1;
}
