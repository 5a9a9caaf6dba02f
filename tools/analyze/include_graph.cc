// Pass 1: include-graph layering. Builds the module DAG from every
// #include directive, enforces the declared layer ranks (DefaultLayers),
// rejects cycles independently of the rank table (belt and braces: a
// mis-edited table cannot hide a cycle), flags unused includes (IWYU-lite:
// an include is dead when none of the header's exported symbols — declared
// names or macros — is referenced by the including file), and renders the
// deterministic DOT graph committed at docs/module_dag.dot.

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "analyze/parsed_file.h"
#include "analyze/text.h"

namespace clfd {
namespace analyze {

namespace {

std::string Dirname(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == std::string::npos ? "" : path.substr(0, slash);
}

std::string Stem(const std::string& path) {
  size_t slash = path.rfind('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = base.rfind('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

// Resolves a quoted include against the places the build's include dirs
// point at: the includer's own directory, src/, tools/, and the repo
// root. Returns "" when the target is not part of the analyzed program.
std::string ResolveInclude(const std::string& includer_path,
                           const std::string& target,
                           const std::set<std::string>& known_paths) {
  const std::string dir = Dirname(includer_path);
  const std::string candidates[] = {
      dir.empty() ? target : dir + "/" + target,
      "src/" + target,
      "tools/" + target,
      target,
  };
  for (const std::string& c : candidates) {
    if (known_paths.count(c) != 0) return c;
  }
  return "";
}

struct ModuleEdge {
  std::string from;
  std::string to;
  // Representative include site (first one seen in path order).
  std::string file;
  int line = 0;
};

// Depth-first cycle search over the module graph; reports each back edge
// with the cycle path it closes.
void FindCycles(const std::map<std::string, std::set<std::string>>& adj,
                std::vector<std::pair<std::string, std::string>>* back_edges,
                std::vector<std::string>* cycle_paths) {
  enum class Color { kWhite, kGray, kBlack };
  std::map<std::string, Color> color;
  for (const auto& entry : adj) color[entry.first] = Color::kWhite;

  std::vector<std::string> stack;
  // Recursive lambda via explicit self-reference.
  std::function<void(const std::string&)> visit =
      [&](const std::string& m) {
        color[m] = Color::kGray;
        stack.push_back(m);
        auto it = adj.find(m);
        if (it != adj.end()) {
          for (const std::string& next : it->second) {
            if (color[next] == Color::kGray) {
              // Found a cycle: slice the stack from `next` to `m`.
              std::ostringstream os;
              auto pos = std::find(stack.begin(), stack.end(), next);
              for (auto p = pos; p != stack.end(); ++p) os << *p << " -> ";
              os << next;
              back_edges->push_back({m, next});
              cycle_paths->push_back(os.str());
            } else if (color[next] == Color::kWhite) {
              visit(next);
            }
          }
        }
        stack.pop_back();
        color[m] = Color::kBlack;
      };
  for (const auto& entry : adj) {
    if (color[entry.first] == Color::kWhite) visit(entry.first);
  }
}

std::string ModuleOfInclude(const std::string& target) {
  size_t slash = target.find('/');
  return slash == std::string::npos ? "" : target.substr(0, slash);
}

}  // namespace

void CheckIncludeGraph(const std::vector<ParsedFile>& files,
                       const std::map<std::string, int>& layers,
                       Reporter* reporter) {
  std::set<std::string> known_paths;
  std::map<std::string, const ParsedFile*> by_path;
  for (const ParsedFile& f : files) {
    known_paths.insert(f.path);
    by_path[f.path] = &f;
  }

  // Exported-symbol tables for every analyzed header, computed lazily —
  // only headers that are actually included get scanned.
  std::map<std::string, std::set<std::string>> exports_cache;
  auto exports_of = [&](const std::string& path) -> const std::set<std::string>& {
    auto it = exports_cache.find(path);
    if (it == exports_cache.end()) {
      it = exports_cache
               .emplace(path, ExtractExportedSymbols(*by_path.at(path)))
               .first;
    }
    return it->second;
  };

  std::map<std::string, std::set<std::string>> module_adj;
  std::map<std::pair<std::string, std::string>, std::pair<std::string, int>>
      edge_site;

  for (const ParsedFile& f : files) {
    // Identifier tokens referenced by this file, for the IWYU pass.
    std::set<std::string> used;
    for (const Token& t : f.tokens) {
      if (t.kind == Token::Kind::kIdent) used.insert(t.text);
    }

    const bool in_src = StartsWith(f.path, "src/");
    auto layer_of = [&](const std::string& m) {
      auto it = layers.find(m);
      return it == layers.end() ? -1 : it->second;
    };

    if (in_src && !f.module.empty() && layer_of(f.module) < 0) {
      reporter->Report(f, 1, kRuleLayeringUnknown,
                       "module 'src/" + f.module +
                           "' is not in the declared layering; add it to "
                           "DefaultLayers() in tools/analyze/analyze.cc "
                           "and regenerate docs/module_dag.dot");
    }

    for (const IncludeDirective& inc : f.includes) {
      if (inc.system) continue;

      // --- layering (src/ modules only) ---
      if (in_src && !f.module.empty()) {
        const std::string to = ModuleOfInclude(inc.target);
        const bool to_is_module =
            !to.empty() && (layers.count(to) != 0 ||
                            known_paths.count("src/" + inc.target) != 0);
        if (to_is_module && to != f.module) {
          module_adj[f.module].insert(to);
          module_adj.emplace(to, std::set<std::string>{});
          edge_site.emplace(std::make_pair(f.module, to),
                            std::make_pair(f.path, inc.line));
          const int from_rank = layer_of(f.module);
          const int to_rank = layer_of(to);
          if (to_rank < 0) {
            reporter->Report(
                f, inc.line, kRuleLayeringUnknown,
                "include of unknown module 'src/" + to +
                    "'; declare its layer in DefaultLayers() "
                    "(tools/analyze/analyze.cc)");
          } else if (from_rank >= 0 && to_rank >= from_rank) {
            std::ostringstream os;
            os << "upward include: module '" << f.module << "' (layer "
               << from_rank << ") must not include '" << to << "' (layer "
               << to_rank << "); dependencies flow strictly downward in "
               << "the declared layering (docs/module_dag.dot)";
            reporter->Report(f, inc.line, kRuleLayeringUpward, os.str());
          }
        }
      }

      // --- IWYU-lite (every analyzed file) ---
      const std::string resolved =
          ResolveInclude(f.path, inc.target, known_paths);
      if (resolved.empty() || resolved == f.path) continue;
      // A .cc always keeps its own header (the definition TU include).
      if (Stem(resolved) == Stem(f.path) &&
          Dirname(resolved) == Dirname(f.path)) {
        continue;
      }
      const std::set<std::string>& exports = exports_of(resolved);
      if (exports.empty()) continue;  // nothing extractable; can't judge
      bool referenced = false;
      for (const std::string& sym : exports) {
        if (used.count(sym) != 0) {
          referenced = true;
          break;
        }
      }
      if (!referenced) {
        reporter->Report(f, inc.line, kRuleIncludeUnused,
                         "unused include: nothing declared in '" +
                             inc.target + "' is referenced by this file; "
                             "drop the include (or include what you "
                             "actually use instead)");
      }
    }
  }

  // --- cycles (module graph, independent of the rank table) ---
  std::vector<std::pair<std::string, std::string>> back_edges;
  std::vector<std::string> cycle_paths;
  FindCycles(module_adj, &back_edges, &cycle_paths);
  for (size_t i = 0; i < back_edges.size(); ++i) {
    auto site = edge_site.find(back_edges[i]);
    if (site == edge_site.end()) continue;
    const ParsedFile* f = by_path.at(site->second.first);
    reporter->Report(*f, site->second.second, kRuleLayeringCycle,
                     "module include cycle: " + cycle_paths[i] +
                         "; the module graph must stay a DAG");
  }
}

std::string ModuleGraphDot(const std::vector<FileInput>& files,
                           const Options& opts) {
  std::set<std::string> known_paths;
  for (const FileInput& f : files) known_paths.insert(f.path);

  std::map<std::string, std::set<std::string>> adj;
  std::set<std::string> modules;
  for (const FileInput& in : files) {
    if (!StartsWith(in.path, "src/")) continue;
    ParsedFile f = ParseFile(in.path, in.content);
    if (f.module.empty()) continue;
    modules.insert(f.module);
    for (const IncludeDirective& inc : f.includes) {
      if (inc.system) continue;
      const std::string to = ModuleOfInclude(inc.target);
      const bool to_is_module =
          !to.empty() && (opts.layers.count(to) != 0 ||
                          known_paths.count("src/" + inc.target) != 0);
      if (to_is_module && to != f.module) {
        adj[f.module].insert(to);
        modules.insert(to);
      }
    }
  }

  // Group modules by declared rank; undeclared modules render in a
  // distinct "undeclared" band so a stale table is visible in the graph.
  std::map<int, std::vector<std::string>> by_rank;
  for (const std::string& m : modules) {
    auto it = opts.layers.find(m);
    by_rank[it == opts.layers.end() ? -1 : it->second].push_back(m);
  }

  std::ostringstream os;
  os << "// CLFD module include DAG. Generated — do not edit by hand.\n"
     << "// Regenerate:  clfd_analyze --root . --dot docs/module_dag.dot\n"
     << "// Verified in CI by:  clfd_analyze --check-dot "
        "docs/module_dag.dot\n"
     << "digraph clfd_modules {\n"
     << "  rankdir = TB;\n"
     << "  node [shape=box, fontname=\"Helvetica\", fontsize=11];\n";
  for (const auto& [rank, mods] : by_rank) {
    os << "  { rank=same;";
    for (const std::string& m : mods) os << " \"" << m << "\";";
    os << " }\n";
  }
  for (const auto& [rank, mods] : by_rank) {
    for (const std::string& m : mods) {
      os << "  \"" << m << "\" [label=\"" << m << "\\nlayer "
         << (rank < 0 ? std::string("?") : std::to_string(rank))
         << "\"];\n";
    }
  }
  for (const auto& [from, tos] : adj) {
    for (const std::string& to : tos) {
      os << "  \"" << from << "\" -> \"" << to << "\";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace analyze
}  // namespace clfd
