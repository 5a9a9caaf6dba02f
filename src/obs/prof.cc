#include "obs/prof.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/env.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace clfd {
namespace obs {
namespace prof {

const ReportNode* ReportNode::Child(const std::string& child_name) const {
  for (const ReportNode& c : children) {
    if (c.name == child_name) return &c;
  }
  return nullptr;
}

int64_t ReportNode::TotalFlops() const {
  int64_t total = flops;
  for (const ReportNode& c : children) total += c.TotalFlops();
  return total;
}

int64_t ReportNode::TotalBytes() const {
  int64_t total = bytes;
  for (const ReportNode& c : children) total += c.TotalBytes();
  return total;
}

namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Origin of the obs clock, taken during static initialisation so that
// NowNs() is one clock read and one subtraction, with no first-use guard.
const int64_t g_origin_ns = SteadyNs();

// One scope-tree node of one thread. Totals are written only by the owning
// thread; cross-thread visibility for Snapshot/Reset is provided by the
// ParallelFor join handshake (every worker that observed the job — even
// one that claimed no chunks — signals after its obs-context teardown, and
// the submitter waits that signal out), per the quiescence contract in
// prof.h.
struct Node {
  const char* name;
  Node* parent;
  int64_t ns = 0;
  int64_t count = 0;
  int64_t flops = 0;
  int64_t bytes = 0;
  std::vector<std::unique_ptr<Node>> children;

  Node(const char* n, Node* p) : name(n), parent(p) {}

  Node* FindOrAddChild(const char* child_name) {
    for (auto& c : children) {
      // Fast path: string literals from one call site share a pointer.
      if (c->name == child_name ||
          std::strcmp(c->name, child_name) == 0) {
        return c.get();
      }
    }
    children.push_back(std::make_unique<Node>(child_name, this));
    return children.back().get();
  }
};

// Per-thread scope tree; registered once and kept for the process lifetime
// so profiles of finished pool workers survive into the merged snapshot.
// `current` is the thread's one scope stack: the innermost open node.
struct ThreadProfile {
  Node root{"root", nullptr};
  Node* current = &root;
};

std::mutex& RegistryMutex() {
  static std::mutex* m = new std::mutex();
  return *m;
}

std::vector<std::unique_ptr<ThreadProfile>>& Registry() {
  static std::vector<std::unique_ptr<ThreadProfile>>* r =
      new std::vector<std::unique_ptr<ThreadProfile>>();
  return *r;
}

thread_local ThreadProfile* tls_profile = nullptr;

// Innermost open PhaseCapture of the current thread (null when none).
thread_local PhaseCapture* tls_capture = nullptr;

// Writes the env-selected reports at process exit (registered when the
// enable flag is first read); keeps one-shot tools and benches
// zero-ceremony.
void WriteExitReports();

// The profiler switch: 1 on, 0 off, -1 until the first read takes CLFD_PROF
// (log.cc keeps its level the same way). Read on every scope entry, so
// after that first read Enabled() is this one relaxed load.
constexpr int kUninitialized = -1;
std::atomic<int> g_enabled{kUninitialized};

// Cold path of the first read: takes CLFD_PROF and registers the exit
// reports. The first thread to publish a value wins; the others return it.
int InitEnabled() {
  int expected = kUninitialized;
  const int from_env = GetEnvBool("CLFD_PROF", true) ? 1 : 0;
  if (g_enabled.compare_exchange_strong(expected, from_env,
                                        std::memory_order_relaxed)) {
    std::atexit(WriteExitReports);
    return from_env;
  }
  return expected;
}

ThreadProfile* CurrentThreadProfile() {
  if (tls_profile == nullptr) {
    auto profile = std::make_unique<ThreadProfile>();
    tls_profile = profile.get();
    std::lock_guard<std::mutex> lock(RegistryMutex());
    Registry().push_back(std::move(profile));
  }
  return tls_profile;
}

// Opens `name` under the thread's innermost node and makes it innermost.
Node* PushNode(const char* name) {
  ThreadProfile* tp = CurrentThreadProfile();
  Node* node = tp->current->FindOrAddChild(name);
  tp->current = node;
  return node;
}

// Closes `node`, the thread's innermost node, after `ns` nanoseconds.
void PopNode(Node* node, int64_t ns) {
  node->ns += ns;
  node->count += 1;
  tls_profile->current = node->parent;
}

void MergeInto(ReportNode* dst, const Node& src) {
  dst->ns += src.ns;
  dst->count += src.count;
  dst->flops += src.flops;
  dst->bytes += src.bytes;
  for (const auto& child : src.children) {
    ReportNode* slot = nullptr;
    for (ReportNode& c : dst->children) {
      if (c.name == child->name) {
        slot = &c;
        break;
      }
    }
    if (slot == nullptr) {
      dst->children.push_back(ReportNode{child->name, 0, 0, 0, 0, {}});
      slot = &dst->children.back();
    }
    MergeInto(slot, *child);
  }
}

void SortByName(ReportNode* node) {
  std::sort(node->children.begin(), node->children.end(),
            [](const ReportNode& a, const ReportNode& b) {
              return a.name < b.name;
            });
  for (ReportNode& c : node->children) SortByName(&c);
}

}  // namespace

bool Enabled() {
  int on = g_enabled.load(std::memory_order_relaxed);
  if (on == kUninitialized) on = InitEnabled();
  return on != 0;
}

void SetEnabled(bool on) {
  if (g_enabled.load(std::memory_order_relaxed) == kUninitialized) {
    InitEnabled();
  }
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

int64_t NowNs() { return SteadyNs() - g_origin_ns; }

void AddFlops(int64_t flops) {
  if (!Enabled()) return;
  CurrentThreadProfile()->current->flops += flops;
}

void AddBytes(int64_t bytes) {
  if (!Enabled()) return;
  CurrentThreadProfile()->current->bytes += bytes;
}

std::vector<const char*> CurrentPath() {
  std::vector<const char*> path;
  if (!Enabled()) return path;
  ThreadProfile* tp = CurrentThreadProfile();
  for (Node* n = tp->current; n != nullptr && n->parent != nullptr;
       n = n->parent) {
    path.push_back(n->name);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

ReportNode Snapshot() {
  ReportNode merged{"root", 0, 0, 0, 0, {}};
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (const auto& profile : Registry()) {
    MergeInto(&merged, profile->root);
  }
  SortByName(&merged);
  return merged;
}

void Reset() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (auto& profile : Registry()) {
    profile->root.children.clear();
    profile->root.ns = profile->root.count = 0;
    profile->root.flops = profile->root.bytes = 0;
    // A quiescent thread's cursor sits at its root; re-point it there in
    // case the profile belonged to a thread that already exited.
    profile->current = &profile->root;
  }
}

Scope::Scope(const char* name) {
  if (!Enabled()) return;
  node_ = PushNode(name);
  start_ns_ = NowNs();
}

Scope::Scope(SpanTag, const char* name) {
  const bool tree = Enabled();
  if (!tree && !TraceRecorder::Get().enabled() && tls_capture == nullptr) {
    return;
  }
  span_ = name;
  if (tree) node_ = PushNode(name);
  start_ns_ = NowNs();
}

void Scope::CloseNode() {
  PopNode(static_cast<Node*>(node_), NowNs() - start_ns_);
}

void Scope::Arg(const char* key, double value) {
  if (span_ == nullptr || num_args_ == kMaxArgs) return;
  arg_keys_[num_args_] = key;
  arg_values_[num_args_] = value;
  ++num_args_;
}

// Captures and spans nest lexically, so the thread's innermost capture is
// the same at close as it was at open.
void Scope::CloseSpan() {
  const int64_t end_ns = NowNs();
  const int64_t ns = end_ns - start_ns_;
  if (node_ != nullptr) PopNode(static_cast<Node*>(node_), ns);
  if (tls_capture != nullptr) tls_capture->ns_[span_] += ns;
  if (!TraceRecorder::Get().enabled()) return;
  std::string args;
  if (num_args_ > 0) {
    std::ostringstream os;
    for (int i = 0; i < num_args_; ++i) {
      if (i > 0) os << ',';
      AppendJsonString(&os, arg_keys_[i]);
      os << ':';
      AppendJsonNumber(&os, arg_values_[i]);
    }
    args = os.str();
  }
  TraceRecorder::Get().RecordComplete(span_, start_ns_, end_ns, args);
}

ScopedContext::ScopedContext(const std::vector<const char*>& path) {
  if (path.empty()) return;
  ThreadProfile* tp = CurrentThreadProfile();
  saved_ = tp->current;
  for (const char* name : path) {
    tp->current = tp->current->FindOrAddChild(name);
  }
  path_ = &path;
  if (TraceRecorder::Get().enabled()) start_ns_ = NowNs();
}

ScopedContext::~ScopedContext() {
  if (path_ == nullptr) return;
  tls_profile->current = static_cast<Node*>(saved_);
  if (start_ns_ < 0) return;
  std::string joined;
  for (size_t i = 0; i < path_->size(); ++i) {
    if (i > 0) joined += ";";
    joined += (*path_)[i];
  }
  std::ostringstream ctx;
  ctx << "\"ctx\":";
  AppendJsonString(&ctx, joined);
  TraceRecorder::Get().RecordComplete(path_->back(), start_ns_, NowNs(),
                                      ctx.str());
}

bool WriteReports(const std::string& json_path,
                  const std::string& collapsed_path,
                  const std::string& roofline_path) {
  if (json_path.empty() && collapsed_path.empty() && roofline_path.empty()) {
    return true;
  }
  bool all_ok = true;
  auto write = [&all_ok](const std::string& path, const std::string& body,
                         const char* what) {
    if (path.empty()) return;
    if (path == "-") {
      std::fwrite(body.data(), 1, body.size(), stderr);
      return;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    bool ok = f != nullptr &&
              std::fwrite(body.data(), 1, body.size(), f) == body.size();
    if (f != nullptr) ok = std::fclose(f) == 0 && ok;
    if (ok) {
      std::fprintf(stderr, "obs: wrote %s to %s\n", what, path.c_str());
    } else {
      std::fprintf(stderr, "obs: cannot write %s file %s\n", what,
                   path.c_str());
      all_ok = false;
    }
  };
  ReportNode root = Snapshot();
  write(json_path, ToJson(root, /*include_timing=*/true), "profile");
  write(collapsed_path, ToCollapsed(root), "collapsed stacks");
  write(roofline_path,
        RooflineReport(root, GetEnvDouble("CLFD_PEAK_GFLOPS", 0.0)),
        "roofline report");
  return all_ok;
}

namespace {

void WriteExitReports() {
  WriteReports(GetEnvString("CLFD_PROF_OUT", ""),
               GetEnvString("CLFD_PROF_COLLAPSED", ""),
               GetEnvString("CLFD_PROF_ROOFLINE", ""));
}

}  // namespace

// ---- Rendering (operate on ReportNode values) ----

namespace {

void NodeToJson(const ReportNode& node, bool include_timing, int indent,
                std::ostringstream* os) {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  *os << pad << "{\"name\":";
  AppendJsonString(os, node.name);
  if (include_timing) {
    *os << ",\"ns\":" << node.ns;
    if (node.flops > 0 && node.ns > 0) {
      *os << ",\"gflops\":";
      AppendJsonNumber(os,
                       static_cast<double>(node.flops) /
                           static_cast<double>(node.ns),
                       /*digits=*/4);
    }
  }
  *os << ",\"count\":" << node.count << ",\"flops\":" << node.flops
      << ",\"bytes\":" << node.bytes;
  if (node.flops > 0 && node.bytes > 0) {
    *os << ",\"ai\":";
    AppendJsonNumber(os,
                     static_cast<double>(node.flops) /
                         static_cast<double>(node.bytes),
                     /*digits=*/4);
  }
  if (!node.children.empty()) {
    *os << ",\"children\":[\n";
    for (size_t i = 0; i < node.children.size(); ++i) {
      NodeToJson(node.children[i], include_timing, indent + 1, os);
      if (i + 1 < node.children.size()) *os << ",";
      *os << "\n";
    }
    *os << pad << "]";
  }
  *os << "}";
}

void CollapseNode(const ReportNode& node, const std::string& prefix,
                  std::ostringstream* os) {
  std::string path =
      prefix.empty() ? node.name : prefix + ";" + node.name;
  int64_t child_ns = 0;
  for (const ReportNode& c : node.children) child_ns += c.ns;
  int64_t self_us = (node.ns - child_ns) / 1000;
  if (self_us > 0) *os << path << " " << self_us << "\n";
  for (const ReportNode& c : node.children) CollapseNode(c, path, os);
}

struct KernelAgg {
  int64_t ns = 0;
  int64_t count = 0;
  int64_t flops = 0;
  int64_t bytes = 0;
};

// Aggregates leaf-attributed work (nodes carrying flops) by name over the
// whole tree: the per-kernel rows of the roofline table.
void AggregateKernels(const ReportNode& node,
                      std::map<std::string, KernelAgg>* out) {
  if (node.flops > 0) {
    KernelAgg& agg = (*out)[node.name];
    agg.ns += node.ns;
    agg.count += node.count;
    agg.flops += node.flops;
    agg.bytes += node.bytes;
  }
  for (const ReportNode& c : node.children) AggregateKernels(c, out);
}

}  // namespace

std::string ToJson(const ReportNode& root, bool include_timing) {
  std::ostringstream os;
  os << "{\"version\":1,\"mode\":\""
     << (include_timing ? "timing" : "deterministic") << "\",";
  os << "\"tree\":\n";
  NodeToJson(root, include_timing, 1, &os);
  if (include_timing) {
    // Thread-pool utilization: the parallel.* instruments the pool
    // maintains (worker busy time, shard-skew histogram), read by name so
    // obs stays independent of src/parallel.
    os << ",\n\"thread_pool\":"
       << MetricsRegistry::Get().ToFlatJson("parallel.");
  }
  os << "\n}\n";
  return os.str();
}

std::string ToCollapsed(const ReportNode& root) {
  std::ostringstream os;
  for (const ReportNode& c : root.children) CollapseNode(c, "", &os);
  return os.str();
}

double AttributedFraction(const ReportNode& node) {
  if (node.ns <= 0) return 0.0;
  int64_t child_ns = 0;
  for (const ReportNode& c : node.children) child_ns += c.ns;
  double f = static_cast<double>(child_ns) / static_cast<double>(node.ns);
  // Merged trees can report children exceeding the parent when workers ran
  // in parallel with the submitting thread; full attribution caps at 1.
  return std::min(f, 1.0);
}

std::string RooflineReport(const ReportNode& root, double peak_gflops) {
  std::ostringstream os;
  int64_t wall_ns = 0;
  for (const ReportNode& c : root.children) wall_ns += c.ns;
  os << "== clfd roofline/attribution report ==\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "wall attributed to top-level scopes: %.3f s\n",
                static_cast<double>(wall_ns) / 1e9);
  os << buf;

  os << "\nphase tree (inclusive time, unattributed = node minus children):\n";
  // Three levels reach the phases under the run spans (train, clfd.train)
  // and the epochs under a phase; deeper levels belong to the
  // JSON/flamegraph forms.
  std::snprintf(buf, sizeof(buf), "  %-28s %10s %7s %12s\n", "scope",
                "time_ms", "%wall", "unattr_ms");
  os << buf;
  struct Row {
    std::string label;
    const ReportNode* node;
  };
  std::vector<Row> rows;
  auto add_rows = [&rows](const ReportNode& node, const std::string& indent,
                          int depth, auto& self) -> void {
    for (const ReportNode& c : node.children) {
      rows.push_back({indent + c.name, &c});
      if (depth > 1) self(c, indent + "  ", depth - 1, self);
    }
  };
  add_rows(root, "", 3, add_rows);
  for (const Row& row : rows) {
    int64_t child_ns = 0;
    for (const ReportNode& c : row.node->children) child_ns += c.ns;
    double unattr_ms =
        static_cast<double>(std::max<int64_t>(row.node->ns - child_ns, 0)) /
        1e6;
    std::snprintf(buf, sizeof(buf), "  %-28s %10.2f %6.1f%% %12.2f\n",
                  row.label.c_str(),
                  static_cast<double>(row.node->ns) / 1e6,
                  wall_ns > 0 ? 100.0 * static_cast<double>(row.node->ns) /
                                    static_cast<double>(wall_ns)
                              : 0.0,
                  unattr_ms);
    os << buf;
  }

  os << "\nkernel roofline (aggregated over all scopes):\n";
  std::snprintf(buf, sizeof(buf), "  %-24s %9s %10s %9s %9s %7s%s\n",
                "kernel", "calls", "time_ms", "GFLOP/s", "flop/B", "%wall",
                peak_gflops > 0.0 ? "   %peak" : "");
  os << buf;
  std::map<std::string, KernelAgg> kernels;
  AggregateKernels(root, &kernels);
  std::vector<std::pair<std::string, KernelAgg>> sorted(kernels.begin(),
                                                        kernels.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.ns != b.second.ns ? a.second.ns > b.second.ns
                                      : a.first < b.first;
  });
  for (const auto& [name, agg] : sorted) {
    double gflops = agg.ns > 0 ? static_cast<double>(agg.flops) /
                                     static_cast<double>(agg.ns)
                               : 0.0;
    double ai = agg.bytes > 0 ? static_cast<double>(agg.flops) /
                                    static_cast<double>(agg.bytes)
                              : 0.0;
    std::snprintf(buf, sizeof(buf), "  %-24s %9lld %10.2f %9.2f %9.2f %6.1f%%",
                  name.c_str(), static_cast<long long>(agg.count),
                  static_cast<double>(agg.ns) / 1e6, gflops, ai,
                  wall_ns > 0 ? 100.0 * static_cast<double>(agg.ns) /
                                    static_cast<double>(wall_ns)
                              : 0.0);
    os << buf;
    if (peak_gflops > 0.0) {
      std::snprintf(buf, sizeof(buf), " %6.1f%%", 100.0 * gflops / peak_gflops);
      os << buf;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace prof

PhaseCapture::PhaseCapture() : prev_(prof::tls_capture) {
  prof::tls_capture = this;
}

PhaseCapture::~PhaseCapture() { prof::tls_capture = prev_; }

int64_t PhaseCapture::Micros(const char* name) const {
  auto it = ns_.find(name);
  return it == ns_.end() ? 0 : it->second / 1000;
}

}  // namespace obs
}  // namespace clfd
