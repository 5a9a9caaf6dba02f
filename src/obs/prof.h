#pragma once

// Hierarchical always-compiled profiler and the one instrumentation scope of
// the observability layer.
//
//   void TrainPhase(...) {
//     CLFD_PROF_SPAN("pretrain");           // span: tree node + trace event
//     ...                                   //       + PhaseCapture entry
//   }
//   Matrix MatMul(...) {
//     CLFD_PROF_SCOPE("MatMul");            // tree-only scope
//     prof::AddFlops(2 * m * k * n);        // attributed to "MatMul"
//     prof::AddBytes(bytes_touched);
//     ...
//   }
//
// Each thread owns a scope tree (phase → op → kernel); a Scope pushes one
// node on construction and adds its elapsed time on destruction. Kernel
// call sites attach FLOP and byte counts to the innermost open scope, which
// is what the roofline report divides to get achieved GFLOP/s and
// arithmetic intensity per kernel.
//
// A scope opened with the kSpan tag is also a span: from the same two clock
// reads it writes a Chrome trace "complete" event when the TraceRecorder is
// recording (obs/trace.h), and adds its time to the calling thread's
// innermost PhaseCapture. Spans mark the few coarse regions worth a trace
// lane — runs, phases, epochs, checkpoint snapshots — and a span that no
// tree, trace or capture wants reads no clock. Tree-only scopes never touch
// the trace or the capture.
//
// Worker threads of parallel::ThreadPool re-root their trees under the
// scope path captured when ParallelFor was issued (ScopedContext), so a
// MatMul running on worker 3 inside the "pretrain" phase lands at
// pretrain/…/MatMul in worker 3's tree, not at its top level; while a trace
// is recording the same ScopedContext writes one enclosing event on the
// worker's lane.
//
// Snapshot() merges every thread's tree into one report tree. The merge is
// deterministic by construction: integer totals are summed (order-free) and
// children are emitted sorted by name, so two identical runs — at any
// thread width — produce byte-identical deterministic reports
// (ToJson(..., include_timing=false)). Timing fields are naturally
// run-dependent and only appear in the non-deterministic report forms.
//
// Profiling is ON by default (CLFD_PROF=0 disables; measured overhead on
// the corrector end-to-end bench is within the 2% budget, see
// BM_ProfCorrectorE2E). CLFD_PROF gates the tree, the captured pool path
// and the worker context; a disabled tree-only Scope costs one relaxed
// atomic load.
//
// At process exit, CLFD_PROF_OUT=<path> writes the timing JSON report,
// CLFD_PROF_COLLAPSED=<path> writes flamegraph-compatible collapsed stacks
// (feed to flamegraph.pl or speedscope), and CLFD_PROF_ROOFLINE=<path|->
// writes the per-kernel roofline table ("-" = stderr).

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace clfd {
namespace obs {

namespace prof {
class Scope;
}  // namespace prof

// Sums, by name, the durations of the spans that close on the *current
// thread* while this capture is the innermost one (captures nest; the
// inner one shadows the outer for its lifetime). eval/experiment.cc opens
// one capture per run and reads the four phase spans from it, which stays
// correct when several runs execute concurrently on different workers.
// Spans feed their capture whether or not the profiler is on.
class PhaseCapture {
 public:
  PhaseCapture();
  ~PhaseCapture();
  PhaseCapture(const PhaseCapture&) = delete;
  PhaseCapture& operator=(const PhaseCapture&) = delete;

  // Total microseconds recorded for spans named `name` so far (0 when
  // never seen).
  int64_t Micros(const char* name) const;

 private:
  friend class prof::Scope;

  std::map<std::string, int64_t> ns_;
  PhaseCapture* prev_;  // restored on destruction (nesting)
};

namespace prof {

// One merged tree node. Totals are inclusive (children included in ns);
// flops/bytes are attributed directly to the node by AddFlops/AddBytes at
// call sites, not rolled up.
struct ReportNode {
  std::string name;
  int64_t ns = 0;
  int64_t count = 0;
  int64_t flops = 0;
  int64_t bytes = 0;
  std::vector<ReportNode> children;  // sorted by name

  const ReportNode* Child(const std::string& child_name) const;
  // Sum of a field over this node and all descendants.
  int64_t TotalFlops() const;
  int64_t TotalBytes() const;
};

// Whether scopes record. Reads CLFD_PROF (default on) once, on first use;
// every later call is one relaxed load.
bool Enabled();
void SetEnabled(bool on);

// The obs clock: steady-clock nanoseconds since process start. Scopes,
// spans, trace events, log timestamps and the thread pool's chunk timers
// all read it, so their times line up.
int64_t NowNs();

// Attributes nominal work to the innermost open scope of the current
// thread (the profile root when no scope is open). One relaxed load + two
// plain adds when enabled.
void AddFlops(int64_t flops);
void AddBytes(int64_t bytes);

// Scope path of the current thread, outermost first; empty while the
// profiler is off. Captured by ParallelFor and re-applied on workers via
// ScopedContext. Entries are the string literals the scopes were opened
// with.
std::vector<const char*> CurrentPath();

// Merges all thread trees (summed totals, children sorted by name).
// Call while no scopes are running on other threads — in practice after a
// ParallelFor join, whose completion handshake orders worker writes before
// the snapshot read.
ReportNode Snapshot();

// Zeroes and prunes every thread tree. Same quiescence requirement as
// Snapshot; live threads must have exited all scopes (their cursor then
// points at their root, which survives the prune).
void Reset();

// Tag selecting the span form of Scope: Scope s(prof::kSpan, "train").
struct SpanTag {};
inline constexpr SpanTag kSpan{};

// RAII timing scope. `name` must be a string literal (node identity is the
// interned pointer, merged by content).
class Scope {
 public:
  // Tree-only scope: one node of the calling thread's tree while the
  // profiler is on, nothing otherwise.
  explicit Scope(const char* name);
  // Span: the tree node, plus a trace event while the TraceRecorder is
  // recording and a PhaseCapture entry while the thread has a capture open.
  // Reads the clock only when one of the three wants the span.
  Scope(SpanTag, const char* name);
  // Inline so that a scope nothing recorded costs no call to close.
  ~Scope() {
    if (span_ != nullptr) {
      CloseSpan();
    } else if (node_ != nullptr) {
      CloseNode();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  // Attaches a numeric argument to the span's trace event, shown in the
  // viewer's detail pane. Keeps the first kMaxArgs per span; a no-op on
  // tree-only scopes and on spans nothing recorded.
  void Arg(const char* key, double value);

 private:
  static constexpr int kMaxArgs = 2;

  void CloseNode();
  void CloseSpan();

  void* node_ = nullptr;  // opaque tree node; null when disabled at entry
  int64_t start_ns_ = 0;
  // Span name; null for tree-only scopes and for spans nothing wanted.
  const char* span_ = nullptr;
  // Trace args; entries past num_args_ are never read.
  int num_args_ = 0;
  const char* arg_keys_[kMaxArgs];
  double arg_values_[kMaxArgs];
};

// Re-roots the current thread's scopes under `path` for its lifetime: the
// pool applies the submitting thread's CurrentPath() on each worker, so
// worker-side scopes nest under the issuing phase deterministically. Adds
// no time or counts to the path nodes themselves. While a trace is
// recording it also writes one event covering its lifetime on the
// thread's lane, named after the path's innermost entry with the whole
// path as a "ctx" arg, so the worker's own spans nest under it in the
// viewer. An empty path (profiler off at submit) does nothing; `path` must
// outlive the context.
class ScopedContext {
 public:
  explicit ScopedContext(const std::vector<const char*>& path);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  const std::vector<const char*>* path_ = nullptr;  // set while re-rooted
  void* saved_ = nullptr;
  int64_t start_ns_ = -1;  // >= 0 while the context event is timed
};

// Test/bench helper: force the profiler on or off for a lexical scope.
class ScopedEnabled {
 public:
  explicit ScopedEnabled(bool on) : prev_(Enabled()) { SetEnabled(on); }
  ~ScopedEnabled() { SetEnabled(prev_); }
  ScopedEnabled(const ScopedEnabled&) = delete;
  ScopedEnabled& operator=(const ScopedEnabled&) = delete;

 private:
  bool prev_;
};

// ---- Report rendering (operate on a Snapshot) ----

// Timing JSON: full tree with ns, achieved GFLOP/s and arithmetic
// intensity per node, plus a "thread_pool" utilization section holding
// the "parallel.*" metrics instruments. include_timing=false emits the
// deterministic form: structure, counts, flops, bytes only — byte-identical
// across runs and thread widths for identical workloads.
std::string ToJson(const ReportNode& root, bool include_timing = true);

// Flamegraph collapsed-stack text: one "a;b;c <self_micros>" line per node
// with nonzero self time (inclusive ns minus children), deepest paths
// included. Pipe through flamegraph.pl or load into speedscope.
std::string ToCollapsed(const ReportNode& root);

// Human-readable roofline/attribution report: per-phase wall share with
// unattributed remainder, and per-kernel calls / time / GFLOP/s /
// arithmetic intensity aggregated by kernel name over the whole tree.
// `peak_gflops` > 0 adds a %-of-peak column (CLFD_PEAK_GFLOPS env at the
// exit-hook call site).
std::string RooflineReport(const ReportNode& root, double peak_gflops = 0.0);

// Fraction of root wall-time attributed to named top-level scopes'
// children at `depth` (1 = phases). Used by the ≥95% attribution test.
double AttributedFraction(const ReportNode& node);

// Writes the reports of one Snapshot(): ToJson with timing to `json_path`,
// ToCollapsed to `collapsed_path` and RooflineReport (peak from
// CLFD_PEAK_GFLOPS) to `roofline_path`. An empty path skips its report and
// "-" writes it to stderr. Each file written or not written is reported on
// stderr; returns false when any write failed. The exit hook calls it with
// the CLFD_PROF_* paths and clfd_cli with its --prof-* flags.
bool WriteReports(const std::string& json_path,
                  const std::string& collapsed_path,
                  const std::string& roofline_path);

}  // namespace prof
}  // namespace obs
}  // namespace clfd

#define CLFD_PROF_CONCAT_INNER_(a, b) a##b
#define CLFD_PROF_CONCAT_(a, b) CLFD_PROF_CONCAT_INNER_(a, b)
// Scoped profiler node covering the rest of the enclosing block.
#define CLFD_PROF_SCOPE(name)                                            \
  ::clfd::obs::prof::Scope CLFD_PROF_CONCAT_(clfd_prof_scope_, __LINE__)( \
      name)
// Span (tree node + trace event + PhaseCapture entry) covering the rest of
// the enclosing block.
#define CLFD_PROF_SPAN(name)                                             \
  ::clfd::obs::prof::Scope CLFD_PROF_CONCAT_(clfd_prof_span_, __LINE__)(  \
      ::clfd::obs::prof::kSpan, name)
