#pragma once

// Chrome trace recorder (chrome://tracing or https://ui.perfetto.dev). The
// events come from spans — obs::prof::Scope objects opened with the kSpan
// tag (obs/prof.h) — and from the thread pool's worker context events:
//
//   void Train(...) {
//     CLFD_PROF_SPAN("detector");           // whole-block span
//     for (int epoch = ...) {
//       obs::prof::Scope span(obs::prof::kSpan, "supcon.epoch");
//       ...
//       span.Arg("epoch", epoch);
//     }
//   }
//
// Spans record Chrome trace-event "complete" (ph:"X") events; nesting is
// inferred by the viewer from timestamp containment per thread. Recording
// is off until TraceRecorder::Get().Start(path) is called — or
// automatically when the CLFD_TRACE=<path> environment variable is set.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace clfd {
namespace obs {

// Microseconds since process start on the obs clock (prof::NowNs); the
// `ts` axis of every trace event (matches log.h's UptimeSeconds()).
int64_t UptimeMicros();

class TraceRecorder {
 public:
  // Auto-starts from CLFD_TRACE on first access.
  static TraceRecorder& Get() {
    static TraceRecorder* recorder = Create();
    return *recorder;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Begins recording; events are buffered in memory and written to `path`
  // by Stop() or at process exit.
  void Start(const std::string& path);
  // Writes the buffered events as Chrome trace-event JSON and disables
  // recording. Returns false when the file cannot be written. Safe to call
  // when not recording (no-op, returns true).
  bool Stop();

  // Number of buffered events (test hook).
  size_t EventCount() const;

  // Records one complete event on the calling thread's lane, from two obs
  // clock readings (prof::NowNs). `args_json` is either empty or a JSON
  // object body without braces, e.g. "\"epoch\":3".
  void RecordComplete(const char* name, int64_t start_ns, int64_t end_ns,
                      const std::string& args_json);

 private:
  TraceRecorder() = default;
  static TraceRecorder* Create();

  struct Event {
    std::string name;
    int64_t ts_us;
    int64_t dur_us;
    uint32_t tid;
    std::string args_json;
  };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::string path_;
  std::vector<Event> events_;
};

}  // namespace obs
}  // namespace clfd
