#include "obs/trace.h"

#include <cstdio>
#include <fstream>

#include "common/env.h"
#include "obs/json_writer.h"
#include "obs/prof.h"

namespace clfd {
namespace obs {

namespace {

// Small dense ids (0, 1, 2, ...) render better in the trace viewer than
// raw pthread handles.
uint32_t CurrentThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

int64_t UptimeMicros() { return prof::NowNs() / 1000; }

TraceRecorder* TraceRecorder::Create() {
  auto* r = new TraceRecorder();
  std::string path = GetEnvString("CLFD_TRACE", "");
  if (!path.empty()) {
    r->Start(path);
    // Processes that never call Stop() (benches, one-shot tools) still get
    // their trace written.
    std::atexit([] { TraceRecorder::Get().Stop(); });
  }
  return r;
}

void TraceRecorder::Start(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  path_ = path;
  events_.clear();
  enabled_.store(true, std::memory_order_relaxed);
}

bool TraceRecorder::Stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) return true;
  enabled_.store(false, std::memory_order_relaxed);

  std::ofstream out(path_, std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "obs: cannot write trace file %s\n", path_.c_str());
    return false;
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events_) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":";
    AppendJsonString(&out, e.name);
    out << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
        << ",\"ts\":" << e.ts_us << ",\"dur\":" << e.dur_us;
    if (!e.args_json.empty()) out << ",\"args\":{" << e.args_json << "}";
    out << "}";
  }
  out << "\n]}\n";
  size_t count = events_.size();
  events_.clear();
  bool ok = out.good();
  out.close();
  if (ok) {
    std::fprintf(stderr,
                 "obs: wrote %zu trace events to %s (open in "
                 "chrome://tracing)\n",
                 count, path_.c_str());
  }
  return ok;
}

size_t TraceRecorder::EventCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void TraceRecorder::RecordComplete(const char* name, int64_t start_ns,
                                   int64_t end_ns,
                                   const std::string& args_json) {
  uint32_t tid = CurrentThreadId();
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  // Both ends rounded down to whole microseconds, so an event nested in
  // another by the clock stays nested in the file.
  const int64_t ts_us = start_ns / 1000;
  events_.push_back(Event{name, ts_us, end_ns / 1000 - ts_us, tid, args_json});
}

}  // namespace obs
}  // namespace clfd
