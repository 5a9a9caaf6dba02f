#include "parallel/thread_pool.h"

#include <algorithm>
#include <memory>

#include "common/env.h"
#include "obs/metrics.h"
#include "obs/prof.h"

namespace clfd {
namespace parallel {

namespace {

// > 0 while the current thread is executing a ParallelFor chunk; nested
// calls see it and run inline instead of re-entering the pool.
thread_local int tls_parallel_depth = 0;

struct DepthGuard {
  DepthGuard() { ++tls_parallel_depth; }
  ~DepthGuard() { --tls_parallel_depth; }
};

}  // namespace

// One ParallelFor invocation. Chunks are claimed with an atomic counter;
// completion is tracked with a second counter so the submitting thread can
// wait for chunks that other workers are still running.
struct ThreadPool::Job {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t grain = 1;
  int64_t num_chunks = 0;
  const std::function<void(int64_t, int64_t)>* body = nullptr;

  // Scope path captured on the submitting thread: workers re-root their
  // profiler scopes under it, and mark their trace lanes with it, so
  // worker-side work nests beneath the issuing phase (empty when the
  // profiler is off, making the worker context a no-op).
  std::vector<const char*> path;
  // Per-chunk wall time for shard-imbalance stats. Slots are disjoint and
  // each is written before that chunk's done_chunks increment (acq_rel), so
  // the submitting thread reads them race-free after the join. Empty when
  // the profiler is disabled.
  std::vector<int64_t> chunk_ns;

  std::atomic<int64_t> next_chunk{0};
  std::atomic<int64_t> done_chunks{0};
  std::atomic<bool> failed{false};

  // Context-teardown handshake. A worker that picks the job up but claims
  // zero chunks still mutates its profiler tree (ScopedContext re-root) and
  // trace buffer, which the done_chunks join alone does not order before
  // the submitter. `entered` counts pickups (guarded by the pool's
  // wake_mutex_), `exited` counts workers whose obs contexts have been
  // destroyed (guarded by done_mutex); the submitter waits for
  // exited == entered after the chunk join, so every worker-side obs write
  // happens-before ParallelFor returns (and before any Snapshot/Reset).
  int64_t entered = 0;
  int64_t exited = 0;

  std::mutex error_mutex;
  std::exception_ptr error;

  std::mutex done_mutex;
  std::condition_variable done_cv;
};

ThreadPool::ThreadPool(int threads) : size_(std::max(1, threads)) {
  workers_.reserve(size_ - 1);
  for (int i = 0; i < size_ - 1; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::InParallelRegion() { return tls_parallel_depth > 0; }

void ThreadPool::RunChunks(Job* job) {
  DepthGuard depth;
  const bool timed = !job->chunk_ns.empty();
  for (;;) {
    int64_t chunk = job->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job->num_chunks) return;
    if (!job->failed.load(std::memory_order_relaxed)) {
      int64_t lo = job->begin + chunk * job->grain;
      int64_t hi = std::min(lo + job->grain, job->end);
      int64_t t0 = timed ? obs::prof::NowNs() : 0;
      try {
        // Chunk boundaries are a pure function of (begin, end, grain), so
        // the merged count of this scope is identical at every pool width.
        obs::prof::Scope chunk_scope("parallel.chunk");
        (*job->body)(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job->error_mutex);
        if (!job->failed.load(std::memory_order_relaxed)) {
          job->error = std::current_exception();
          job->failed.store(true, std::memory_order_relaxed);
        }
      }
      if (timed) {
        job->chunk_ns[static_cast<size_t>(chunk)] = obs::prof::NowNs() - t0;
      }
    }
    // acq_rel: makes this chunk's writes visible to whoever observes the
    // final count and wakes the submitter after the last chunk.
    if (job->done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job->num_chunks) {
      std::lock_guard<std::mutex> lock(job->done_mutex);
      job->done_cv.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop(int worker_index) {
  // Per-worker busy time. The name is dynamic, so the counter is resolved
  // once per worker directly from the registry instead of through the
  // static-caching CLFD_METRIC_* macros (which cache per call site).
  obs::Counter* busy = obs::MetricsRegistry::Get().GetCounter(
      "parallel.worker." + std::to_string(worker_index) + ".busy_micros");
  uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(wake_mutex_);
      wake_cv_.wait(lock, [&] {
        return stop_ || job_generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = job_generation_;
      job = current_job_;
      if (job) ++job->entered;
    }
    if (job) {
      {
        // Re-root this worker's profiler scopes (and, while a trace is
        // recording, open its lane's context event) under the path captured
        // at the submit site, so worker-side work nests beneath the issuing
        // phase rather than dangling at top level.
        obs::prof::ScopedContext context(job->path);
        int64_t t0 = obs::prof::NowNs();
        RunChunks(job.get());
        busy->Add((obs::prof::NowNs() - t0) / 1000);
      }
      // Publish context teardown: the submitter's exited == entered wait
      // orders the re-root/teardown writes above even when this worker
      // claimed no chunks.
      {
        std::lock_guard<std::mutex> lock(job->done_mutex);
        ++job->exited;
      }
      job->done_cv.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int64_t, int64_t)>& body) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  const int64_t range = end - begin;
  const int64_t num_chunks = (range + grain - 1) / grain;

  // Inline path: nested call, single-lane pool, or a single chunk. Chunk
  // boundaries and order are identical to the pooled path, so the numeric
  // result cannot depend on which path ran — and the per-chunk profiler
  // scope matches RunChunks, keeping merged scope counts width-invariant.
  if (InParallelRegion() || workers_.empty() || num_chunks == 1) {
    DepthGuard depth;
    for (int64_t chunk = 0; chunk < num_chunks; ++chunk) {
      int64_t lo = begin + chunk * grain;
      int64_t hi = std::min(lo + grain, end);
      obs::prof::Scope chunk_scope("parallel.chunk");
      body(lo, hi);
    }
    return;
  }

  std::lock_guard<std::mutex> run_lock(run_mutex_);
  auto job = std::make_shared<Job>();
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  job->num_chunks = num_chunks;
  job->body = &body;
  if (obs::prof::Enabled()) {
    job->path = obs::prof::CurrentPath();
    job->chunk_ns.assign(static_cast<size_t>(num_chunks), 0);
  }
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    current_job_ = job;
    ++job_generation_;
  }
  wake_cv_.notify_all();

  RunChunks(job.get());

  {
    std::unique_lock<std::mutex> lock(job->done_mutex);
    job->done_cv.wait(lock, [&] {
      return job->done_chunks.load(std::memory_order_acquire) == num_chunks;
    });
  }
  int64_t entered;
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    current_job_ = nullptr;
    ++job_generation_;
    // No worker can pick the job up past this point, so entered is final.
    entered = job->entered;
  }
  {
    // Wait out zero-chunk participants: workers that observed the job but
    // claimed nothing still re-rooted their obs contexts; their teardown
    // must be ordered before we return (quiescence contract in prof.h).
    std::unique_lock<std::mutex> lock(job->done_mutex);
    job->done_cv.wait(lock, [&] { return job->exited == entered; });
  }
  if (job->failed.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(job->error_mutex);
    std::rethrow_exception(job->error);
  }

  // Shard-imbalance stats (profiler-gated): slowest shard relative to the
  // mean, the number every static-partitioning tuning question starts with.
  // Safe to read chunk_ns here — the join above ordered every chunk's write
  // before this point.
  if (!job->chunk_ns.empty()) {
    int64_t max_ns = 0;
    int64_t sum_ns = 0;
    for (int64_t ns : job->chunk_ns) {
      max_ns = std::max(max_ns, ns);
      sum_ns += ns;
    }
    if (sum_ns > 0) {
      double mean_ns =
          static_cast<double>(sum_ns) / static_cast<double>(num_chunks);
      CLFD_METRIC_COUNT("parallel.jobs", 1);
      CLFD_METRIC_COUNT("parallel.chunks", num_chunks);
      CLFD_METRIC_COUNT("parallel.slowest_shard_micros", max_ns / 1000);
      CLFD_METRIC_HIST_RECORD(
          "parallel.shard_skew",
          obs::Histogram::LinearBounds(1.0, 0.25, 16),
          static_cast<double>(max_ns) / mean_ns);
    }
  }
}

namespace {

int HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

// A malformed CLFD_THREADS, or one below 1, throws std::invalid_argument
// like every other numeric knob.
int DefaultThreads() {
  return std::min(GetEnvPositiveInt("CLFD_THREADS", HardwareThreads()), 1024);
}

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

ThreadPool& GlobalPool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(DefaultThreads());
  return *g_pool;
}

void SetGlobalThreads(int n) {
  int target = n < 1 ? DefaultThreads() : std::min(n, 1024);
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_pool && g_pool->size() == target) return;
  g_pool.reset();  // joins the old workers before the new pool spawns
  g_pool = std::make_unique<ThreadPool>(target);
}

int GlobalThreadCount() { return GlobalPool().size(); }

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body) {
  GlobalPool().ParallelFor(begin, end, grain, body);
}

}  // namespace parallel
}  // namespace clfd
