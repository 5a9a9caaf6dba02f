#pragma once

// Deterministic fork-join parallelism for the CLFD library.
//
// The design goal is that every result computed through this module is a
// pure function of the inputs — never of the thread count or of scheduling.
// ParallelFor therefore uses *static* partitioning: the half-open range
// [begin, end) is cut into ceil((end-begin)/grain) fixed chunks whose
// boundaries depend only on (begin, end, grain). Threads race to *claim*
// chunks, but which thread runs a chunk can only matter if the body lets it
// matter; callers keep results deterministic by writing to disjoint,
// index-addressed output slots (and by reducing those slots in fixed order,
// see reduce.h).
//
//   parallel::ParallelFor(0, n, 16, [&](int64_t lo, int64_t hi) {
//     for (int64_t i = lo; i < hi; ++i) out[i] = f(i);
//   });
//
// The global pool is created lazily on first use and sized from the
// CLFD_THREADS environment variable (clfd_cli exposes it as --threads),
// defaulting to std::thread::hardware_concurrency(). Pool size 1 still
// funnels every call through the same chunking code, so results are
// identical at any thread count by construction.
//
// Nested calls are safe: a ParallelFor issued from inside a running chunk
// (from a worker or from the caller thread, which participates) executes
// inline in ascending chunk order instead of re-entering the pool. This
// both avoids self-deadlock on the pool's run lock and keeps the inner
// loop's work on the thread that already owns the data.
//
// Exceptions thrown by the body are captured (first one wins), remaining
// unstarted chunks are skipped, and the exception is rethrown on the
// calling thread once all in-flight chunks have drained.
//
// Observability context from src/obs — the profiler scope path of the
// submitting thread — is captured per call and re-applied on each worker
// (one obs::prof::ScopedContext per worker per job), so worker-side scopes
// nest under the issuing phase instead of dangling at top level, and a
// recording trace shows one enclosing context event per worker lane. When
// the profiler is enabled, per-chunk wall times additionally feed the
// parallel.* metrics (per-worker busy time, slowest-shard skew).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace clfd {
namespace parallel {

class ThreadPool {
 public:
  // Spawns `threads - 1` workers; the caller always participates as the
  // remaining lane. threads < 1 is clamped to 1 (no workers, inline runs).
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Configured parallel width (worker count + the participating caller).
  int size() const { return size_; }

  // Runs body(lo, hi) over fixed chunks of [begin, end). Blocks until all
  // chunks finish; rethrows the first body exception.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& body);

  // True while the calling thread is executing inside a ParallelFor chunk
  // (used by kernels to skip redundant nested dispatch).
  static bool InParallelRegion();

 private:
  struct Job;

  void WorkerLoop(int worker_index);
  // Claims and runs chunks of `job` until none remain.
  static void RunChunks(Job* job);

  int size_;
  std::vector<std::thread> workers_;

  // Serializes top-level ParallelFor calls from distinct threads.
  std::mutex run_mutex_;

  // Worker wake-up: generation bumps when current_job_ changes.
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  uint64_t job_generation_ = 0;
  std::shared_ptr<Job> current_job_;
  bool stop_ = false;
};

// The process-wide pool, created on first use. Sized by SetGlobalThreads if
// called before first use, else by CLFD_THREADS, else hardware concurrency.
// A malformed CLFD_THREADS, or one below 1, throws std::invalid_argument.
ThreadPool& GlobalPool();

// Resizes the global pool (tears down the old one; must not be called from
// inside a ParallelFor body). n < 1 restores the environment-derived
// default. Thread count never affects numeric results, only speed.
void SetGlobalThreads(int n);

// Width of the global pool (workers + caller lane).
int GlobalThreadCount();

// Convenience dispatch through the global pool.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body);

}  // namespace parallel
}  // namespace clfd

