#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "autograd/var.h"
#include "common/rng.h"
#include "nn/optimizer.h"
#include "recovery/checkpoint.h"
#include "recovery/watchdog.h"

namespace clfd {
namespace recovery {

// Phase indices of the CLFD pipeline, in execution order. A snapshot's
// meta section records which phase was in progress; on resume, phases
// before it are skipped (their effect is in the restored state) and the
// in-progress phase continues from its recorded epoch.
inline constexpr int kPhasePretrain = 0;    // corrector SimCLR
inline constexpr int kPhaseCorrector = 1;   // corrector classifier
inline constexpr int kPhaseDetector = 2;    // detector SupCon
inline constexpr int kPhaseClassifier = 3;  // detector FCNN
inline constexpr int kPhaseDone = 4;        // training complete

struct RecoveryOptions {
  // Checkpoint directory; empty disables checkpointing (the watchdog can
  // still run, retrying from scratch instead of from a snapshot).
  std::string dir;
  // Snapshot every N completed epochs (and always at a phase boundary).
  int interval_epochs = 5;
  // When false, checkpoints left by an earlier process are ignored (fresh
  // run that will overwrite them). A watchdog retry still resumes from the
  // snapshots this run wrote.
  bool resume = true;
  WatchdogOptions watchdog;

  bool enabled() const { return !dir.empty(); }
};

// Orchestrates exact-resume and the watchdog for one attempt of one
// training run (one model, one seed).
//
// Usage (ClfdModel::TrainWithRecovery):
//   <RegisterParams / RegisterRng / RegisterBlob for all mutable state>
//   if (rc->LoadSnapshot()) rc->RestoreRegistered();
//   <for each phase: run its epochs through a PhaseLoop over rc>
//   rc->MarkTrainingComplete();
// RunWithRecovery constructs one RunCheckpointer per attempt.
//
// Every snapshot captures the complete registered state — all parameter
// tensors, every Rng stream, the corrections blob — plus the in-progress
// phase's optimizer moments/step count and loop-local state. Because the
// execution engine is bitwise deterministic (PR 2), restoring that state
// and replaying the remaining epochs reproduces the uninterrupted run
// exactly; the Recovery.CrashResume tests assert bitwise-identical
// RunMetrics at thread widths 1/2/4.
//
// Registrations hold pointers/closures over caller state and must not be
// used after the training call that owns them returns.
class RunCheckpointer {
 public:
  // `attempt` (1-based) is the watchdog rung this checkpointer applies;
  // skipped batches are added to `report` when it is non-null.
  RunCheckpointer(const RecoveryOptions& options, const std::string& stem,
                  int attempt = 1, WatchdogReport* report = nullptr);
  // Drains pending snapshot commits (see Snapshot) before returning, so
  // after destruction the newest enqueued snapshot is durable on disk.
  ~RunCheckpointer();
  RunCheckpointer(const RunCheckpointer&) = delete;
  RunCheckpointer& operator=(const RunCheckpointer&) = delete;

  // --- registration (before LoadSnapshot) ---
  void RegisterParams(const std::string& name, std::vector<ag::Var> params);
  void RegisterRng(const std::string& name, Rng* rng);
  // Opaque state owned by the caller (e.g. the corrections vector): encode
  // returns a payload, decode restores caller state from one.
  void RegisterBlob(const std::string& name,
                    std::function<std::string()> encode,
                    std::function<void(const std::string&)> decode);

  // Loads the newest valid snapshot (primary, then .prev fallback).
  // Returns true when a snapshot is available to resume from.
  bool LoadSnapshot();

  // Restores all registered state from the loaded snapshot. Validates
  // everything (section presence, counts, shapes, Rng parse) before
  // committing any of it; throws CheckpointError on any defect.
  void RestoreRegistered();

  // --- calls from a phase loop (PhaseLoop makes them) ---
  // Once, after the loop built its optimizer and before its first epoch,
  // for a phase of `total_epochs` epochs. Returns the first epoch the loop
  // runs: epochs before it were completed by an earlier process or attempt
  // and are restored, not replayed; `total_epochs` when the whole phase is
  // done. For the phase a snapshot was taken in, it restores the Adam
  // moments and step count and sets `*local_state` to the loop-local state
  // the snapshot carries (left empty otherwise). From attempt 3 on it halves
  // the learning rate.
  int BeginPhase(int phase, int total_epochs, nn::Adam* optimizer,
                 std::string* local_state);
  // One optimizer step: `step` runs forward, backward and the update and
  // returns the batch loss. Under the watchdog a non-finite loss is a
  // DivergenceError, and from attempt 2 on a recoverable failure skips the
  // batch: its gradients are zeroed and false is returned, loss untouched.
  bool RunBatch(nn::Adam* optimizer, const std::function<float()>& step,
                float* loss);
  // After every executed epoch, with the epoch's mean loss and the loop's
  // freshly encoded local state: the divergence sentinel (a non-finite mean
  // in every run; under the watchdog also an all-skipped epoch or a spike),
  // the run.epoch crash probe, then the interval snapshot. Throws
  // DivergenceError or SimulatedCrash; the loop must not catch.
  void EndEpoch(int phase, int epoch, float mean_loss, nn::Adam* optimizer,
                const std::string& local_state);

  // Final snapshot marking all phases complete, so a crash between the end
  // of training and the recording of results resumes straight to
  // evaluation with every phase skipped.
  void MarkTrainingComplete();

  // Drains pending commits; true when one of them reached the disk.
  bool WroteSnapshot();

  bool has_snapshot() const { return has_snapshot_; }
  int loaded_phase() const { return loaded_phase_; }

 private:
  struct ParamsEntry {
    std::string name;
    std::vector<ag::Var> params;
  };
  struct RngEntry {
    std::string name;
    Rng* rng;
  };
  struct BlobEntry {
    std::string name;
    std::function<std::string()> encode;
    std::function<void(const std::string&)> decode;
  };

  void CheckEpochLoss(int phase, int epoch, float mean_loss);
  void Snapshot(int phase, int next_epoch, bool complete,
                nn::Adam* optimizer, const std::string& local);
  void RestoreOptimizer(nn::Adam* optimizer) const;

  // Snapshot commits run on a dedicated committer thread: the training
  // loop pays only the in-memory encode (~0.1 ms) while the fsync-heavy
  // WriteFileAtomic happens concurrently. Commits are serialized in order
  // and coalesced (only the newest pending snapshot is written), the
  // atomic-commit protocol on disk is unchanged, and the destructor drains
  // the queue — so at every point a resume can observe, the file is a
  // complete, valid snapshot. The committer never touches model state, so
  // bitwise determinism of training is unaffected.
  void EnqueueCommit(std::string bytes);
  void DrainCommits();
  void CommitterLoop();

  // I/O-only thread, not compute: exempt from the ParallelFor-only rule.
  std::thread committer_;  // clfd-analyze: allow(concurrency-raw-thread)
  std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  std::optional<std::string> pending_bytes_;
  bool committing_ = false;
  bool committed_ = false;
  bool stop_committer_ = false;

  RecoveryOptions options_;
  std::string path_;

  std::vector<ParamsEntry> params_;
  std::vector<RngEntry> rngs_;
  std::vector<BlobEntry> blobs_;

  // Watchdog state of this attempt.
  int attempt_;
  WatchdogReport* report_;
  std::optional<float> baselines_[kPhaseDone];  // first epoch loss per phase
  int epoch_batches_ = 0;  // batches RunBatch ran in the current epoch
  int epoch_skipped_ = 0;  // ... and of those, skipped

  int phase_epochs_[kPhaseDone] = {};  // epochs per phase, from BeginPhase
  std::optional<Checkpoint> loaded_;
  bool has_snapshot_ = false;
  int loaded_phase_ = 0;
  int loaded_next_epoch_ = 0;
  bool loaded_complete_ = false;
};

// The epoch driver of the four CLFD training phases (Algorithm 1: epochs
// of mini-batch Adam steps, each epoch's mean loss tracked). SimclrPretrain,
// FraudDetector's SupCon stage and TrainClassifierOnFeatures run their
// epochs through it. Each epoch runs inside a `span` profiler span; at its
// end the mean batch loss goes to the span's args, the "<scope>.loss"
// series and a DEBUG log line, then to the divergence sentinel, so a
// non-finite mean throws DivergenceError in every run. With a checkpointer
// the loop starts where a snapshot left off, each step goes through
// RunCheckpointer::RunBatch and each epoch through EndEpoch; with a null
// one it runs every epoch from 0 and each step is a direct call.
class PhaseLoop {
 public:
  // `span` and `scope` must be string literals (stored, not copied).
  PhaseLoop(RunCheckpointer* rc, int phase, int epochs, nn::Adam* optimizer,
            const char* span, const char* scope);
  PhaseLoop(const PhaseLoop&) = delete;
  PhaseLoop& operator=(const PhaseLoop&) = delete;

  // The loop-local state `save_state` encoded into the snapshot of a phase
  // resumed mid-way; empty when the phase starts fresh.
  const std::string& local_state() const { return local_state_; }

  // Runs the phase's remaining epochs. `epoch_body` runs one epoch's
  // batches, each through Batch. `save_state` (optional) encodes the
  // loop-local state a snapshot carries beyond params, optimizer and Rng
  // streams; it is called only with a checkpointer.
  void Run(const std::function<void()>& epoch_body,
           const std::function<std::string()>& save_state = nullptr);

  // One optimizer step: `step` runs forward, backward and the update and
  // returns the batch loss, which joins the epoch's mean unless the
  // watchdog skipped the batch.
  template <typename Step>
  void Batch(Step&& step) {
    float loss = 0.0f;
    if (rc_ == nullptr) {
      loss = step();
    } else if (!rc_->RunBatch(optimizer_, step, &loss)) {
      return;
    }
    loss_sum_ += loss;
    ++batches_;
  }

 private:
  RunCheckpointer* rc_;
  int phase_;
  int epochs_;
  nn::Adam* optimizer_;
  const char* span_;
  const char* scope_;
  int start_epoch_ = 0;
  std::string local_state_;
  double loss_sum_ = 0.0;  // of the current epoch's batches that ran
  int batches_ = 0;
};

// The one recoverable-vs-fatal catch list. Runs `fn` and returns true when
// it completes. When it throws DivergenceError, check::InvariantError or
// std::bad_alloc and `recover` is set, stores the message in `*error`
// (when non-null) and returns false; without `recover` the failure
// propagates. Everything else always propagates: SimulatedCrash,
// CheckpointError and WatchdogAbort derive from none of the three. Besides
// the watchdog, clfd_cli and the bench harness use it to report such a
// failure that no attempt retried.
bool RunRecoverable(bool recover, std::string* error,
                    const std::function<void()>& fn);

// Runs `body` under the retry ladder of the divergence watchdog (see
// recovery/watchdog.h), one fresh RunCheckpointer per attempt. A
// recoverable failure — DivergenceError, check::InvariantError,
// std::bad_alloc — rolls the run back to its last good snapshot (the next
// attempt resumes from disk) and retries; an exhausted budget throws
// WatchdogAbort. Without the watchdog the one attempt's failure
// propagates, and without checkpointing either `body` gets a null
// checkpointer. SimulatedCrash and CheckpointError always propagate: a
// crash is process-fatal by definition, and a hostile checkpoint must
// never be silently retried over.
void RunWithRecovery(const RecoveryOptions& options, const std::string& stem,
                     const std::function<void(RunCheckpointer* rc)>& body);

}  // namespace recovery
}  // namespace clfd
