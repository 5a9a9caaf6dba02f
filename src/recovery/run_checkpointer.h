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
#include "recovery/checkpoint.h"
#include "recovery/phase.h"
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
  // When false, existing checkpoints are ignored (fresh run that will
  // overwrite them).
  bool resume = true;
  WatchdogOptions watchdog;

  bool enabled() const { return !dir.empty(); }
};

// Orchestrates exact-resume for one training run (one model, one seed).
//
// Usage (ClfdModel::TrainWithRecovery):
//   RunCheckpointer rc(options, "seed_42");
//   <RegisterParams / RegisterRng / RegisterBlob for all mutable state>
//   if (rc.LoadSnapshot()) rc.RestoreRegistered();
//   <for each phase: run its loop with rc.HooksFor(phase, ...)>
//   rc.MarkTrainingComplete();
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
  RunCheckpointer(const RecoveryOptions& options, const std::string& stem);
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

  // Hooks for one phase loop. `phase_name` must be a string literal (it
  // outlives the hooks). Encodes the resume decision in start_epoch and
  // wires snapshotting, the crash probe, and the watchdog sentinel into
  // on_epoch_end.
  PhaseHooks HooksFor(int phase, const char* phase_name, int total_epochs);

  // Final snapshot marking all phases complete, so a crash between the end
  // of training and the recording of results resumes straight to
  // evaluation with every phase skipped.
  void MarkTrainingComplete();

  // --- watchdog wiring (per attempt) ---
  void SetBatchGuard(BatchGuard* guard) { guard_ = guard; }
  void SetEpochSentinel(EpochSentinel sentinel) {
    sentinel_ = std::move(sentinel);
  }
  // Learning-rate multiplier applied at each phase begin (retry policy).
  void SetLrScale(float scale) { lr_scale_ = scale; }

  // True when any hook surface is live (checkpointing or watchdog);
  // callers fall back to the plain Train path when false.
  bool active() const {
    return options_.enabled() || guard_ != nullptr ||
           static_cast<bool>(sentinel_);
  }

  bool enabled() const { return options_.enabled(); }
  bool has_snapshot() const { return has_snapshot_; }
  int loaded_phase() const { return loaded_phase_; }
  int loaded_next_epoch() const { return loaded_next_epoch_; }
  const std::string& path() const { return path_; }

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
  bool stop_committer_ = false;

  RecoveryOptions options_;
  std::string path_;

  std::vector<ParamsEntry> params_;
  std::vector<RngEntry> rngs_;
  std::vector<BlobEntry> blobs_;

  BatchGuard* guard_ = nullptr;
  EpochSentinel sentinel_;
  float lr_scale_ = 1.0f;

  std::optional<Checkpoint> loaded_;
  bool has_snapshot_ = false;
  int loaded_phase_ = 0;
  int loaded_next_epoch_ = 0;
  bool loaded_complete_ = false;
};

}  // namespace recovery
}  // namespace clfd
