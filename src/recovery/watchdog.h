#pragma once

#include <stdexcept>
#include <string>

namespace clfd {
namespace recovery {

// Divergence watchdog (DESIGN.md §10).
//
// Wraps the four CLFD training phases with a bounded recovery policy.
// Failure signals — check::InvariantError from the runtime invariant
// layer, std::bad_alloc from the arena/heap path, non-finite batch or
// epoch loss, an epoch loss spiking far above the phase's baseline, an
// epoch whose every batch was skipped — are converted into a rollback to
// the last good checkpoint and a retry:
//
//   attempt 1: run normally
//   attempt 2: resume from the last snapshot, skip offending batches
//   attempt 3: resume, skip offending batches, halve the learning rate
//   then:      abort cleanly with a structured WatchdogReport
//
// The ladder is RunWithRecovery (recovery/run_checkpointer.h); each
// attempt's RunCheckpointer applies its rung to every batch and epoch.
// Every rollback / skipped batch / retry / abort is counted in the obs
// metrics registry (recovery.watchdog.*) and visible in the Chrome trace.
//
// A non-finite epoch loss fails every run, watchdog or not (PhaseLoop's
// epoch end); the watchdog adds the retry, the spike rule and the
// all-skipped rule. Without it a failure propagates unretried, and
// clfd_cli and the table benches exit 4 on it, as on an abort.

struct WatchdogOptions {
  bool enabled = false;
  // Epoch mean loss above spike_factor * (phase's first finite epoch loss)
  // is treated as divergence.
  float spike_factor = 50.0f;
  // Total training attempts per run before aborting (>= 1).
  int max_attempts = 3;
};

// Raised when training is detected to have diverged (NaN loss or spike).
class DivergenceError : public std::runtime_error {
 public:
  explicit DivergenceError(const std::string& what)
      : std::runtime_error(what) {}
};

// What the watchdog did for one run; carried by WatchdogAbort and useful
// for logging even on success.
struct WatchdogReport {
  int attempts = 0;
  int batches_skipped = 0;
  int rollbacks = 0;  // failed attempts that another attempt followed
  bool aborted = false;
  std::string last_error;
  std::string Summary() const;
};

// Terminal failure after the retry budget is exhausted. Clean abort: the
// process state is intact, checkpoints are on disk, and the report says
// what was tried.
class WatchdogAbort : public std::runtime_error {
 public:
  explicit WatchdogAbort(WatchdogReport report);
  const WatchdogReport& report() const { return report_; }

 private:
  WatchdogReport report_;
};

}  // namespace recovery
}  // namespace clfd
