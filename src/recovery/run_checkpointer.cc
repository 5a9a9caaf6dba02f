#include "recovery/run_checkpointer.h"

#include <algorithm>
#include <cmath>
#include <new>
#include <utility>

#include "common/check.h"
#include "common/fault.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "recovery/fault_plan.h"

namespace clfd {
namespace recovery {

namespace {

const char* const kPhaseNames[kPhaseDone] = {"pretrain", "corrector",
                                             "detector", "classifier"};

std::string EpochName(int phase, int epoch) {
  return std::string(kPhaseNames[phase]) + " epoch " + std::to_string(epoch);
}

// The one non-finite check of an epoch's mean loss, made in every run:
// PhaseLoop makes it without a checkpointer and RunCheckpointer::EndEpoch
// with one, so a diverged run never reports a result, watchdog or not.
void RequireFiniteEpochLoss(int phase, int epoch, float mean_loss) {
  if (std::isfinite(mean_loss)) return;
  CLFD_METRIC_COUNT("recovery.watchdog.divergence_detected", 1);
  throw DivergenceError(EpochName(phase, epoch) + ": non-finite epoch loss");
}

}  // namespace

bool RunRecoverable(bool recover, std::string* error,
                    const std::function<void()>& fn) {
  try {
    fn();
    return true;
  } catch (const DivergenceError& e) {
    if (!recover) throw;
    if (error != nullptr) *error = e.what();
  } catch (const check::InvariantError& e) {
    if (!recover) throw;
    if (error != nullptr) *error = e.what();
  } catch (const std::bad_alloc& e) {
    if (!recover) throw;
    if (error != nullptr) *error = e.what();
  }
  return false;
}

void RunWithRecovery(const RecoveryOptions& options, const std::string& stem,
                     const std::function<void(RunCheckpointer* rc)>& body) {
  if (!options.enabled() && !options.watchdog.enabled) {
    body(nullptr);
    return;
  }
  const bool watchdog = options.watchdog.enabled;
  const int max_attempts =
      watchdog ? std::max(1, options.watchdog.max_attempts) : 1;
  RecoveryOptions attempt_options = options;
  WatchdogReport report;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    report.attempts = attempt;
    RunCheckpointer rc(attempt_options, stem, attempt, &report);
    if (RunRecoverable(watchdog, &report.last_error, [&] { body(&rc); })) {
      return;
    }
    // The last failed attempt rolls nothing back: the run aborts below.
    if (attempt == max_attempts) break;
    // Rollback is "resume from the last good snapshot": the next attempt's
    // checkpointer loads it from disk. Once this run has written one, that
    // holds even when the run started with resume off.
    if (rc.WroteSnapshot()) attempt_options.resume = true;
    ++report.rollbacks;
    CLFD_METRIC_COUNT("recovery.watchdog.rollbacks", 1);
    CLFD_LOG(WARN) << "watchdog rollback" << obs::Kv("stem", stem)
                   << obs::Kv("attempt", attempt)
                   << obs::Kv("error", report.last_error);
  }
  report.aborted = true;
  CLFD_METRIC_COUNT("recovery.watchdog.aborts", 1);
  throw WatchdogAbort(report);
}

RunCheckpointer::RunCheckpointer(const RecoveryOptions& options,
                                 const std::string& stem, int attempt,
                                 WatchdogReport* report)
    : options_(options), attempt_(attempt), report_(report) {
  options_.interval_epochs = std::max(1, options_.interval_epochs);
  if (options_.enabled()) {
    EnsureDirs(options_.dir);
    path_ = options_.dir + "/" + stem + ".ckpt";
  }
}

RunCheckpointer::~RunCheckpointer() {
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    stop_committer_ = true;
  }
  commit_cv_.notify_all();
  if (committer_.joinable()) committer_.join();
}

void RunCheckpointer::EnqueueCommit(std::string bytes) {
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    if (!committer_.joinable()) {
      // Lazily start the I/O-only committer; it never touches model state,
      // so the ParallelFor determinism guards do not apply to it.
      committer_ =
          std::thread(  // clfd-analyze: allow(concurrency-raw-thread)
              [this] { CommitterLoop(); });
    }
    if (pending_bytes_.has_value()) {
      CLFD_METRIC_COUNT("recovery.ckpt.coalesced", 1);
    }
    pending_bytes_ = std::move(bytes);
  }
  commit_cv_.notify_one();
}

void RunCheckpointer::DrainCommits() {
  std::unique_lock<std::mutex> lock(commit_mu_);
  commit_cv_.wait(lock,
                  [this] { return !pending_bytes_.has_value() && !committing_; });
}

bool RunCheckpointer::WroteSnapshot() {
  DrainCommits();
  std::lock_guard<std::mutex> lock(commit_mu_);
  return committed_;
}

// No obs::prof::Scope here or in WriteFileAtomic: this raw thread is not a
// pool lane, so nothing orders its scope tree against prof::Snapshot() and
// prof::Reset(), which read and prune every thread's tree from the
// training thread while commits may still be in flight. Commits are
// counted in the recovery.ckpt.* metrics instead.
void RunCheckpointer::CommitterLoop() {
  std::unique_lock<std::mutex> lock(commit_mu_);
  for (;;) {
    commit_cv_.wait(lock, [this] {
      return stop_committer_ || pending_bytes_.has_value();
    });
    if (!pending_bytes_.has_value()) break;  // stopping and drained
    std::string bytes = std::move(*pending_bytes_);
    pending_bytes_.reset();
    committing_ = true;
    lock.unlock();
    bool ok = false;
    try {
      WriteFileAtomic(path_, bytes);
      ok = true;
    } catch (const CheckpointError& e) {
      // A failed snapshot must not kill training: the previous snapshot is
      // still intact on disk (the atomic-commit protocol never damages it),
      // so the only cost is a longer replay if a crash follows.
      CLFD_METRIC_COUNT("recovery.ckpt.save_failures", 1);
      CLFD_LOG(WARN) << "checkpoint save failed; continuing"
                     << obs::Kv("path", path_) << obs::Kv("error", e.what());
    }
    lock.lock();
    committed_ = committed_ || ok;
    committing_ = false;
    commit_cv_.notify_all();
  }
}

void RunCheckpointer::RegisterParams(const std::string& name,
                                     std::vector<ag::Var> params) {
  params_.push_back(ParamsEntry{name, std::move(params)});
}

void RunCheckpointer::RegisterRng(const std::string& name, Rng* rng) {
  rngs_.push_back(RngEntry{name, rng});
}

void RunCheckpointer::RegisterBlob(
    const std::string& name, std::function<std::string()> encode,
    std::function<void(const std::string&)> decode) {
  blobs_.push_back(BlobEntry{name, std::move(encode), std::move(decode)});
}

bool RunCheckpointer::LoadSnapshot() {
  if (!options_.enabled() || !options_.resume) return false;
  loaded_ = LoadCheckpointWithFallback(path_);
  if (!loaded_.has_value()) return false;
  ByteReader meta(loaded_->Section("meta"));
  int phase = meta.GetI32();
  int next_epoch = meta.GetI32();
  int complete = meta.GetI32();
  if (phase < kPhasePretrain || phase > kPhaseDone || next_epoch < 0 ||
      (complete != 0 && complete != 1)) {
    throw CheckpointError(CheckpointStatus::kCorrupt,
                          "meta section out of range");
  }
  loaded_phase_ = phase;
  loaded_next_epoch_ = next_epoch;
  loaded_complete_ = complete != 0;
  has_snapshot_ = true;
  CLFD_METRIC_COUNT("recovery.run.resumes", 1);
  CLFD_LOG(INFO) << "resuming from checkpoint" << obs::Kv("path", path_)
                 << obs::Kv("phase", loaded_phase_)
                 << obs::Kv("next_epoch", loaded_next_epoch_)
                 << obs::Kv("complete", loaded_complete_ ? 1 : 0);
  return true;
}

void RunCheckpointer::RestoreRegistered() {
  if (!has_snapshot_) return;
  CLFD_PROF_SPAN("recovery.restore");

  // Stage 1: decode and validate every section against the registered
  // model before touching any of it, so a defective checkpoint can never
  // leave the run half-restored.
  std::vector<std::vector<Matrix>> staged_params(params_.size());
  for (size_t e = 0; e < params_.size(); ++e) {
    const ParamsEntry& entry = params_[e];
    ByteReader r(loaded_->Section("params." + entry.name));
    uint32_t count = r.GetU32();
    if (count != entry.params.size()) {
      throw CheckpointError(
          CheckpointStatus::kShapeMismatch,
          "section params." + entry.name + " holds " +
              std::to_string(count) + " tensors, model has " +
              std::to_string(entry.params.size()));
    }
    staged_params[e].reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      Matrix m = r.GetMatrix();
      const Matrix& current = entry.params[i].value();
      if (m.rows() != current.rows() || m.cols() != current.cols()) {
        throw CheckpointError(CheckpointStatus::kShapeMismatch,
                              "tensor " + std::to_string(i) + " of params." +
                                  entry.name + " has the wrong shape");
      }
      staged_params[e].push_back(std::move(m));
    }
  }
  std::vector<std::string> staged_rngs(rngs_.size());
  for (size_t e = 0; e < rngs_.size(); ++e) {
    ByteReader r(loaded_->Section("rng." + rngs_[e].name));
    std::string state = r.GetStr();
    Rng probe(0);
    if (!probe.LoadState(state)) {
      throw CheckpointError(CheckpointStatus::kCorrupt,
                            "rng." + rngs_[e].name + " does not parse");
    }
    staged_rngs[e] = std::move(state);
  }

  // Stage 2: commit.
  for (size_t e = 0; e < params_.size(); ++e) {
    for (size_t i = 0; i < staged_params[e].size(); ++i) {
      params_[e].params[i].node()->value = std::move(staged_params[e][i]);
    }
  }
  for (size_t e = 0; e < rngs_.size(); ++e) {
    rngs_[e].rng->LoadState(staged_rngs[e]);
  }
  for (const BlobEntry& entry : blobs_) {
    const std::string section = "blob." + entry.name;
    if (loaded_->HasSection(section) && entry.decode) {
      entry.decode(loaded_->Section(section));
    }
  }
}

int RunCheckpointer::BeginPhase(int phase, int total_epochs,
                                nn::Adam* optimizer,
                                std::string* local_state) {
  phase_epochs_[phase] = total_epochs;
  int start = 0;
  if (has_snapshot_) {
    if (loaded_complete_ || phase < loaded_phase_) {
      start = total_epochs;
    } else if (phase == loaded_phase_) {
      start = std::min(loaded_next_epoch_, total_epochs);
    }
    if (start >= total_epochs) {
      CLFD_METRIC_COUNT("recovery.run.phases_skipped", 1);
    } else if (start > 0) {
      CLFD_METRIC_COUNT("recovery.run.phase_resumes", 1);
      CLFD_LOG(INFO) << "phase resumed mid-way"
                     << obs::Kv("phase", kPhaseNames[phase])
                     << obs::Kv("start_epoch", start);
    }
    if (phase == loaded_phase_ && !loaded_complete_) {
      if (loaded_->HasSection("phase.local")) {
        *local_state = loaded_->Section("phase.local");
      }
      if (loaded_->HasSection("optimizer")) RestoreOptimizer(optimizer);
    }
  }
  if (attempt_ >= 3) {
    optimizer->set_learning_rate(optimizer->learning_rate() * 0.5f);
  }
  return start;
}

bool RunCheckpointer::RunBatch(nn::Adam* optimizer,
                               const std::function<float()>& step,
                               float* loss) {
  if (!options_.watchdog.enabled) {
    *loss = step();
    return true;
  }
  ++epoch_batches_;
  const bool ran = RunRecoverable(attempt_ >= 2, nullptr, [&] {
    const float batch_loss = step();
    if (!std::isfinite(batch_loss)) {
      throw DivergenceError("non-finite batch loss");
    }
    *loss = batch_loss;
  });
  if (ran) return true;
  // Skip: the batch's partial gradient accumulation must not leak into the
  // next batch's update.
  optimizer->ZeroGrad();
  ++epoch_skipped_;
  if (report_ != nullptr) ++report_->batches_skipped;
  CLFD_METRIC_COUNT("recovery.watchdog.batches_skipped", 1);
  return false;
}

void RunCheckpointer::EndEpoch(int phase, int epoch, float mean_loss,
                               nn::Adam* optimizer,
                               const std::string& local_state) {
  // Sentinel first: a diverged epoch must never be snapshotted, so the
  // last on-disk state is always healthy rollback material.
  CheckEpochLoss(phase, epoch, mean_loss);
  // Crash probe before the snapshot: a simulated crash at epoch k loses
  // everything since the previous snapshot, exactly like a real one, and
  // resume has to replay those epochs bitwise.
  if (fault::At("run.epoch")) throw SimulatedCrash(EpochName(phase, epoch));
  if (!options_.enabled()) return;
  bool due = ((epoch + 1) % options_.interval_epochs == 0) ||
             (epoch + 1 >= phase_epochs_[phase]);
  if (due) Snapshot(phase, epoch + 1, false, optimizer, local_state);
}

// Divergence: a non-finite mean loss in every run; under the watchdog also
// an epoch in which every batch that ran was skipped (its mean loss of 0
// is no measurement, so it must not become the baseline either), or a loss
// spiking above the phase's baseline, its first healthy epoch loss in this
// attempt. An epoch that ran no batch at all passes.
void RunCheckpointer::CheckEpochLoss(int phase, int epoch, float mean_loss) {
  const bool all_skipped =
      epoch_batches_ > 0 && epoch_skipped_ == epoch_batches_;
  epoch_batches_ = 0;
  epoch_skipped_ = 0;
  RequireFiniteEpochLoss(phase, epoch, mean_loss);
  if (!options_.watchdog.enabled) return;
  std::string problem;
  std::optional<float>& baseline = baselines_[phase];
  if (all_skipped) {
    problem = "every batch skipped";
  } else if (!baseline.has_value()) {
    baseline = mean_loss;
  } else {
    const float threshold =
        options_.watchdog.spike_factor * std::max(std::fabs(*baseline), 1e-3f);
    if (mean_loss > threshold) {
      problem = "loss " + std::to_string(mean_loss) + " spiked above " +
                std::to_string(threshold);
    }
  }
  if (problem.empty()) return;
  CLFD_METRIC_COUNT("recovery.watchdog.divergence_detected", 1);
  throw DivergenceError(EpochName(phase, epoch) + ": " + problem);
}

void RunCheckpointer::MarkTrainingComplete() {
  if (!options_.enabled()) return;
  Snapshot(kPhaseDone, 0, true, nullptr, std::string());
  // The completion marker is the write callers sequence against (e.g. the
  // results store records the run as done only after it): make it durable
  // before returning.
  DrainCommits();
}

void RunCheckpointer::Snapshot(int phase, int next_epoch, bool complete,
                               nn::Adam* optimizer,
                               const std::string& local) {
  CLFD_PROF_SPAN("recovery.snapshot");
  Checkpoint ckpt;
  {
    ByteWriter meta;
    meta.PutI32(phase);
    meta.PutI32(next_epoch);
    meta.PutI32(complete ? 1 : 0);
    ckpt.SetSection("meta", meta.Take());
  }
  for (const ParamsEntry& entry : params_) {
    ByteWriter w;
    w.PutU32(static_cast<uint32_t>(entry.params.size()));
    for (const ag::Var& p : entry.params) w.PutMatrix(p.value());
    ckpt.SetSection("params." + entry.name, w.Take());
  }
  for (const RngEntry& entry : rngs_) {
    ByteWriter w;
    w.PutStr(entry.rng->SaveState());
    ckpt.SetSection("rng." + entry.name, w.Take());
  }
  for (const BlobEntry& entry : blobs_) {
    if (entry.encode) ckpt.SetSection("blob." + entry.name, entry.encode());
  }
  if (optimizer != nullptr) {
    ByteWriter w;
    w.PutU32(static_cast<uint32_t>(optimizer->param_count()));
    for (const Matrix& m : optimizer->first_moments()) w.PutMatrix(m);
    for (const Matrix& v : optimizer->second_moments()) w.PutMatrix(v);
    w.PutI32(optimizer->step_count());
    w.PutF32(optimizer->learning_rate());
    ckpt.SetSection("optimizer", w.Take());
  }
  ckpt.SetSection("phase.local", local);

  // Hand the encoded snapshot to the committer thread; the fsync-heavy
  // durable write overlaps the next training epochs.
  EnqueueCommit(ckpt.Encode());
}

void RunCheckpointer::RestoreOptimizer(nn::Adam* optimizer) const {
  ByteReader r(loaded_->Section("optimizer"));
  uint32_t count = r.GetU32();
  if (count != optimizer->param_count()) {
    throw CheckpointError(CheckpointStatus::kShapeMismatch,
                          "optimizer section holds " + std::to_string(count) +
                              " moment pairs, optimizer has " +
                              std::to_string(optimizer->param_count()));
  }
  std::vector<Matrix> m;
  std::vector<Matrix> v;
  m.reserve(count);
  v.reserve(count);
  for (uint32_t i = 0; i < count; ++i) m.push_back(r.GetMatrix());
  for (uint32_t i = 0; i < count; ++i) v.push_back(r.GetMatrix());
  int t = r.GetI32();
  float lr = r.GetF32();
  if (!optimizer->RestoreState(std::move(m), std::move(v), t)) {
    throw CheckpointError(CheckpointStatus::kShapeMismatch,
                          "optimizer moment shapes do not match parameters");
  }
  optimizer->set_learning_rate(lr);
}

PhaseLoop::PhaseLoop(RunCheckpointer* rc, int phase, int epochs,
                     nn::Adam* optimizer, const char* span,
                     const char* scope)
    : rc_(rc),
      phase_(phase),
      epochs_(epochs),
      optimizer_(optimizer),
      span_(span),
      scope_(scope) {
  if (rc_ != nullptr) {
    start_epoch_ = rc_->BeginPhase(phase, epochs, optimizer, &local_state_);
  }
}

void PhaseLoop::Run(const std::function<void()>& epoch_body,
                    const std::function<std::string()>& save_state) {
  obs::Series* loss_series = obs::MetricsRegistry::Get().GetSeries(
      std::string(scope_) + ".loss");
  for (int epoch = start_epoch_; epoch < epochs_; ++epoch) {
    obs::prof::Scope epoch_span(obs::prof::kSpan, span_);
    loss_sum_ = 0.0;
    batches_ = 0;
    epoch_body();
    const double mean = batches_ > 0 ? loss_sum_ / batches_ : 0.0;
    epoch_span.Arg("epoch", epoch);
    epoch_span.Arg("loss", mean);
    loss_series->Append(epoch, mean);
    CLFD_LOG(DEBUG) << "epoch done" << obs::Kv("scope", scope_)
                    << obs::Kv("epoch", epoch) << obs::Kv("loss", mean)
                    << obs::Kv("batches", batches_);
    if (rc_ == nullptr) {
      RequireFiniteEpochLoss(phase_, epoch, static_cast<float>(mean));
    } else {
      rc_->EndEpoch(phase_, epoch, static_cast<float>(mean), optimizer_,
                    save_state ? save_state() : std::string());
    }
  }
}

}  // namespace recovery
}  // namespace clfd
