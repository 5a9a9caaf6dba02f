#include "core/clfd.h"

#include <cassert>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "recovery/run_checkpointer.h"

namespace clfd {

ClfdModel::ClfdModel(const ClfdConfig& config, uint64_t seed)
    : config_(config) {
  if (config_.use_label_corrector) {
    corrector_ = std::make_unique<LabelCorrector>(config_, seed);
  }
  if (config_.use_fraud_detector) {
    detector_ = std::make_unique<FraudDetector>(config_, seed + 1);
  }
  assert(corrector_ || detector_);
}

void ClfdModel::Train(const SessionDataset& train, const Matrix& embeddings) {
  TrainWithRecovery(train, embeddings, nullptr);
}

void ClfdModel::TrainWithRecovery(const SessionDataset& train,
                                  const Matrix& embeddings,
                                  recovery::RunCheckpointer* rc) {
  RequireTrainingSessions(train);
  CLFD_PROF_SPAN("clfd.train");
  std::vector<Correction> corrections;
  if (rc != nullptr) {
    if (corrector_) corrector_->RegisterState(rc);
    if (detector_) detector_->RegisterState(rc);
    // The corrections vector is the one piece of pipeline state that is not
    // a parameter tensor or an Rng stream: it is produced between the
    // corrector and detector phases and consumed by both detector phases.
    rc->RegisterBlob(
        "corrections",
        [&corrections]() {
          recovery::ByteWriter writer;
          writer.PutU64(corrections.size());
          for (const Correction& c : corrections) {
            writer.PutI32(c.label);
            writer.PutF64(c.confidence);
          }
          return writer.Take();
        },
        [&corrections, &train](const std::string& payload) {
          recovery::ByteReader reader(payload);
          uint64_t n = reader.GetU64();
          // 12 bytes per entry (i32 label + f64 confidence): bound before
          // allocating so a hostile length cannot drive a huge resize.
          if (n > reader.remaining() / 12) {
            throw recovery::CheckpointError(
                recovery::CheckpointStatus::kTruncated,
                "corrections blob length exceeds payload");
          }
          // Empty is legal: snapshots taken before the corrector finished
          // carry no corrections yet (the resumed run recomputes them).
          if (n != 0 && n != static_cast<uint64_t>(train.size())) {
            throw recovery::CheckpointError(
                recovery::CheckpointStatus::kShapeMismatch,
                "corrections blob holds " + std::to_string(n) +
                    " entries, dataset has " + std::to_string(train.size()));
          }
          std::vector<Correction> restored(n);
          for (uint64_t i = 0; i < n; ++i) {
            restored[i].label = reader.GetI32();
            restored[i].confidence = reader.GetF64();
          }
          corrections = std::move(restored);
        });
    if (rc->LoadSnapshot()) rc->RestoreRegistered();
  }
  // After the corrector phase the corrections come from the snapshot, not
  // from a recompute: bitwise-identical resume must not depend on the
  // corrector's inference path.
  const bool corrections_restored =
      rc != nullptr && rc->has_snapshot() &&
      rc->loaded_phase() > recovery::kPhaseCorrector &&
      static_cast<int>(corrections.size()) == train.size();
  if (corrector_) {
    corrector_->Train(train, embeddings, rc);
    if (!corrections_restored) corrections = corrector_->Correct(train);
    // Corrector-confidence distribution: a healthy corrector is confidently
    // bimodal; mass piling up near 0.5 signals drift (cf. the per-epoch
    // telemetry the PLS/ChiMera noisy-label pipelines rely on).
    int flips = 0;
    for (int i = 0; i < train.size(); ++i) {
      CLFD_METRIC_HIST_RECORD(
          "clfd.corrector.confidence",
          ::clfd::obs::Histogram::LinearBounds(0.05, 0.05, 20),
          corrections[i].confidence);
      flips += (corrections[i].label != train.sessions[i].noisy_label);
    }
    CLFD_METRIC_COUNT("clfd.corrector.flips", flips);
    CLFD_LOG(INFO) << "label corrections applied"
                   << obs::Kv("flips", flips)
                   << obs::Kv("sessions", train.size());
  } else if (!corrections_restored) {
    // Ablation "w/o LC": the fraud detector consumes the noisy labels
    // directly with full confidence (vanilla supervised contrastive loss).
    corrections.resize(train.size());
    for (int i = 0; i < train.size(); ++i) {
      corrections[i].label = train.sessions[i].noisy_label;
      corrections[i].confidence = 1.0;
    }
  }
  if (detector_) {
    detector_->Train(train, corrections, embeddings, rc);
  }
  if (rc != nullptr) rc->MarkTrainingComplete();
}

std::vector<double> ClfdModel::Score(const SessionDataset& data) const {
  if (detector_) return detector_->Score(data);
  // Ablation "w/o FD": deploy the trained label corrector for inference.
  return corrector_->MaliciousProbabilities(data);
}

std::vector<Correction> ClfdModel::CorrectLabels(
    const SessionDataset& data) const {
  assert(corrector_);
  return corrector_->Correct(data);
}

}  // namespace clfd
