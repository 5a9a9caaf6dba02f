#pragma once

#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "nn/classifier.h"
#include "recovery/run_checkpointer.h"
#include "tensor/matrix.h"

namespace clfd {

// Mixup-based classifier training (Sec. III-A1 / III-B2, Algorithm 1 lines
// 13-19), shared by the label corrector (features = v_i from the
// self-supervised encoder, labels = noisy labels) and the fraud detector
// (features = z_i from the supervised encoder, labels = corrected labels).
//
// Depending on config.classifier_loss this trains with the paper's mixup
// GCE loss, the vanilla GCE loss (ablation "w/o l^lambda_GCE") or plain
// cross entropy (ablation "w/o GCE loss"). Mixup partners are drawn from
// the full feature table so opposite-class partners exist even under
// extreme imbalance.
//
// `metric_scope` names this training loop in the observability layer (a
// string literal): per-epoch loss lands in the "<metric_scope>.loss"
// series and the loop's log lines carry the scope name. Each epoch is a
// "classifier.epoch" span under the enclosing phase.
//
// A non-null `rc` runs the loop as pipeline phase `phase` (the corrector's
// or the detector's classifier) with checkpoint/resume and the watchdog;
// without one, `phase` only names the phase in a divergence message. The
// loop's only persistent state beyond params/optimizer/rng is the shuffle
// `order` vector, which accumulates in-place Fisher-Yates passes across
// epochs; it is serialized as the phase-local blob so a resumed run
// replays the identical batch composition.
void TrainClassifierOnFeatures(nn::FeedForwardClassifier* classifier,
                               const Matrix& features,
                               const std::vector<int>& labels,
                               const ClfdConfig& config, Rng* rng,
                               const char* metric_scope = "classifier",
                               recovery::RunCheckpointer* rc = nullptr,
                               int phase = recovery::kPhaseCorrector);

}  // namespace clfd

