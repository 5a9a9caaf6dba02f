#pragma once

#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "nn/classifier.h"
#include "tensor/matrix.h"

namespace clfd {
namespace recovery {
struct PhaseHooks;
}  // namespace recovery

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
// `hooks` (optional) is the recovery surface. The loop's only persistent
// state beyond params/optimizer/rng is the shuffle `order` vector, which
// accumulates in-place Fisher-Yates passes across epochs; it is serialized
// as the phase-local blob so a resumed run replays the identical batch
// composition.
void TrainClassifierOnFeatures(nn::FeedForwardClassifier* classifier,
                               const Matrix& features,
                               const std::vector<int>& labels,
                               const ClfdConfig& config, Rng* rng,
                               const char* metric_scope = "classifier",
                               const recovery::PhaseHooks* hooks = nullptr);

}  // namespace clfd

