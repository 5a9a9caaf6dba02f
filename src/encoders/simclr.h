#pragma once

#include "common/rng.h"
#include "data/session.h"
#include "encoders/session_encoder.h"

namespace clfd {
namespace recovery {
class RunCheckpointer;
}  // namespace recovery

// Options for self-supervised SimCLR pre-training of a session encoder with
// the session-reordering augmentation [3] and the NT-Xent loss [50].
struct SimclrOptions {
  int epochs = 10;
  int batch_size = 100;
  float temperature = 0.5f;
  float learning_rate = 0.005f;
  float grad_clip = 5.0f;
  int reorder_sub_len = 3;
  // Prefix for the observability layer: per-epoch NT-Xent loss lands in the
  // "<metric_scope>.loss" series and log lines carry this name (each epoch
  // is a "simclr.epoch" span). Must be a string literal (stored, not
  // copied).
  const char* metric_scope = "simclr";
};

// Runs SimCLR pre-training in place on (encoder, projection). Label-free:
// uses only the session sequences, so the result is unaffected by label
// noise — the property the CLFD label corrector builds on (Sec. III-A).
// A non-null `rc` runs it as the pipeline's pretrain phase with
// checkpoint/resume and the watchdog.
void SimclrPretrain(SessionEncoder* encoder, ProjectionHead* projection,
                    const SessionDataset& train, const Matrix& embeddings,
                    const SimclrOptions& options, Rng* rng,
                    recovery::RunCheckpointer* rc = nullptr);

}  // namespace clfd

