#pragma once

#include <vector>

#include "autograd/var.h"
#include "common/rng.h"
#include "data/session.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/module.h"

namespace clfd {

// LSTM session encoder (Sec. III-B1).
//
// Maps a session's raw representation x_i = {x_it} (frozen word2vec activity
// embeddings) to an encoded vector z_i by running a multi-layer LSTM (paper:
// two hidden layers of equal size) and averaging the final layer's hidden
// states over the valid timesteps, plus a linear residual connection from
// the mean input embedding (a randomly initialized deep LSTM otherwise
// attenuates the linearly separable content signal that the paper's
// training scales preserve — see DESIGN.md, "encoder residual"). Batches
// are padded to the longest session (at least one step); padded positions
// are excluded from the averages and therefore contribute no gradient.
class SessionEncoder : public nn::Module {
 public:
  SessionEncoder(int emb_dim, int hidden_dim, int num_layers, Rng* rng);

  // Encodes a batch of sessions into [B x hidden]. `embeddings` is the
  // [vocab x emb_dim] activity embedding table.
  ag::Var EncodeBatch(const std::vector<const Session*>& sessions,
                      const Matrix& embeddings) const;

  // Inference helper: encodes every session of `dataset` and returns the
  // [N x hidden] value matrix in dataset order (no graph retained). Chunks
  // of `chunk` sessions follow a stable length-sorted order, so each chunk
  // pads to about its own sessions' length; a session's row is bitwise the
  // same as encoding it alone. Chunks run in parallel on the global pool
  // and write disjoint output rows, so the result is identical at any
  // thread count.
  Matrix EncodeDataset(const SessionDataset& dataset, const Matrix& embeddings,
                       int chunk = 128) const;

  std::vector<ag::Var> Parameters() const override;

  int emb_dim() const { return input_skip_.in_dim(); }
  int hidden_dim() const { return lstm_.hidden_dim(); }
  int num_layers() const { return lstm_.num_layers(); }

 private:
  nn::Lstm lstm_;
  nn::Linear input_skip_;  // mean input embedding -> hidden residual
};

// Two-layer MLP projection head used on top of the encoder during
// contrastive pre-training (SimCLR-style); discarded at inference time.
class ProjectionHead : public nn::Module {
 public:
  ProjectionHead(int in_dim, int out_dim, Rng* rng);

  ag::Var Forward(const ag::Var& z) const;

  std::vector<ag::Var> Parameters() const override;

 private:
  nn::Linear fc1_;
  nn::Linear fc2_;
};

// Builds the time-major padded input steps for a batch of sessions:
// step t is a [B x emb_dim] matrix whose row i holds the embedding of
// session i's t-th activity (zero when t >= length_i). Also returns the
// per-timestep averaging masks (row i of mask t = 1/length_i when valid).
// There is at least one step, all zero when every session is empty.
struct PaddedBatch {
  std::vector<Matrix> steps;
  std::vector<Matrix> mean_masks;  // [B x 1] per step
};
PaddedBatch BuildPaddedBatch(const std::vector<const Session*>& sessions,
                             const Matrix& embeddings);

}  // namespace clfd

