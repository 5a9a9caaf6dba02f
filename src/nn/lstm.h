#pragma once

#include <vector>

#include "autograd/var.h"
#include "common/rng.h"
#include "nn/module.h"

namespace clfd {
namespace nn {

// Always true: Lstm::Forward has one implementation, the packed-gate
// kernels. Kept only for the end-to-end benchmark's settings record.
inline bool LstmFusedEnabled() { return true; }

// A single LSTM layer whose parameters are the packed gate matrices the
// kernels read: input weights wx [in x 4H], recurrent weights wh [H x 4H]
// and bias b [1 x 4H], gate blocks in index order (i, f, g, o). The
// constructor draws one Xavier block at a time: for each gate in index
// order, its wx block, then its wh block. That order fixes the initial
// weights every committed fingerprint was generated with. The forget-gate
// bias block starts at 1, the standard trick for gradient flow through
// time.
class LstmCell : public Module {
 public:
  LstmCell(int in_dim, int hidden_dim, Rng* rng);

  const ag::Var& wx() const { return wx_; }
  const ag::Var& wh() const { return wh_; }
  const ag::Var& b() const { return b_; }

  // {wx, wh, b}.
  std::vector<ag::Var> Parameters() const override;

  int in_dim() const { return wx_.rows(); }
  int hidden_dim() const { return wh_.rows(); }

 private:
  ag::Var wx_;
  ag::Var wh_;
  ag::Var b_;
};

// Multi-layer LSTM over a padded batch of sequences.
//
// The paper's session encoder is a two-layer LSTM with equal hidden sizes
// (Sec. III-B1); this class implements the general N-layer unroll and
// returns the final layer's hidden state at every timestep so the encoder
// can take the masked mean over valid positions.
class Lstm : public Module {
 public:
  Lstm(int in_dim, int hidden_dim, int num_layers, Rng* rng);

  // steps: time-major inputs, each [B x in]. Returns the final layer's
  // hidden state at each timestep, each [B x hidden].
  //
  // Runs the packed-gate kernels: 1-2 matmuls and one ag::LstmGates op per
  // step, where the textbook per-gate tape takes ~8 matmuls and ~12
  // elementwise nodes. Forward values match that per-gate unroll bit for
  // bit, and so do gradients for graphs that consume every timestep's
  // output (as every encoder here does, via the masked mean). A loss that
  // reaches the unroll only through the final h makes the per-gate tape
  // accumulate the o-gate's dWx in the opposite time order from the other
  // gates, so such graphs may differ from it in dWx by one ulp. The
  // reference unroll and the tests that compare against it live in
  // tests/nn_test.cc (LstmTest.FusedMatchesLegacyBitwise*).
  std::vector<ag::Var> Forward(const std::vector<ag::Var>& steps) const;

  std::vector<ag::Var> Parameters() const override;

  int hidden_dim() const { return layers_[0].hidden_dim(); }
  int num_layers() const { return static_cast<int>(layers_.size()); }

 private:
  std::vector<LstmCell> layers_;
};

}  // namespace nn
}  // namespace clfd

