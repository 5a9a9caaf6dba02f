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

// A single LSTM layer with per-gate weight matrices.
//
// Gates (i, f, g, o) each have input weights Wx [in x h], recurrent weights
// Wh [h x h] and a bias [1 x h]. The forget-gate bias is initialized to 1,
// the standard trick for gradient flow through time.
class LstmCell : public Module {
 public:
  LstmCell(int in_dim, int hidden_dim, Rng* rng);

  // Column-packed views of the gate parameters: wx [in x 4H], wh [H x 4H],
  // b [1 x 4H], gate blocks in index order (i, f, g, o). Built per forward
  // pass via ag::ConcatCols, so the per-gate matrices remain the canonical
  // parameters — Parameters() order, optimizer state, gradient clipping
  // and serialization are untouched by packing — and the packed gradient
  // flows back into the per-gate gradients exactly.
  struct Packed {
    ag::Var wx;
    ag::Var wh;
    ag::Var b;
  };
  Packed Pack() const;

  std::vector<ag::Var> Parameters() const override;

  int in_dim() const { return wx_[0].rows(); }
  int hidden_dim() const { return wx_[0].cols(); }

 private:
  // Index order: 0 = input gate, 1 = forget, 2 = candidate, 3 = output.
  ag::Var wx_[4];
  ag::Var wh_[4];
  ag::Var b_[4];
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

