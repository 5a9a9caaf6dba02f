#include "nn/lstm.h"

namespace clfd {
namespace nn {

LstmCell::LstmCell(int in_dim, int hidden_dim, Rng* rng) {
  std::vector<Matrix> wx, wh;
  for (int g = 0; g < 4; ++g) {
    wx.push_back(Matrix::Xavier(in_dim, hidden_dim, rng));
    wh.push_back(Matrix::Xavier(hidden_dim, hidden_dim, rng));
  }
  Matrix bias(1, 4 * hidden_dim);
  for (int c = hidden_dim; c < 2 * hidden_dim; ++c) bias[c] = 1.0f;
  wx_ = ag::Param(clfd::ConcatCols(wx));
  wh_ = ag::Param(clfd::ConcatCols(wh));
  b_ = ag::Param(std::move(bias));
}

std::vector<ag::Var> LstmCell::Parameters() const { return {wx_, wh_, b_}; }

Lstm::Lstm(int in_dim, int hidden_dim, int num_layers, Rng* rng) {
  layers_.reserve(num_layers);
  for (int l = 0; l < num_layers; ++l) {
    layers_.emplace_back(l == 0 ? in_dim : hidden_dim, hidden_dim, rng);
  }
}

std::vector<ag::Var> Lstm::Forward(const std::vector<ag::Var>& steps) const {
  if (steps.empty()) return {};
  // Per layer: project all T input steps with a single [T*B x 4H] matmul
  // when the inputs carry no gradient (layer 0's constant embeddings — big
  // enough to clear the parallel-dispatch threshold), then run one
  // recurrent matmul plus one fused gate op per step. State threads
  // through as one [B x 2H] = [h|c] Var; the h read for step t+1 and for
  // the layer output is the same SliceCols node, which keeps the gradient
  // accumulation order identical to the per-gate tape (recurrent
  // contributions first, then consumers).
  const int batch = steps[0].rows();
  const int T = static_cast<int>(steps.size());
  std::vector<ag::Var> current = steps;
  for (const LstmCell& layer : layers_) {
    const int h_dim = layer.hidden_dim();
    bool const_input = true;
    for (const ag::Var& x_t : current) {
      const_input = const_input && !x_t.requires_grad();
    }
    ag::Var xp_all;
    if (const_input) {
      std::vector<Matrix> xvals;
      xvals.reserve(T);
      for (const ag::Var& x_t : current) xvals.push_back(x_t.value());
      xp_all = ag::LstmInputProjection(clfd::ConcatRows(xvals), layer.wx(),
                                       batch);
    }
    ag::Var hc = ag::Constant(Matrix(batch, 2 * h_dim));
    std::vector<ag::Var> next;
    next.reserve(T);
    for (int t = 0; t < T; ++t) {
      ag::Var h_prev = t == 0 ? ag::SliceCols(hc, 0, h_dim) : next.back();
      ag::Var xproj =
          const_input
              ? ag::SliceRows(xp_all, t * batch, (t + 1) * batch)
              : ag::LstmPackedMatMul(current[t], layer.wx());
      ag::Var pre = ag::AddRowBroadcast(
          ag::Add(xproj, ag::LstmPackedMatMul(h_prev, layer.wh())),
          layer.b());
      hc = ag::LstmGates(pre, hc);
      next.push_back(ag::SliceCols(hc, 0, h_dim));
    }
    current = std::move(next);
  }
  return current;
}

std::vector<ag::Var> Lstm::Parameters() const {
  std::vector<ag::Var> params;
  for (const LstmCell& layer : layers_) {
    auto lp = layer.Parameters();
    params.insert(params.end(), lp.begin(), lp.end());
  }
  return params;
}

}  // namespace nn
}  // namespace clfd
