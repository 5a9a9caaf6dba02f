#include "nn/optimizer.h"

#include <cmath>

#include "nn/module.h"
#include "obs/metrics.h"

namespace clfd {
namespace nn {

Adam::Adam(std::vector<ag::Var> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const ag::Var& p : params_) {
    m_.emplace_back(p.rows(), p.cols());
    v_.emplace_back(p.rows(), p.cols());
  }
  ZeroGrad();
}

void Adam::Step() {
  CLFD_METRIC_COUNT("optim.adam.steps", 1);
  ++t_;
  // Per-step scalars hoisted out of the element loop: the two bias
  // corrections become one multiply each instead of a divide, and every
  // loop-invariant member load is pinned in a local. With ZeroGrads
  // recycling the gradient buffers, the whole step is allocation- and
  // branch-free (see BM_AdamStep).
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  const float inv_bc1 = 1.0f / bc1;
  const float inv_bc2 = 1.0f / bc2;
  const float lr = lr_;
  const float b1 = beta1_, one_minus_b1 = 1.0f - beta1_;
  const float b2 = beta2_, one_minus_b2 = 1.0f - beta2_;
  const float eps = eps_;
  for (size_t i = 0; i < params_.size(); ++i) {
    Matrix& value = params_[i].mutable_value();
    const Matrix& grad = params_[i].grad();
    Matrix& m = m_[i];
    Matrix& v = v_[i];
    for (int j = 0; j < value.size(); ++j) {
      float g = grad[j];
      m[j] = b1 * m[j] + one_minus_b1 * g;
      v[j] = b2 * v[j] + one_minus_b2 * g * g;
      float mhat = m[j] * inv_bc1;
      float vhat = v[j] * inv_bc2;
      value[j] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }
  ZeroGrad();
}

void Adam::ZeroGrad() { ZeroGrads(params_); }

bool Adam::RestoreState(std::vector<Matrix> m, std::vector<Matrix> v, int t) {
  if (m.size() != params_.size() || v.size() != params_.size() || t < 0) {
    return false;
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    if (m[i].rows() != params_[i].rows() || m[i].cols() != params_[i].cols() ||
        v[i].rows() != params_[i].rows() || v[i].cols() != params_[i].cols()) {
      return false;
    }
  }
  m_ = std::move(m);
  v_ = std::move(v);
  t_ = t;
  return true;
}

}  // namespace nn
}  // namespace clfd
