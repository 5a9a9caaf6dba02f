#pragma once

#include <vector>

#include "autograd/var.h"

namespace clfd {
namespace nn {

// Adam optimizer (Kingma & Ba, 2015) — the paper trains every component
// with Adam at learning rate 0.005 (Sec. IV-A2).
class Adam {
 public:
  explicit Adam(std::vector<ag::Var> params, float lr = 0.005f,
                float beta1 = 0.9f, float beta2 = 0.999f, float eps = 1e-8f);

  // Applies one update from the accumulated gradients, then zeroes them.
  void Step();

  // Zeroes gradients without updating (e.g. before the first backward).
  void ZeroGrad();

  float learning_rate() const { return lr_; }
  void set_learning_rate(float lr) { lr_ = lr; }

  // Checkpoint access to the full optimizer state. Resuming mid-phase is
  // only bitwise-exact when the first and second moments AND the bias
  // correction step count come back exactly, so all three are exposed.
  const std::vector<Matrix>& first_moments() const { return m_; }
  const std::vector<Matrix>& second_moments() const { return v_; }
  int step_count() const { return t_; }
  size_t param_count() const { return params_.size(); }

  // Restores moments + step count captured from another Adam instance over
  // the same parameter list. Shapes must match the current parameters;
  // returns false (state untouched) on any mismatch.
  bool RestoreState(std::vector<Matrix> m, std::vector<Matrix> v, int t);

 private:
  std::vector<ag::Var> params_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  float lr_, beta1_, beta2_, eps_;
  int t_ = 0;
};

}  // namespace nn
}  // namespace clfd

