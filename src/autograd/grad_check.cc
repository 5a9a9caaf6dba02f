#include "autograd/grad_check.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "parallel/thread_pool.h"

namespace clfd {
namespace ag {

namespace {

// One analytic pass: zero the grads, rebuild the graph, run backward. The
// caller reads the grads off `params`.
void AnalyticGradients(
    const std::function<Var(const std::vector<Var>&)>& build_loss,
    const std::vector<Var>& params) {
  for (const Var& p : params) {
    p.node()->grad = Matrix(p.rows(), p.cols());
  }
  Var loss = build_loss(params);
  Backward(loss);
}

// MaxAbsDiff, except that any bit difference counts: equal-comparing pairs
// with different bits (+0 / -0, two NaNs) give +inf.
float BitwiseDiff(const Matrix& a, const Matrix& b) {
  const float diff = MaxAbsDiff(a, b);
  if (diff > 0.0f || a.size() == 0 ||
      std::memcmp(a.data(), b.data(),
                  static_cast<size_t>(a.size()) * sizeof(float)) == 0) {
    return diff;
  }
  return std::numeric_limits<float>::infinity();
}

}  // namespace

GradCheckResult CheckGradients(
    const std::function<Var(const std::vector<Var>&)>& build_loss,
    const std::vector<Var>& params, float epsilon) {
  GradCheckResult result;
  std::vector<Matrix> serial;
  {
    ScopedMatmulParallelThreshold force_serial(
        std::numeric_limits<int64_t>::max());
    AnalyticGradients(build_loss, params);
    for (const Var& p : params) {
      serial.push_back(p.grad());
      Matrix& value = p.node()->value;
      for (int i = 0; i < value.size(); ++i) {
        float saved = value[i];
        value[i] = saved + epsilon;
        float up = build_loss(params).value()[0];
        value[i] = saved - epsilon;
        float down = build_loss(params).value()[0];
        value[i] = saved;
        float numeric = (up - down) / (2.0f * epsilon);
        float analytic = p.grad()[i];
        float abs_err = std::abs(numeric - analytic);
        float denom = std::max({std::abs(numeric), std::abs(analytic), 1.0f});
        result.max_abs_error = std::max(result.max_abs_error, abs_err);
        result.max_rel_error = std::max(result.max_rel_error, abs_err / denom);
      }
    }
  }
  // Widen the pool so the zero threshold genuinely dispatches.
  const int saved_threads = parallel::GlobalThreadCount();
  parallel::SetGlobalThreads(std::max(saved_threads, 4));
  {
    ScopedMatmulParallelThreshold force_parallel(0);
    AnalyticGradients(build_loss, params);
  }
  parallel::SetGlobalThreads(saved_threads);
  for (size_t i = 0; i < params.size(); ++i) {
    result.serial_parallel_grad_diff =
        std::max(result.serial_parallel_grad_diff,
                 BitwiseDiff(serial[i], params[i].grad()));
  }
  return result;
}

}  // namespace ag
}  // namespace clfd
