#include "autograd/grad_check.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "parallel/thread_pool.h"
#include "tensor/kernel_backend.h"

namespace clfd {
namespace ag {

namespace {

// One analytic pass (no numeric differencing): zero the grads, rebuild the
// graph, run backward. The caller reads the grads off `params`.
void AnalyticGradients(
    const std::function<Var(const std::vector<Var>&)>& build_loss,
    const std::vector<Var>& params) {
  for (const Var& p : params) {
    p.node()->grad = Matrix(p.rows(), p.cols());
  }
  Var loss = build_loss(params);
  Backward(loss);
}

}  // namespace

GradCheckResult CheckGradients(
    const std::function<Var(const std::vector<Var>&)>& build_loss,
    const std::vector<Var>& params, float epsilon) {
  // Analytic pass.
  for (const Var& p : params) {
    p.node()->grad = Matrix(p.rows(), p.cols());
  }
  Var loss = build_loss(params);
  Backward(loss);

  GradCheckResult result;
  for (const Var& p : params) {
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
  return result;
}

GradCheckResult CheckGradientsAllBackends(
    const std::function<Var(const std::vector<Var>&)>& build_loss,
    const std::vector<Var>& params, float epsilon) {
  // Oracle configuration: scalar backend, every kernel serial. This is the
  // one run that also does the numeric finite-difference comparison.
  GradCheckResult result;
  std::vector<Matrix> reference;
  {
    ScopedKernelBackend scalar(KernelBackend::kScalar);
    ScopedMatmulParallelThreshold force_serial(
        std::numeric_limits<int64_t>::max());
    result = CheckGradients(build_loss, params, epsilon);
    for (const Var& p : params) reference.push_back(p.grad());
  }
  for (KernelBackend backend : AllKernelBackends()) {
    ScopedKernelBackend use_backend(backend);
    for (bool parallel_path : {false, true}) {
      if (backend == KernelBackend::kScalar && !parallel_path) {
        continue;  // the oracle run above
      }
      int saved_threads = parallel::GlobalThreadCount();
      if (parallel_path) {
        // Widen the pool so the zero threshold genuinely dispatches.
        parallel::SetGlobalThreads(std::max(saved_threads, 4));
      }
      ScopedMatmulParallelThreshold threshold(
          parallel_path ? 0 : std::numeric_limits<int64_t>::max());
      AnalyticGradients(build_loss, params);
      if (parallel_path) parallel::SetGlobalThreads(saved_threads);
      for (size_t i = 0; i < params.size(); ++i) {
        result.serial_parallel_grad_diff =
            std::max(result.serial_parallel_grad_diff,
                     MaxAbsDiff(reference[i], params[i].grad()));
      }
    }
  }
  return result;
}

}  // namespace ag
}  // namespace clfd
