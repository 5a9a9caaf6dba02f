#pragma once

#include <functional>
#include <vector>

#include "autograd/var.h"

namespace clfd {
namespace ag {

// Result of a finite-difference gradient verification.
struct GradCheckResult {
  float max_abs_error = 0.0f;   // max |analytic - numeric| over all entries
  float max_rel_error = 0.0f;   // relative version with an absolute floor
  // Max |reference - variant| over the analytic gradients when
  // CheckGradientsAllBackends exercised every backend x {serial, parallel}
  // combination against the scalar-serial reference. All configurations
  // are bitwise-interchangeable by construction, so any nonzero value is a
  // bug.
  float serial_parallel_grad_diff = 0.0f;
  bool ok(float tol = 2e-2f) const {
    return (max_abs_error < tol || max_rel_error < tol) &&
           serial_parallel_grad_diff == 0.0f;
  }
};

// Verifies the analytic gradients of `build_loss` against central finite
// differences. `build_loss` must construct a fresh graph from the given
// params on every call and return a [1 x 1] scalar. Perturbation happens on
// the param values in place (restored afterwards).
//
// Used by the test suite to validate every autograd op and every network
// layer (the substrate substituting for PyTorch must compute the same
// gradients PyTorch would).
GradCheckResult CheckGradients(
    const std::function<Var(const std::vector<Var>&)>& build_loss,
    const std::vector<Var>& params, float epsilon = 1e-3f);

// The cross-configuration extension of the check above: runs the finite-
// difference verification once on the scalar backend with every kernel
// serial (the oracle configuration), then recomputes the analytic
// gradients under every kernel backend (tensor/kernel_backend.h) x
// {serial, row-parallel} combination and folds the bitwise max deviation
// from the oracle gradients into serial_parallel_grad_diff. The re-runs
// skip the numeric differencing — backend and parallel-path invariance is
// a bitwise claim about the analytic pass, so one oracle-vs-numeric
// comparison plus three backward passes buys the same coverage at a
// fraction of the cost. This is how the grad-check suites extend their
// coverage to the parallel kernel path and the blocked kernel bodies.
GradCheckResult CheckGradientsAllBackends(
    const std::function<Var(const std::vector<Var>&)>& build_loss,
    const std::vector<Var>& params, float epsilon = 1e-3f);

}  // namespace ag
}  // namespace clfd

