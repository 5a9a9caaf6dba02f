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
  // Max |serial - row-parallel| over the analytic gradients, or +inf when
  // their bits differ where the values compare equal (signed zeros, NaNs).
  // Both kernel paths run the same row bodies, so any nonzero value is a
  // bug.
  float serial_parallel_grad_diff = 0.0f;
  bool ok(float tol = 2e-2f) const {
    return (max_abs_error < tol || max_rel_error < tol) &&
           serial_parallel_grad_diff == 0.0f;
  }
};

// Verifies the analytic gradients of `build_loss` against central finite
// differences, with every kernel forced onto its serial path. Then runs one
// more analytic pass with every kernel on its row-parallel path (pool width
// at least 4) and records in serial_parallel_grad_diff how far those
// gradients are from the serial ones. `build_loss` must construct a fresh
// graph from the given params on every call and return a [1 x 1] scalar.
// Perturbation happens on the param values in place (restored afterwards).
//
// Used by the test suite to validate every autograd op and every network
// layer (the substrate substituting for PyTorch must compute the same
// gradients PyTorch would).
GradCheckResult CheckGradients(
    const std::function<Var(const std::vector<Var>&)>& build_loss,
    const std::vector<Var>& params, float epsilon = 1e-3f);

}  // namespace ag
}  // namespace clfd
