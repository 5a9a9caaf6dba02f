#include "metrics/gmm1d.h"

#include <algorithm>
#include <cmath>

namespace clfd {

namespace {

double GaussianPdf(double x, double mean, double var) {
  double v = std::max(var, 1e-8);
  double d = x - mean;
  return std::exp(-d * d / (2.0 * v)) / std::sqrt(2.0 * M_PI * v);
}

}  // namespace

void GaussianMixture1D::Fit(const std::vector<double>& values, int max_iters,
                            double tol) {
  if (values.empty()) return;
  auto [mn_it, mx_it] = std::minmax_element(values.begin(), values.end());
  double mn = *mn_it, mx = *mx_it;
  if (mx - mn < 1e-12) {
    // Degenerate: all losses equal; everything is "clean".
    low_ = {mn, 1e-6, 1.0};
    high_ = {mn + 1.0, 1e-6, 0.0};
    return;
  }
  low_ = {mn, (mx - mn) * (mx - mn) / 16.0, 0.5};
  high_ = {mx, (mx - mn) * (mx - mn) / 16.0, 0.5};

  std::vector<double> resp(values.size());
  double prev_ll = -1e300;
  for (int iter = 0; iter < max_iters; ++iter) {
    // E-step.
    double ll = 0.0;
    for (size_t i = 0; i < values.size(); ++i) {
      double pl = low_.weight * GaussianPdf(values[i], low_.mean, low_.var);
      double ph = high_.weight * GaussianPdf(values[i], high_.mean, high_.var);
      double total = pl + ph;
      resp[i] = total > 0 ? pl / total : 0.5;
      ll += std::log(std::max(total, 1e-300));
    }
    // M-step.
    double nl = 0.0, nh = 0.0, ml = 0.0, mh = 0.0;
    for (size_t i = 0; i < values.size(); ++i) {
      nl += resp[i];
      nh += 1.0 - resp[i];
      ml += resp[i] * values[i];
      mh += (1.0 - resp[i]) * values[i];
    }
    if (nl > 1e-9) low_.mean = ml / nl;
    if (nh > 1e-9) high_.mean = mh / nh;
    double vl = 0.0, vh = 0.0;
    for (size_t i = 0; i < values.size(); ++i) {
      double dl = values[i] - low_.mean;
      double dh = values[i] - high_.mean;
      vl += resp[i] * dl * dl;
      vh += (1.0 - resp[i]) * dh * dh;
    }
    low_.var = nl > 1e-9 ? std::max(vl / nl, 1e-8) : 1e-8;
    high_.var = nh > 1e-9 ? std::max(vh / nh, 1e-8) : 1e-8;
    low_.weight = nl / values.size();
    high_.weight = nh / values.size();

    if (std::abs(ll - prev_ll) < tol) break;
    prev_ll = ll;
  }
  // Keep the invariant: low_ is the low-mean component.
  if (low_.mean > high_.mean) std::swap(low_, high_);
}

double GaussianMixture1D::LowComponentPosterior(double value) const {
  double pl = low_.weight * GaussianPdf(value, low_.mean, low_.var);
  double ph = high_.weight * GaussianPdf(value, high_.mean, high_.var);
  double total = pl + ph;
  return total > 0 ? pl / total : 0.5;
}

}  // namespace clfd
