#pragma once

#include <string>

#include "common/rng.h"
#include "data/session.h"

namespace clfd {

// Label-noise injection following the paper's protocol (Sec. IV-A2).
//
// Uniform noise: every session's ground-truth label is flipped independently
// with probability eta [13]. Class-dependent noise: malicious labels flip
// with probability eta10 = P(noisy=0 | true=1) and normal labels with
// eta01 = P(noisy=1 | true=0) [52]. Both write `noisy_label`; `true_label`
// is never modified.

void ApplyUniformNoise(SessionDataset* dataset, double eta, Rng* rng);

void ApplyClassDependentNoise(SessionDataset* dataset, double eta10,
                              double eta01, Rng* rng);

// Fraction of sessions whose noisy label disagrees with the ground truth.
double ObservedNoiseRate(const SessionDataset& dataset);

// Specification of a noise setting, used by the experiment harness.
struct NoiseSpec {
  enum class Kind { kNone, kUniform, kClassDependent };
  Kind kind = Kind::kNone;
  double eta = 0.0;     // uniform rate
  double eta10 = 0.0;   // P(flip | malicious)
  double eta01 = 0.0;   // P(flip | normal)

  static NoiseSpec None() { return {}; }
  static NoiseSpec Uniform(double eta) {
    NoiseSpec s;
    s.kind = Kind::kUniform;
    s.eta = eta;
    return s;
  }
  static NoiseSpec ClassDependent(double eta10, double eta01) {
    NoiseSpec s;
    s.kind = Kind::kClassDependent;
    s.eta10 = eta10;
    s.eta01 = eta01;
    return s;
  }

  // Parses "none", "uniform:ETA" or "classdep:E10,E01" (the clfd_cli
  // --noise syntax). Throws std::invalid_argument on malformed text or on
  // rates Apply would reject.
  static NoiseSpec Parse(const std::string& spec);

  // Injects the noise. Throws std::invalid_argument, leaving the dataset
  // untouched, unless eta is in [0, 0.5), eta10 and eta01 are in [0, 1] and
  // eta10 + eta01 < 1. From eta = 0.5 (or eta10 + eta01 = 1) on, a flipped
  // labeling cannot be told from its inverse, so the labels would carry no
  // usable signal.
  void Apply(SessionDataset* dataset, Rng* rng) const;
  std::string ToString() const;
};

}  // namespace clfd

