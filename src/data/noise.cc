#include "data/noise.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace clfd {

namespace {

void CheckRates(const NoiseSpec& spec) {
  const auto fail = [&](const char* why) {
    throw std::invalid_argument(spec.ToString() + ": " + why);
  };
  switch (spec.kind) {
    case NoiseSpec::Kind::kNone:
      break;
    case NoiseSpec::Kind::kUniform:
      if (!(spec.eta >= 0.0 && spec.eta < 0.5)) fail("eta must be in [0, 0.5)");
      break;
    case NoiseSpec::Kind::kClassDependent:
      if (!(spec.eta10 >= 0.0 && spec.eta10 <= 1.0 && spec.eta01 >= 0.0 &&
            spec.eta01 <= 1.0)) {
        fail("eta10 and eta01 must be in [0, 1]");
      }
      if (!(spec.eta10 + spec.eta01 < 1.0)) fail("eta10 + eta01 must be < 1");
      break;
  }
}

// The whole of `text` as a number.
double ParseRate(const std::string& text, const std::string& spec) {
  char* end = nullptr;
  const double rate = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) {
    throw std::invalid_argument("'" + spec + "': '" + text +
                                "' is not a number");
  }
  return rate;
}

}  // namespace

void ApplyUniformNoise(SessionDataset* dataset, double eta, Rng* rng) {
  for (auto& s : dataset->sessions) {
    s.noisy_label =
        rng->Bernoulli(eta) ? 1 - s.true_label : s.true_label;
  }
}

void ApplyClassDependentNoise(SessionDataset* dataset, double eta10,
                              double eta01, Rng* rng) {
  for (auto& s : dataset->sessions) {
    double flip = s.true_label == kMalicious ? eta10 : eta01;
    s.noisy_label =
        rng->Bernoulli(flip) ? 1 - s.true_label : s.true_label;
  }
}

double ObservedNoiseRate(const SessionDataset& dataset) {
  if (dataset.size() == 0) return 0.0;
  int flipped = 0;
  for (const auto& s : dataset.sessions) {
    flipped += (s.noisy_label != s.true_label);
  }
  return static_cast<double>(flipped) / dataset.size();
}

NoiseSpec NoiseSpec::Parse(const std::string& spec) {
  NoiseSpec parsed;
  if (spec.rfind("uniform:", 0) == 0) {
    parsed = Uniform(ParseRate(spec.substr(8), spec));
  } else if (spec.rfind("classdep:", 0) == 0) {
    const std::string rest = spec.substr(9);
    const size_t comma = rest.find(',');
    if (comma == std::string::npos) {
      throw std::invalid_argument("'" + spec + "': expected classdep:E10,E01");
    }
    parsed = ClassDependent(ParseRate(rest.substr(0, comma), spec),
                            ParseRate(rest.substr(comma + 1), spec));
  } else if (spec != "none") {
    throw std::invalid_argument(
        "'" + spec + "': expected none, uniform:ETA or classdep:E10,E01");
  }
  CheckRates(parsed);
  return parsed;
}

void NoiseSpec::Apply(SessionDataset* dataset, Rng* rng) const {
  CheckRates(*this);
  switch (kind) {
    case Kind::kNone:
      for (auto& s : dataset->sessions) s.noisy_label = s.true_label;
      break;
    case Kind::kUniform:
      ApplyUniformNoise(dataset, eta, rng);
      break;
    case Kind::kClassDependent:
      ApplyClassDependentNoise(dataset, eta10, eta01, rng);
      break;
  }
}

std::string NoiseSpec::ToString() const {
  char buf[64];
  switch (kind) {
    case Kind::kNone:
      return "clean";
    case Kind::kUniform:
      std::snprintf(buf, sizeof(buf), "uniform(eta=%.2f)", eta);
      return buf;
    case Kind::kClassDependent:
      std::snprintf(buf, sizeof(buf), "class-dep(eta10=%.2f,eta01=%.2f)",
                    eta10, eta01);
      return buf;
  }
  return "?";
}

}  // namespace clfd
