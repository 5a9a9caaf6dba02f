// Regenerates Table III: TPR/TNR of the CLFD label corrector on the noisy
// training set at eta = 0.45 (uniform) and eta10 = 0.3 / eta01 = 0.45
// (class-dependent), compared against the raw noisy labels.

#include <cstdio>

#include "bench/bench_util.h"

namespace clfd {
namespace {

void RunTable3(const BenchScale& scale) {
  bench::SweepTables tables;
  tables.Table("", {"Dataset", "Noise"});
  for (DatasetKind kind : bench::AllDatasets()) {
    ScaledSetup setup = MakeScaledSetup(kind, scale);
    for (const auto& [label, noise] :
         std::vector<std::pair<std::string, NoiseSpec>>{
             {"eta=0.45", NoiseSpec::Uniform(0.45)},
             {"eta10=0.3,eta01=0.45", bench::ClassDependentSetting()}}) {
      tables.Row({DatasetName(kind), label},
                 {DatasetName(kind) + " " + label, kLabelCorrector,
                  setup.config, kind, setup.split, noise});
    }
  }
  tables.Print(scale.seeds);
  std::printf(
      "(raw noisy labels at eta=0.45 would give TPR=TNR=55; the corrector "
      "must land well above that to reduce the dataset noise.)\n");
}

}  // namespace
}  // namespace clfd

int main() {
  return clfd::bench::Main("bench_table3_label_corrector",
                           "Table III: label corrector TPR/TNR on T-tilde",
                           clfd::RunTable3);
}
