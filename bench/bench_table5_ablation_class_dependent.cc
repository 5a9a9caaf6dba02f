// Regenerates Table V: the same ablation matrix as Table IV under
// class-dependent noise (eta10 = 0.3, eta01 = 0.45).

#include "bench/bench_util.h"

int main() {
  return clfd::bench::Main(
      "bench_table5_ablation_class_dependent",
      "Table V: ablations at class-dependent eta10=0.3, eta01=0.45",
      [](const clfd::BenchScale& scale) {
        clfd::bench::PrintAblationTables(scale,
                                         clfd::bench::ClassDependentSetting());
      });
}
