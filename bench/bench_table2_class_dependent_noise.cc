// Regenerates Table II: CLFD vs. the eight baselines under class-dependent
// label noise (eta10 = 0.3, eta01 = 0.45) on the three simulated datasets.

#include "baselines/registry.h"
#include "bench/bench_util.h"

namespace clfd {
namespace {

void RunTable2(const BenchScale& scale) {
  bench::SweepTables tables;
  for (DatasetKind kind : bench::AllDatasets()) {
    ScaledSetup setup = MakeScaledSetup(kind, scale);
    tables.Table("--- " + DatasetName(kind) + " ---", {"Model"});
    for (const std::string& model : AllModelNames()) {
      tables.Row({model}, {DatasetName(kind) + " " + model, model,
                           setup.config, kind, setup.split,
                           bench::ClassDependentSetting()});
    }
  }
  tables.Print(scale.seeds);
}

}  // namespace
}  // namespace clfd

int main() {
  return clfd::bench::Main(
      "bench_table2_class_dependent_noise",
      "Table II: class-dependent noise (eta10=0.3, eta01=0.45)",
      clfd::RunTable2);
}
