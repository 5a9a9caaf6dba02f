// Regenerates Table I: CLFD vs. eight baselines under uniform label noise
// eta in {0.1, 0.2, 0.3, 0.45} on the three simulated datasets, reporting
// F1 / FPR / AUC-ROC as mean±std over seeds.
//
// Scale knobs (environment): CLFD_SCALE (fraction of the paper's split
// sizes), CLFD_SEEDS, CLFD_EPOCH_SCALE. All runs form one sweep that keeps
// every core busy; CLFD_SCALE=1 CLFD_SEEDS=5 CLFD_EPOCH_SCALE=1 reproduces
// the paper's exact protocol.

#include <cstdio>

#include "baselines/registry.h"
#include "bench/bench_util.h"

namespace clfd {
namespace {

void RunTable1(const BenchScale& scale) {
  bench::SweepTables tables;
  for (DatasetKind kind : bench::AllDatasets()) {
    ScaledSetup setup = MakeScaledSetup(kind, scale);
    char title[96];
    std::snprintf(title, sizeof(title), "--- %s (train %d/%d, test %d/%d) ---",
                  DatasetName(kind).c_str(), setup.split.train_normal,
                  setup.split.train_malicious, setup.split.test_normal,
                  setup.split.test_malicious);
    tables.Table(title, {"Model", "eta"});
    for (const std::string& model : AllModelNames()) {
      for (double eta : {0.1, 0.2, 0.3, 0.45}) {  // Sec. IV-B1
        const std::string eta_text = bench::Fixed(eta, 2);
        tables.Row({model, eta_text},
                   {DatasetName(kind) + " " + model + " eta=" + eta_text,
                    model, setup.config, kind, setup.split,
                    NoiseSpec::Uniform(eta)});
      }
    }
  }
  tables.Print(scale.seeds);
}

}  // namespace
}  // namespace clfd

int main() {
  return clfd::bench::Main("bench_table1_uniform_noise",
                           "Table I: uniform label noise", clfd::RunTable1);
}
