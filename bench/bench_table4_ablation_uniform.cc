// Regenerates Table IV: ablation analysis of CLFD at uniform noise
// eta = 0.45 — removing the label corrector, the mixup GCE loss, the GCE
// loss entirely, the fraud detector, the confidence weighting of L_Sup,
// and the FCNN classifier (centroid inference instead).

#include "bench/bench_util.h"

int main() {
  return clfd::bench::Main(
      "bench_table4_ablation_uniform",
      "Table IV: ablations at uniform eta = 0.45",
      [](const clfd::BenchScale& scale) {
        clfd::bench::PrintAblationTables(scale, clfd::NoiseSpec::Uniform(0.45));
      });
}
