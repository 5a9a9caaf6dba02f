// Regenerates the training-latency analysis (Sec. IV-B3): wall-clock
// training time of every model at a fixed scale. The paper reports that
// CLFD, Sel-CL and CTRR (the supervised-contrastive models) cost roughly
// 4x the remaining baselines; the *ratios* are the reproducible shape.

#include <cstdio>

#include "baselines/registry.h"
#include "bench/bench_util.h"
#include "common/table.h"

namespace clfd {
namespace {

void RunLatency(const BenchScale& scale) {
  for (DatasetKind kind : bench::AllDatasets()) {
    ScaledSetup setup = MakeScaledSetup(kind, scale);
    std::printf("--- %s ---\n", DatasetName(kind).c_str());

    // Baseline for the ratio column: mean latency of the non-contrastive
    // models (DivMix, ULC, Few-Shot, DeepLog, LogBert).
    TextTable table({"Model", "train seconds", "vs. non-supcon mean"});
    std::vector<std::pair<std::string, double>> latencies;
    double non_supcon_sum = 0.0;
    int non_supcon_count = 0;
    for (const std::string& model : AllModelNames()) {
      // One sweep per model: the models never train side by side, so each
      // one's timing is its own.
      SweepCell cell{DatasetName(kind) + " " + model, model, setup.config,
                     kind, setup.split, NoiseSpec::Uniform(0.2)};
      double seconds =
          RunSweep({cell}, scale.seeds)[0].metrics.train_seconds.mean();
      latencies.emplace_back(model, seconds);
      if (model != "CLFD" && model != "Sel-CL" && model != "CTRR" &&
          model != "CLDet") {
        non_supcon_sum += seconds;
        ++non_supcon_count;
      }
    }
    double non_supcon_mean =
        non_supcon_count > 0 ? non_supcon_sum / non_supcon_count : 1.0;
    for (const auto& [model, seconds] : latencies) {
      char sec_buf[32], ratio_buf[32];
      std::snprintf(sec_buf, sizeof(sec_buf), "%.2f", seconds);
      std::snprintf(ratio_buf, sizeof(ratio_buf), "%.2fx",
                    seconds / non_supcon_mean);
      table.AddRow({model, sec_buf, ratio_buf});
    }
    std::printf("%s\n", table.Render().c_str());
  }
}

}  // namespace
}  // namespace clfd

int main() {
  return clfd::bench::Main("bench_latency", "Training latency (Sec. IV-B3)",
                           clfd::RunLatency, /*def_seeds=*/1);
}
