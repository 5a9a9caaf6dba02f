// Extensions demo: noise-rate estimation and co-teaching CLFD.
//
//   build/examples/noise_rate_estimation
//
// Implements the paper's future-work directions: (a) estimating the unknown
// label-noise rates (uniform eta and class-dependent eta10/eta01) from the
// trained label corrector's disagreement with the given labels, including a
// per-session flip probability, and (b) the co-teaching variant where two
// independently initialized correctors fuse their corrections before the
// fraud detector trains.

#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "core/clfd.h"
#include "core/co_teaching.h"
#include "core/noise_estimator.h"
#include "data/noise.h"
#include "data/simulators.h"
#include "embedding/word2vec.h"
#include "metrics/metrics.h"

int main() {
  using namespace clfd;
  Rng rng(17);
  SplitSpec split{400, 16, 200, 16};
  SimulatedData data = MakeCertDataset(split, &rng);

  // The deployment does not know the real noise rates; we do (for scoring
  // the estimate): class-dependent eta10 = 0.3, eta01 = 0.2.
  ApplyClassDependentNoise(&data.train, 0.3, 0.2, &rng);
  double real_eta = ObservedNoiseRate(data.train);

  Matrix embeddings = TrainActivityEmbeddings(data.train, 50, &rng);

  ClfdConfig config;
  config.budget = TrainingBudget::Fast();
  config.batch_size = 64;

  // (a) Noise-rate estimation from a single trained corrector.
  ClfdModel model(config, 3);
  model.Train(data.train, embeddings);
  auto corrections = model.CorrectLabels(data.train);
  NoiseEstimate estimate = EstimateNoise(data.train, corrections);
  std::printf("noise-rate estimation:\n");
  std::printf("  true flip fraction     : %.3f\n", real_eta);
  std::printf("  estimated eta          : %.3f\n", estimate.eta);
  std::printf("  estimated eta10 / eta01: %.3f / %.3f (injected 0.30 / "
              "0.20)\n",
              estimate.eta10, estimate.eta01);

  // Per-session flip probabilities rank actually-flipped sessions first.
  std::vector<int> order(data.train.size());
  for (int i = 0; i < data.train.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return estimate.session_flip_probability[a] >
           estimate.session_flip_probability[b];
  });
  int k = data.train.size() / 10;
  int flipped_in_top = 0, flipped_total = 0;
  for (const auto& ls : data.train.sessions) {
    flipped_total += (ls.noisy_label != ls.true_label);
  }
  for (int r = 0; r < k; ++r) {
    const auto& ls = data.train.sessions[order[r]];
    flipped_in_top += (ls.noisy_label != ls.true_label);
  }
  std::printf("  top-10%% flip-probability sessions: %d / %d are truly "
              "flipped (base rate %.1f%%)\n\n",
              flipped_in_top, k, 100.0 * flipped_total / data.train.size());

  // (b) Co-teaching CLFD vs. single-corrector CLFD.
  std::vector<int> truths = TrueLabels(data.test);
  {
    auto scores = model.Score(data.test);
    ConfusionCounts c = Confusion(model.Predict(scores), truths);
    std::printf("CLFD          : F1 %.1f, FPR %.1f, AUC %.1f\n", F1Score(c),
                FalsePositiveRate(c), AucRoc(scores, truths));
  }
  {
    CoTeachingClfdModel co_model(config, 3);
    co_model.Train(data.train, embeddings);
    auto scores = co_model.Score(data.test);
    ConfusionCounts c = Confusion(co_model.Predict(scores), truths);
    std::printf("CLFD-CoTeach  : F1 %.1f, FPR %.1f, AUC %.1f\n", F1Score(c),
                FalsePositiveRate(c), AucRoc(scores, truths));
    // How many corrections the fusion changed vs. corrector A alone.
    int agree = 0;
    for (size_t i = 0; i < corrections.size(); ++i) {
      agree += (co_model.consensus()[i].label == corrections[i].label);
    }
    std::printf("  consensus agrees with single corrector on %d / %zu "
                "sessions\n",
                agree, corrections.size());
  }
  return 0;
}
