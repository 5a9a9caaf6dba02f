// Wikipedia vandal detection under class-dependent label noise.
//
//   build/examples/wiki_vandal_detection
//
// UMD-Wikipedia-style scenario: community reverts act as weak labels. A
// vandal who is never reverted stays labeled benign (missed positives,
// eta10), and good-faith editors who get reverted are labeled vandals
// (false positives, eta01) — the class-dependent noise setting of Table II.
// The example sweeps the corrector's confidence output and shows how the
// weighted supervised contrastive loss uses it.

#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "core/clfd.h"
#include "data/noise.h"
#include "data/simulators.h"
#include "embedding/word2vec.h"
#include "metrics/metrics.h"

int main() {
  using namespace clfd;
  Rng rng(23);
  SplitSpec split{450, 40, 250, 60};
  SimulatedData data = MakeWikiDataset(split, &rng);

  // Community-revert weak labels: the paper's class-dependent noise with
  // eta10 = 0.3 (30% of vandals never get reverted) and eta01 = 0.45.
  ApplyClassDependentNoise(&data.train, 0.3, 0.45, &rng);
  std::printf("weak labels: %.1f%% of training labels disagree with ground "
              "truth\n",
              100.0 * ObservedNoiseRate(data.train));

  Matrix embeddings = TrainActivityEmbeddings(data.train, 50, &rng);

  ClfdConfig config;
  config.budget = TrainingBudget::Fast();
  config.batch_size = 64;
  ClfdModel model(config, 5);
  model.Train(data.train, embeddings);

  // Confidence profile of the corrector: corrected labels that flip the
  // given label should be inspected first by a human moderator.
  auto corrections = model.CorrectLabels(data.train);
  struct Bucket {
    int flips = 0;
    int flips_right = 0;
  };
  Bucket low, high;
  for (int i = 0; i < data.train.size(); ++i) {
    const auto& s = data.train.sessions[i];
    if (corrections[i].label == s.noisy_label) continue;
    Bucket& b = corrections[i].confidence > 0.8 ? high : low;
    ++b.flips;
    b.flips_right += (corrections[i].label == s.true_label);
  }
  std::printf("\ncorrector label flips (vs. weak labels):\n");
  std::printf("  confidence > 0.8 : %3d flips, %3d correct\n", high.flips,
              high.flips_right);
  std::printf("  confidence <= 0.8: %3d flips, %3d correct\n", low.flips,
              low.flips_right);

  // Detection quality on held-out editors.
  std::vector<int> truths = TrueLabels(data.test);
  std::vector<double> scores = model.Score(data.test);
  ConfusionCounts counts = Confusion(model.Predict(scores), truths);
  std::printf("\nheld-out detection: F1 %.1f, FPR %.1f, AUC %.1f\n",
              F1Score(counts), FalsePositiveRate(counts),
              AucRoc(scores, truths));

  // Moderator triage view: top-scored sessions.
  std::vector<int> order(data.test.size());
  for (int i = 0; i < data.test.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return scores[a] > scores[b]; });
  int caught = 0;
  int k = std::min(20, data.test.size());
  for (int r = 0; r < k; ++r) {
    caught += (data.test.sessions[order[r]].true_label == kMalicious);
  }
  std::printf("triage: %d of the top-%d scored sessions are true vandals\n",
              caught, k);
  return 0;
}
