// Quickstart: train CLFD end-to-end on a small simulated CERT insider-
// threat workload with noisy labels and evaluate on held-out sessions.
//
//   build/examples/quickstart
//
// Walks through the full public API: dataset simulation, label-noise
// injection, word2vec activity embeddings, ClfdModel training, and the
// standard detection metrics.

#include <cstdio>

#include "common/rng.h"
#include "core/clfd.h"
#include "data/noise.h"
#include "data/simulators.h"
#include "embedding/word2vec.h"
#include "metrics/metrics.h"

int main() {
  using namespace clfd;

  // 1) Simulate a CERT-like insider-threat dataset (scaled down from the
  //    paper's 10000/30 train split so the example runs in seconds).
  Rng rng(/*seed=*/42);
  SplitSpec split{400, 16, 200, 16};
  SimulatedData data = MakeCertDataset(split, &rng);
  std::printf("train: %d sessions (%d malicious), test: %d sessions (%d "
              "malicious), vocab %d activities\n",
              data.train.size(), data.train.CountTrue(kMalicious),
              data.test.size(), data.test.CountTrue(kMalicious),
              data.train.vocab_size());

  // 2) Corrupt the training labels: uniform noise at eta = 0.3 (the test
  //    labels stay clean — they are only used for evaluation).
  NoiseSpec::Uniform(0.3).Apply(&data.train, &rng);
  std::printf("injected label noise: %.1f%% of training labels flipped\n",
              100.0 * ObservedNoiseRate(data.train));

  // 3) Train word2vec activity embeddings on the training sessions (the
  //    frozen raw representations x_it of the paper).
  Matrix embeddings = TrainActivityEmbeddings(data.train, /*dim=*/50, &rng);

  // 4) Train CLFD: label corrector (SimCLR + mixup-GCE classifier) then the
  //    fraud detector (weighted supervised contrastive encoder + FCNN).
  ClfdConfig config;                       // paper defaults
  config.budget = TrainingBudget::Fast();  // quick demo budget
  config.batch_size = 64;
  ClfdModel model(config, /*seed=*/7);
  std::printf("training CLFD (%d contrastive epochs, %d classifier epochs)"
              "...\n",
              config.budget.contrastive_epochs,
              config.budget.classifier_epochs);
  model.Train(data.train, embeddings);

  // 5) How well did the label corrector clean the training labels?
  auto corrections = model.CorrectLabels(data.train);
  int fixed = 0, total_noisy = 0;
  for (int i = 0; i < data.train.size(); ++i) {
    const auto& s = data.train.sessions[i];
    if (s.noisy_label != s.true_label) {
      ++total_noisy;
      if (corrections[i].label == s.true_label) ++fixed;
    }
  }
  std::printf("label corrector repaired %d / %d corrupted labels\n", fixed,
              total_noisy);

  // 6) Detect malicious sessions in the clean test split.
  std::vector<double> scores = model.Score(data.test);
  std::vector<int> preds = model.Predict(scores);
  std::vector<int> truths = TrueLabels(data.test);
  ConfusionCounts counts = Confusion(preds, truths);
  std::printf("\ntest results:\n");
  std::printf("  F1      = %.2f\n", F1Score(counts));
  std::printf("  FPR     = %.2f\n", FalsePositiveRate(counts));
  std::printf("  AUC-ROC = %.2f\n", AucRoc(scores, truths));
  std::printf("  confusion: tp=%d fp=%d tn=%d fn=%d\n", counts.tp, counts.fp,
              counts.tn, counts.fn);
  return 0;
}
