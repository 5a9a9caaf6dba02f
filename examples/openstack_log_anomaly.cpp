// OpenStack log anomaly detection: CLFD vs. unsupervised log models.
//
//   build/examples/openstack_log_anomaly
//
// Cloud-operations scenario: sessions are OpenStack log-key sequences and
// the "labels" come from an unreliable incident-ticket system (uniform
// noise). Compares CLFD against the two log-anomaly baselines the paper
// evaluates (DeepLog, LogBert), which ignore labels at training time but
// are polluted by mislabeled malicious sessions in their "normal" training
// pool.

#include <cstdio>

#include "baselines/deeplog.h"
#include "baselines/logbert.h"
#include "common/rng.h"
#include "core/clfd.h"
#include "data/noise.h"
#include "data/simulators.h"
#include "embedding/word2vec.h"
#include "metrics/metrics.h"

namespace {

using namespace clfd;

// Scores the test split once; the labels and the AUC read the same scores.
void Report(const char* name, const DetectorModel& model,
            const SessionDataset& test, const std::vector<int>& truths) {
  std::vector<double> scores = model.Score(test);
  ConfusionCounts counts = Confusion(model.Predict(scores), truths);
  std::printf("  %-8s F1 %6.2f   FPR %6.2f   AUC %6.2f\n", name,
              F1Score(counts), FalsePositiveRate(counts),
              AucRoc(scores, truths));
}

}  // namespace

int main() {
  Rng rng(31);
  SplitSpec split{500, 24, 250, 30};
  SimulatedData data = MakeOpenStackDataset(split, &rng);
  ApplyUniformNoise(&data.train, 0.3, &rng);
  std::printf("OpenStack sessions: %d train (%.1f%% noisy labels), %d test\n\n",
              data.train.size(), 100.0 * ObservedNoiseRate(data.train),
              data.test.size());

  Matrix embeddings = TrainActivityEmbeddings(data.train, 50, &rng);
  std::vector<int> truths = TrueLabels(data.test);

  BaselineConfig base;
  base.budget = TrainingBudget::Fast();
  base.batch_size = 64;

  std::printf("detection quality at uniform eta = 0.3:\n");

  DeepLogModel deeplog(base, 3);
  deeplog.Train(data.train, embeddings);
  Report("DeepLog", deeplog, data.test, truths);
  std::printf("           (calibrated threshold: %.3f)\n",
              deeplog.threshold());

  LogBertModel logbert(base, 3);
  logbert.Train(data.train, embeddings);
  Report("LogBert", logbert, data.test, truths);

  ClfdConfig config;
  config.budget = TrainingBudget::Fast();
  config.batch_size = 64;
  ClfdModel clfd(config, 3);
  clfd.Train(data.train, embeddings);
  Report("CLFD", clfd, data.test, truths);

  // Show the failure mode the paper describes: DeepLog/LogBert learn their
  // language model on the noisy-"normal" pool, which at eta = 0.3 contains
  // mislabeled anomalous traces, flattening the anomaly signal.
  int polluted = 0, pool = 0;
  for (const auto& ls : data.train.sessions) {
    if (ls.noisy_label == kNormal) {
      ++pool;
      polluted += (ls.true_label == kMalicious);
    }
  }
  std::printf("\nunsupervised training pool: %d sessions, %d of them are "
              "mislabeled anomalies (%.1f%%)\n",
              pool, polluted, 100.0 * polluted / pool);
  return 0;
}
