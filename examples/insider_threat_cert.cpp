// Insider-threat detection scenario (CERT-style) with heuristic labels.
//
//   build/examples/insider_threat_cert
//
// Motivating scenario from the paper's introduction: an organization cannot
// afford expert annotation, so sessions are auto-labeled by a security
// heuristic ("night logon + USB activity = malicious"). The heuristic is
// systematically wrong in both directions — it misses daytime leakers and
// flags night-shift sysadmins — producing *structured* (not synthetic
// uniform) label noise. The example compares training on the heuristic
// labels with cross entropy (CLDet) vs. CLFD's label-corrected pipeline,
// and prints per-scenario detection breakdowns.

#include <cstdio>
#include <map>
#include <string>

#include "baselines/cldet.h"
#include "common/rng.h"
#include "core/clfd.h"
#include "data/simulators.h"
#include "embedding/word2vec.h"
#include "metrics/metrics.h"

namespace {

using namespace clfd;

// A security-rule heuristic annotator: looks only for the "after-hours
// logon followed by removable media" pattern.
int HeuristicLabel(const Session& session,
                   const std::vector<std::string>& vocab) {
  bool night_logon = false, usb = false, leak_site = false;
  for (int a : session.activities) {
    const std::string& name = vocab[a];
    night_logon = night_logon || name == "logon_night";
    usb = usb || name == "usb_insert";
    leak_site = leak_site || name == "http_leak";
  }
  return (night_logon && usb) || leak_site ? kMalicious : kNormal;
}

void ReportPerScenario(const SessionDataset& test,
                       const std::vector<int>& preds, const char* model) {
  // Profile ids: normal {0..3}, malicious {0: exfil, 1: disgruntled,
  // 2: saboteur} — as documented by the CERT simulator.
  const char* scenario[] = {"exfiltration", "disgruntled_leaker", "saboteur"};
  std::map<int, std::pair<int, int>> hits;  // profile -> (caught, total)
  for (int i = 0; i < test.size(); ++i) {
    if (test.sessions[i].true_label != kMalicious) continue;
    auto& [caught, total] = hits[test.sessions[i].session.profile];
    ++total;
    caught += (preds[i] == kMalicious);
  }
  std::printf("  %s per-scenario recall:\n", model);
  for (const auto& [profile, counts] : hits) {
    std::printf("    %-20s %d / %d\n",
                profile >= 0 && profile < 3 ? scenario[profile] : "?",
                counts.first, counts.second);
  }
}

}  // namespace

int main() {
  Rng rng(11);
  SplitSpec split{500, 20, 250, 20};
  SimulatedData data = MakeCertDataset(split, &rng);

  // Heuristic (rule-based) annotation instead of ground truth.
  int wrong = 0;
  for (auto& ls : data.train.sessions) {
    ls.noisy_label = HeuristicLabel(ls.session, data.train.vocab);
    wrong += (ls.noisy_label != ls.true_label);
  }
  std::printf("heuristic annotator mislabels %d / %d training sessions "
              "(%.1f%%)\n\n",
              wrong, data.train.size(), 100.0 * wrong / data.train.size());

  Matrix embeddings = TrainActivityEmbeddings(data.train, 50, &rng);
  std::vector<int> truths = TrueLabels(data.test);

  // CLDet: no noise-robust mechanism (cross-entropy on heuristic labels).
  BaselineConfig base_config;
  base_config.budget = TrainingBudget::Fast();
  base_config.batch_size = 64;
  CldetModel cldet(base_config, 3);
  cldet.Train(data.train, embeddings);
  auto cldet_scores = cldet.Score(data.test);
  auto cldet_preds = cldet.Predict(cldet_scores);
  ConfusionCounts cc = Confusion(cldet_preds, truths);
  std::printf("CLDet  (CE on heuristic labels): F1 %.1f, FPR %.1f, AUC %.1f\n",
              F1Score(cc), FalsePositiveRate(cc),
              AucRoc(cldet_scores, truths));
  ReportPerScenario(data.test, cldet_preds, "CLDet");

  // CLFD: corrects the heuristic labels before supervised training.
  ClfdConfig config;
  config.budget = TrainingBudget::Fast();
  config.batch_size = 64;
  ClfdModel clfd(config, 3);
  clfd.Train(data.train, embeddings);
  auto clfd_scores = clfd.Score(data.test);
  auto clfd_preds = clfd.Predict(clfd_scores);
  ConfusionCounts fc = Confusion(clfd_preds, truths);
  std::printf("\nCLFD   (label-corrected):        F1 %.1f, FPR %.1f, AUC %.1f\n",
              F1Score(fc), FalsePositiveRate(fc),
              AucRoc(clfd_scores, truths));
  ReportPerScenario(data.test, clfd_preds, "CLFD");

  // How much of the heuristic's damage did the corrector undo?
  auto corrections = clfd.CorrectLabels(data.train);
  int still_wrong = 0;
  for (int i = 0; i < data.train.size(); ++i) {
    still_wrong +=
        (corrections[i].label != data.train.sessions[i].true_label);
  }
  std::printf("\nlabel quality: heuristic wrong on %d sessions, corrector "
              "wrong on %d\n",
              wrong, still_wrong);
  return 0;
}
