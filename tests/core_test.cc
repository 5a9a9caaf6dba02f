#include <gtest/gtest.h>

#include "core/clfd.h"
#include "core/classifier_trainer.h"
#include "data/noise.h"
#include "data/simulators.h"
#include "embedding/word2vec.h"
#include "metrics/metrics.h"

namespace clfd {
namespace {

// Shared tiny experiment fixture: a scaled-down CERT simulation with
// uniform label noise, word2vec embeddings, and a Fast() CLFD config with
// small dimensions so the full pipeline runs in seconds.
struct TinyExperiment {
  SimulatedData data;
  Matrix embeddings;
  ClfdConfig config;

  explicit TinyExperiment(double noise_eta, uint64_t seed = 7,
                          DatasetKind kind = DatasetKind::kCert) {
    Rng rng(seed);
    SplitSpec split{300, 16, 120, 16};
    data = MakeDataset(kind, split, &rng);
    NoiseSpec::Uniform(noise_eta).Apply(&data.train, &rng);
    config = ClfdConfig::Fast();
    config.emb_dim = 24;
    config.hidden_dim = 24;
    config.batch_size = 50;
    config.aux_batch_size = 10;
    embeddings = TrainActivityEmbeddings(data.train, config.emb_dim, &rng);
  }
};

TEST(ClassifierTrainerTest, LearnsFromCleanFeatures) {
  Rng rng(1);
  // Synthetic separable features.
  int n = 120;
  Matrix features(n, 4);
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) {
    labels[i] = i % 3 == 0 ? 1 : 0;  // imbalanced
    for (int d = 0; d < 4; ++d) {
      features.at(i, d) = static_cast<float>(
          rng.Gaussian(labels[i] == 1 ? 1.5 : -1.5, 1.0));
    }
  }
  ClfdConfig config = ClfdConfig::Fast();
  config.batch_size = 32;
  nn::FeedForwardClassifier clf(4, 8, 2, &rng);
  TrainClassifierOnFeatures(&clf, features, labels, config, &rng);
  Matrix probs = clf.PredictProbs(features);
  int correct = 0;
  for (int i = 0; i < n; ++i) {
    int pred = probs.at(i, 1) > 0.5f ? 1 : 0;
    correct += (pred == labels[i]);
  }
  EXPECT_GT(correct, n * 85 / 100);
}

TEST(ClassifierTrainerTest, MixupGceLearnsCleanBoundary) {
  // Mixup with beta = 16 concentrates lambda near 0.5, so supervision is
  // deliberately soft; on clean, well-separated features the trainer must
  // still recover the boundary (the ranking signal survives even though
  // predicted probabilities stay close to 0.5).
  Rng rng(2);
  int n = 160;
  Matrix features(n, 4);
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) {
    labels[i] = i % 2;
    for (int d = 0; d < 4; ++d) {
      features.at(i, d) =
          static_cast<float>(rng.Gaussian(labels[i] == 1 ? 2.0 : -2.0, 1.0));
    }
  }
  ClfdConfig config = ClfdConfig::Fast();
  config.batch_size = 40;
  config.budget.classifier_epochs = 150;
  nn::FeedForwardClassifier clf(4, 8, 2, &rng);
  TrainClassifierOnFeatures(&clf, features, labels, config, &rng);
  Matrix probs = clf.PredictProbs(features);
  int correct = 0;
  for (int i = 0; i < n; ++i) {
    correct += ((probs.at(i, 1) > 0.5f ? 1 : 0) == labels[i]);
  }
  EXPECT_GT(correct, n * 85 / 100);
}

TEST(ClassifierTrainerTest, MixupGceBeatsChanceUnderHeavyNoise) {
  // At 35% flipped labels the mixup-GCE boundary must stay well above
  // chance (exact recovery is scale-dependent; the full-pipeline benches
  // measure the Table IV ordering).
  Rng rng(2);
  int n = 160;
  Matrix features(n, 4);
  std::vector<int> clean(n), noisy(n);
  for (int i = 0; i < n; ++i) {
    clean[i] = i % 2;
    noisy[i] = rng.Bernoulli(0.35) ? 1 - clean[i] : clean[i];
    for (int d = 0; d < 4; ++d) {
      features.at(i, d) =
          static_cast<float>(rng.Gaussian(clean[i] == 1 ? 2.0 : -2.0, 1.0));
    }
  }
  ClfdConfig config = ClfdConfig::Fast();
  config.batch_size = 40;
  config.budget.classifier_epochs = 150;
  nn::FeedForwardClassifier clf(4, 8, 2, &rng);
  TrainClassifierOnFeatures(&clf, features, noisy, config, &rng);
  Matrix probs = clf.PredictProbs(features);
  int correct = 0;
  for (int i = 0; i < n; ++i) {
    correct += ((probs.at(i, 1) > 0.5f ? 1 : 0) == clean[i]);
  }
  EXPECT_GT(correct, n * 60 / 100);
}

TEST(LabelCorrectorTest, ReducesNoiseOnTinyCert) {
  TinyExperiment exp(/*noise_eta=*/0.3);
  LabelCorrector corrector(exp.config, 11);
  corrector.Train(exp.data.train, exp.embeddings);
  auto corrections = corrector.Correct(exp.data.train);

  int corrected_agree = 0, noisy_agree = 0;
  for (int i = 0; i < exp.data.train.size(); ++i) {
    const auto& s = exp.data.train.sessions[i];
    corrected_agree += (corrections[i].label == s.true_label);
    noisy_agree += (s.noisy_label == s.true_label);
  }
  // The corrector must beat the raw noisy labels on ground-truth agreement.
  EXPECT_GT(corrected_agree, noisy_agree);
  for (const auto& c : corrections) {
    EXPECT_GE(c.confidence, 0.5);
    EXPECT_LE(c.confidence, 1.0);
  }
}

TEST(ClfdEndToEndTest, SeparatesClassesUnderUniformNoise) {
  TinyExperiment exp(/*noise_eta=*/0.2);
  ClfdModel model(exp.config, 13);
  model.Train(exp.data.train, exp.embeddings);
  auto scores = model.Score(exp.data.test);
  double auc = AucRoc(scores, TrueLabels(exp.data.test));
  // Tiny-scale smoke bound; the benchmark harness measures real quality.
  EXPECT_GT(auc, 60.0);
  auto preds = model.Predict(scores);
  EXPECT_EQ(preds.size(), static_cast<size_t>(exp.data.test.size()));
}

TEST(ClfdEndToEndTest, AblationsRunAndScore) {
  TinyExperiment exp(/*noise_eta=*/0.3);
  auto run = [&](ClfdConfig config) {
    ClfdModel model(config, 17);
    model.Train(exp.data.train, exp.embeddings);
    auto scores = model.Score(exp.data.test);
    EXPECT_EQ(scores.size(), static_cast<size_t>(exp.data.test.size()));
    for (double s : scores) {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
    return AucRoc(scores, TrueLabels(exp.data.test));
  };

  ClfdConfig base = exp.config;

  ClfdConfig no_lc = base;
  no_lc.use_label_corrector = false;
  run(no_lc);

  ClfdConfig vanilla_gce = base;
  vanilla_gce.classifier_loss = ClassifierLoss::kVanillaGce;
  run(vanilla_gce);

  ClfdConfig cce = base;
  cce.classifier_loss = ClassifierLoss::kCce;
  run(cce);

  ClfdConfig no_fd = base;
  no_fd.use_fraud_detector = false;
  run(no_fd);

  ClfdConfig unweighted = base;
  unweighted.supcon_variant = SupConVariant::kUnweighted;
  run(unweighted);

  ClfdConfig filtered = base;
  filtered.supcon_variant = SupConVariant::kFiltered;
  run(filtered);

  ClfdConfig centroid = base;
  centroid.use_classifier = false;
  run(centroid);
}

TEST(ClfdEndToEndTest, DeterministicForSeed) {
  TinyExperiment exp(/*noise_eta=*/0.2);
  ClfdModel a(exp.config, 23), b(exp.config, 23);
  a.Train(exp.data.train, exp.embeddings);
  b.Train(exp.data.train, exp.embeddings);
  auto sa = a.Score(exp.data.test), sb = b.Score(exp.data.test);
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa[i], sb[i]);
  }
}

TEST(DetectorInterfaceTest, PredictThresholdsScoresAtThreshold) {
  struct FakeModel : DetectorModel {
    void Train(const SessionDataset&, const Matrix&) override {}
    std::vector<double> Score(const SessionDataset& d) const override {
      return std::vector<double>(d.size(), 0.0);
    }
  };
  struct CalibratedModel : FakeModel {
    double threshold() const override { return 0.7; }
  };
  const std::vector<double> scores = {0.9, 0.1, 0.5, 0.6};
  EXPECT_EQ(FakeModel().Predict(scores), (std::vector<int>{1, 0, 0, 1}));
  EXPECT_EQ(CalibratedModel().Predict(scores),
            (std::vector<int>{1, 0, 0, 0}));
}

}  // namespace
}  // namespace clfd
