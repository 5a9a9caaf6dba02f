// clfd_cli — command-line front end to the CLFD library.
//
// Subcommands:
//   generate  Simulate a dataset, inject label noise, write text files.
//   run       Train a model on a dataset file and evaluate on another.
//   correct   Train the label corrector and report corrected labels and
//             estimated noise rates for a training file.
//
// Examples:
//   clfd_cli generate --dataset cert --scale 0.05 --noise uniform:0.3
//       --seed 1 --train train.txt --test test.txt
//   clfd_cli run --model CLFD --train train.txt --test test.txt --budget fast
//   clfd_cli correct --train train.txt --budget fast
//
// Observability flags (valid with every subcommand, --key=value syntax):
//   --trace=FILE        write a Chrome trace-event file (chrome://tracing)
//   --metrics-out=FILE  dump the metrics registry (JSON; .jsonl for lines)
//   --prof-out=FILE     write the hierarchical profile (timing JSON)
//   --prof-collapsed=FILE  flamegraph-compatible collapsed stacks
//   --prof-roofline=FILE|-  per-kernel roofline/attribution table
//   --log-level=LVL     debug|info|warn|error|off (default: CLFD_LOG_LEVEL)
//   --threads=N         parallel width (default: CLFD_THREADS env, else all
//                       hardware threads); results are identical for any N
//
// Fault-tolerance flags:
//   --checkpoint-dir=DIR      (run) checkpoint/resume training under DIR
//   --checkpoint-interval=N   (run) snapshot every N epochs (default 5)
//   --no-resume               (run) ignore checkpoints of earlier runs
//   --watchdog                (run) divergence watchdog with rollback/retry
//   --fault-plan=SPEC         deterministic fault injection, e.g.
//                             "run.epoch@3;ckpt.io@2" (see recovery/fault_plan.h)
//   --fault-seed=N            seed for probabilistic fault triggers
// Exit codes: 2 = bad input (usage, a malformed or out-of-range flag
//                 value, an empty training split, a snapshot under
//                 --checkpoint-dir that does not fit the model, such as
//                 one written with another --dim or by a build with
//                 another parameter layout),
//             3 = simulated crash (resume with the same command),
//             4 = training failed: it diverged, violated an invariant or
//                 ran out of memory, and either no watchdog retried it or
//                 the watchdog exhausted its retry budget.

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "baselines/registry.h"
#include "core/noise_estimator.h"
#include "data/dataset_io.h"
#include "data/noise.h"
#include "data/simulators.h"
#include "embedding/word2vec.h"
#include "metrics/metrics.h"
#include "common/env.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "recovery/fault_plan.h"
#include "recovery/run_checkpointer.h"
#include "recovery/watchdog.h"

namespace clfd {
namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> values;

  const char* Get(const std::string& key, const char* fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second.c_str();
  }
  // The numeric getters parse a flag's whole text, as NoiseSpec parses a
  // rate, and throw std::invalid_argument outside the range the usage line
  // states; main() prints the message and exits 2.
  double GetFraction(const std::string& key, double fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback
                              : ParseFraction("--" + key, it->second);
  }
  int GetPositiveInt(const std::string& key, int fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback
                              : ParsePositiveInt("--" + key, it->second);
  }
  // An integer in [0, 2^64). strtoull would negate a leading '-', so the
  // text must start with a digit.
  uint64_t GetSeed(const std::string& key, uint64_t fallback) const {
    auto it = values.find(key);
    if (it == values.end()) return fallback;
    const std::string& text = it->second;
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (!ParsedWhole(text, end) ||
        !std::isdigit(static_cast<unsigned char>(text[0]))) {
      BadValue("--" + key, text, "an integer in [0, 2^64)");
    }
    return value;
  }
};

// Accepts both "--key value" and "--key=value"; the first bare token is the
// subcommand, so obs flags may appear before or after it.
Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      std::string key = token.substr(2);
      size_t eq = key.find('=');
      if (eq != std::string::npos) {
        args.values[key.substr(0, eq)] = key.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        // Space form takes the next token as the value — unless it is the
        // next flag, so presence-only flags (--watchdog, --no-resume) don't
        // swallow whatever follows them.
        args.values[key] = argv[++i];
      } else {
        args.values[key] = "";
      }
    } else if (args.command.empty()) {
      args.command = token;
    }
  }
  return args;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  clfd_cli generate --dataset cert|wiki|openstack [--scale F]\n"
      "           [--noise none|uniform:ETA|classdep:E10,E01] [--seed N]\n"
      "           --train OUT [--test OUT]\n"
      "           (0 < F <= 1; 0 <= ETA < 0.5; E10, E01 in [0, 1] with\n"
      "           E10 + E01 < 1)\n"
      "  clfd_cli run --model NAME --train FILE --test FILE\n"
      "           [--budget fast|paper] [--seed N] [--dim N]\n"
      "  clfd_cli correct --train FILE [--budget fast|paper] [--seed N]\n"
      "           [--dim N]\n"
      "  (seeds in [0, 2^64); --dim, --threads and --checkpoint-interval\n"
      "  at least 1)\n"
      "observability (any subcommand):\n"
      "  --trace=FILE --metrics-out=FILE[.jsonl] --log-level=LVL\n"
      "  --prof-out=FILE --prof-collapsed=FILE --prof-roofline=FILE|-\n"
      "execution (any subcommand):\n"
      "  --threads=N   thread-pool width (default CLFD_THREADS or all\n"
      "                cores; never changes results, only speed)\n"
      "fault tolerance (run):\n"
      "  --checkpoint-dir=DIR --checkpoint-interval=N --no-resume\n"
      "  --watchdog    divergence watchdog with rollback + bounded retry\n"
      "fault injection (any subcommand):\n"
      "  --fault-plan=SPEC --fault-seed=N   e.g. \"run.epoch@3;ckpt.io@1\"\n"
      "models: CLFD DivMix ULC Sel-CL CTRR Few-Shot CLDet DeepLog LogBert\n");
  return 2;
}

int Generate(const Args& args) {
  std::string name = args.Get("dataset", "cert");
  DatasetKind kind;
  if (name == "cert") {
    kind = DatasetKind::kCert;
  } else if (name == "wiki") {
    kind = DatasetKind::kWiki;
  } else if (name == "openstack") {
    kind = DatasetKind::kOpenStack;
  } else {
    std::fprintf(stderr, "unknown dataset '%s'\n", name.c_str());
    return 2;
  }
  NoiseSpec noise;
  try {
    noise = NoiseSpec::Parse(args.Get("noise", "none"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bad --noise spec: %s\n", e.what());
    return 2;
  }
  Rng rng(args.GetSeed("seed", 1));
  SplitSpec split = PaperSplit(kind).Scaled(args.GetFraction("scale", 0.05));
  SimulatedData data = MakeDataset(kind, split, &rng);
  noise.Apply(&data.train, &rng);

  const char* train_path = args.Get("train", "");
  if (train_path[0] == '\0') return Usage();
  if (!SaveDataset(data.train, train_path)) {
    std::fprintf(stderr, "cannot write %s\n", train_path);
    return 1;
  }
  std::printf("wrote %s: %d sessions (%d malicious, %.1f%% noisy labels)\n",
              train_path, data.train.size(),
              data.train.CountTrue(kMalicious),
              100.0 * ObservedNoiseRate(data.train));
  const char* test_path = args.Get("test", "");
  if (test_path[0] != '\0') {
    if (!SaveDataset(data.test, test_path)) {
      std::fprintf(stderr, "cannot write %s\n", test_path);
      return 1;
    }
    std::printf("wrote %s: %d sessions (%d malicious)\n", test_path,
                data.test.size(), data.test.CountTrue(kMalicious));
  }
  return 0;
}

ClfdConfig MakeConfig(const Args& args) {
  ClfdConfig config;
  if (std::strcmp(args.Get("budget", "fast"), "paper") == 0) {
    config.budget = TrainingBudget::Paper();
  } else {
    config.budget = TrainingBudget::Fast();
  }
  config.emb_dim = args.GetPositiveInt("dim", 50);
  config.hidden_dim = config.emb_dim;
  return config;
}

int Run(const Args& args) {
  ClfdConfig config = MakeConfig(args);
  uint64_t seed = args.GetSeed("seed", 7);
  recovery::RecoveryOptions ropts;
  ropts.dir = args.Get("checkpoint-dir", "");
  ropts.interval_epochs = args.GetPositiveInt("checkpoint-interval", 5);
  ropts.resume = args.values.count("no-resume") == 0;
  ropts.watchdog.enabled = args.values.count("watchdog") > 0;

  SessionDataset train, test;
  if (!LoadDataset(args.Get("train", ""), &train) ||
      !LoadDataset(args.Get("test", ""), &test)) {
    std::fprintf(stderr, "cannot load --train/--test dataset files\n");
    return 1;
  }
  Rng rng(seed);
  Matrix embeddings = TrainActivityEmbeddings(train, config.emb_dim, &rng);

  std::string model_name = args.Get("model", "CLFD");

  std::printf("training %s on %d sessions...\n", model_name.c_str(),
              train.size());
  std::unique_ptr<DetectorModel> model = MakeModel(model_name, config, seed);
  if (!model) {
    std::fprintf(stderr, "unknown model '%s'\n", model_name.c_str());
    return 2;
  }
  recovery::RunWithRecovery(
      ropts, "cli_seed_" + std::to_string(seed),
      [&](recovery::RunCheckpointer* rc) {
        // Each attempt trains a fresh model; a rollback restores its state
        // from the last good snapshot.
        model = MakeModel(model_name, config, seed);
        model->TrainWithRecovery(train, embeddings, rc);
      });

  std::vector<int> truths = TrueLabels(test);
  auto scores = model->Score(test);
  ConfusionCounts counts = Confusion(model->Predict(scores), truths);
  std::printf("%s: F1 %.2f  FPR %.2f  AUC-ROC %.2f  (tp=%d fp=%d tn=%d "
              "fn=%d)\n",
              model_name.c_str(), F1Score(counts),
              FalsePositiveRate(counts), AucRoc(scores, truths), counts.tp,
              counts.fp, counts.tn, counts.fn);
  return 0;
}

int Correct(const Args& args) {
  ClfdConfig config = MakeConfig(args);
  uint64_t seed = args.GetSeed("seed", 7);
  SessionDataset train;
  if (!LoadDataset(args.Get("train", ""), &train)) {
    std::fprintf(stderr, "cannot load --train dataset file\n");
    return 1;
  }
  Rng rng(seed);
  Matrix embeddings = TrainActivityEmbeddings(train, config.emb_dim, &rng);

  LabelCorrector corrector(config, seed);
  corrector.Train(train, embeddings);
  auto corrections = corrector.Correct(train);

  int flips = 0;
  for (int i = 0; i < train.size(); ++i) {
    flips += (corrections[i].label != train.sessions[i].noisy_label);
  }
  NoiseEstimate estimate = EstimateNoise(train, corrections);
  std::printf("corrector flipped %d / %d given labels\n", flips,
              train.size());
  std::printf("estimated noise rates: eta=%.3f eta10=%.3f eta01=%.3f\n",
              estimate.eta, estimate.eta10, estimate.eta01);

  // If ground truth is present in the file, also report TPR/TNR (Table III).
  std::vector<int> preds(train.size());
  for (int i = 0; i < train.size(); ++i) preds[i] = corrections[i].label;
  ConfusionCounts counts = Confusion(preds, TrueLabels(train));
  std::printf("vs. ground truth: TPR %.2f  TNR %.2f\n",
              TruePositiveRate(counts), TrueNegativeRate(counts));
  return 0;
}

int Dispatch(const Args& args) {
  if (args.command == "generate") return Generate(args);
  if (args.command == "run") return Run(args);
  if (args.command == "correct") return Correct(args);
  return Usage();
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args = ParseArgs(argc, argv);

  std::string log_level = args.Get("log-level", "");
  if (!log_level.empty()) {
    // A recognized name parses the same under any fallback; an unknown one
    // echoes whichever fallback it is given.
    if (obs::ParseLogLevel(log_level, obs::LogLevel::kDebug) !=
        obs::ParseLogLevel(log_level, obs::LogLevel::kOff)) {
      std::fprintf(stderr,
                   "warning: unknown --log-level '%s' "
                   "(want debug|info|warn|error|off); using warn\n",
                   log_level.c_str());
    }
    obs::SetLogLevel(obs::ParseLogLevel(log_level, obs::LogLevel::kWarn));
  }
  std::string trace_path = args.Get("trace", "");
  if (!trace_path.empty()) obs::TraceRecorder::Get().Start(trace_path);

  int threads = args.GetPositiveInt("threads", 0);
  if (threads > 0) parallel::SetGlobalThreads(threads);

  // Deterministic fault injection: same (spec, seed) -> same fault
  // sequence, so a crash/resume transcript is reproducible.
  std::unique_ptr<recovery::ScopedFaultPlan> fault_plan;
  std::string fault_spec = args.Get("fault-plan", "");
  if (!fault_spec.empty()) {
    const uint64_t fault_seed = args.GetSeed("fault-seed", 1);
    try {
      fault_plan =
          std::make_unique<recovery::ScopedFaultPlan>(fault_spec, fault_seed);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bad --fault-plan: %s\n", e.what());
      return 2;
    }
    std::fprintf(stderr, "fault plan armed: %s\n",
                 fault_plan->plan().Describe().c_str());
  }

  int rc = 0;
  try {
    // A failure the watchdog retries (divergence, an invariant violation,
    // an allocation failure) that no attempt retried ends the run like an
    // exhausted watchdog: exit 4, never a result or std::terminate.
    std::string failure;
    if (!recovery::RunRecoverable(/*recover=*/true, &failure,
                                  [&] { rc = Dispatch(args); })) {
      std::fprintf(stderr, "%s failed: %s\n", args.command.c_str(),
                   failure.c_str());
      rc = 4;
    }
  } catch (const recovery::SimulatedCrash& e) {
    // Emulated hard crash: checkpoints are on disk; rerunning the same
    // command (without the crash trigger) resumes where it left off.
    std::fprintf(stderr, "%s\n", e.what());
    rc = 3;
  } catch (const recovery::WatchdogAbort& e) {
    std::fprintf(stderr, "watchdog abort: %s\n",
                 e.report().Summary().c_str());
    rc = 4;
  } catch (const recovery::CheckpointError& e) {
    // A snapshot this run cannot use is bad input, never retried over.
    std::fprintf(stderr, "%s\n", e.what());
    rc = 2;
  }

  if (!trace_path.empty() && !obs::TraceRecorder::Get().Stop() && rc == 0) {
    rc = 1;  // Stop() already reported the write failure to stderr.
  }
  std::string metrics_path = args.Get("metrics-out", "");
  if (!metrics_path.empty()) {
    auto& registry = obs::MetricsRegistry::Get();
    bool jsonl = metrics_path.size() >= 6 &&
                 metrics_path.rfind(".jsonl") == metrics_path.size() - 6;
    bool ok = jsonl ? registry.WriteJsonLines(metrics_path)
                    : registry.WriteJson(metrics_path);
    if (ok) {
      std::fprintf(stderr, "obs: wrote metrics to %s\n",
                   metrics_path.c_str());
    } else {
      std::fprintf(stderr, "obs: cannot write metrics file %s\n",
                   metrics_path.c_str());
      if (rc == 0) rc = 1;
    }
  }

  if (!obs::prof::WriteReports(args.Get("prof-out", ""),
                               args.Get("prof-collapsed", ""),
                               args.Get("prof-roofline", "")) &&
      rc == 0) {
    rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace clfd

int main(int argc, char** argv) {
  try {
    return clfd::Main(argc, argv);
  } catch (const std::invalid_argument& e) {
    // Bad input: a malformed or out-of-range flag value, or an empty
    // training split.
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
