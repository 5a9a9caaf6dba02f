// Workload runner of the end-to-end benchmark: one workload per process.
//
//   clfd_e2e --workload cert_paper --seed 1 --seconds 20 --trace 0
//            --out result.json [--smoke]
//
// run.py builds and drives this binary (README.md describes the workloads).
// The runner only measures: it records raw samples — set-up times, per-
// operation wall and CPU time with the detection metrics, request latencies
// and, in the traced run, spans, phase times, profiler totals and counter
// deltas — and writes them as one JSON object to --out. run.py turns the
// samples into metrics and counts the failed operations.
//
// Everything goes through the library's public calls. The untraced loop
// runs the library's defaults; the traced run (--trace 1) adds one extra
// operation whose spans are recorded here, around the public calls, never
// inside src/.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/clfd.h"
#include "core/fraud_detector.h"
#include "core/label_corrector.h"
#include "data/noise.h"
#include "data/simulators.h"
#include "embedding/word2vec.h"
#include "eval/experiment.h"
#include "metrics/metrics.h"
#include "nn/lstm.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "plan/plan.h"
#include "tensor/arena.h"
#include "tensor/kernel_backend.h"
#include "tensor/matrix.h"

extern char** environ;

namespace clfd {
namespace e2e {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- JSON output (numbers keep every digit; NaN/Infinity as Python reads
// them) ----

std::string Num(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Num(values[i]);
  }
  return out + "]";
}

// Ordered "key": value members of one JSON object.
class Obj {
 public:
  Obj& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + Str(key) + ":" + json;
    return *this;
  }
  Obj& Add(const std::string& key, double v) { return Raw(key, Num(v)); }
  Obj& Add(const std::string& key, const std::string& v) {
    return Raw(key, Str(v));
  }
  Obj& Add(const std::string& key, const char* v) {
    return Raw(key, Str(v));
  }
  Obj& Add(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  std::string Json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- Spans (traced run only) ----

// Benchmark-side spans around the library's public calls. Each span has a
// name, start, end and parent; all spans of one process share a run id.
// They stay in memory and are written with the result when the run ends.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::string run_id)
      : run_id_(std::move(run_id)), origin_(NowSeconds()) {}

  int Open(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, stack_.empty() ? -1 : stack_.back(),
                      NowSeconds() - origin_, 0.0});
    stack_.push_back(id);
    return id;
  }

  void Close(int id) {
    spans_[static_cast<size_t>(id)].end_s = NowSeconds() - origin_;
    stack_.pop_back();
  }

  double Duration(int id) const {
    const Span& s = spans_[static_cast<size_t>(id)];
    return s.end_s - s.start_s;
  }

  std::string Json() const {
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",";
      out += Obj()
                 .Add("id", static_cast<double>(i))
                 .Add("parent", static_cast<double>(s.parent))
                 .Add("name", s.name)
                 .Add("start_s", s.start_s)
                 .Add("end_s", s.end_s)
                 .Add("run", run_id_)
                 .Json();
    }
    return out + "]";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_s;
    double end_s;
  };
  std::string run_id_;
  double origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), id_(rec->Open(name)) {}
  ~ScopedSpan() { rec_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

// ---- Program counters and profiler totals around the traced region ----

const char* const kCounterNames[] = {
    "tensor.matmul.calls",          "tensor.matmul_ta.calls",
    "tensor.matmul_tb.calls",       "tensor.matmul_ta_blocked.calls",
    "tensor.matmul_tb_blocked.calls", "tensor.matmul.flops",
    "tensor.lstm_gates.calls",      "tensor.alloc.count",
    "tensor.alloc.bytes",           "tensor.alloc.arena_count",
    "tensor.alloc.arena_bytes",     "autograd.tape.nodes_created",
    "autograd.backward.calls",      "optim.adam.steps",
    "plan.captures",                "plan.replays",
    "plan.invalidations",           "parallel.jobs",
    "parallel.chunks",              "parallel.slowest_shard_micros",
};

std::map<std::string, int64_t> ReadCounters() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Get();
  std::map<std::string, int64_t> values;
  for (const char* name : kCounterNames) {
    values[name] = reg.GetCounter(name)->value();
  }
  // The pool's worker lanes (the calling lane is not a worker).
  int64_t busy = 0;
  for (int w = 0; w + 1 < parallel::GlobalThreadCount(); ++w) {
    busy += reg.GetCounter("parallel.worker." + std::to_string(w) +
                           ".busy_micros")
                ->value();
  }
  values["parallel.busy_micros"] = busy;
  return values;
}

struct ProfTotals {
  int64_t kernel_ns = 0;
  int64_t matmul_ns = 0;
  int64_t matmul_flops = 0;
  int64_t lstm_fwd_ns = 0;
  int64_t plan_capture_ns = 0;
  int64_t plan_replay_ns = 0;
  int64_t encode_dataset_ns = 0;
};

// Sums the profiler tree. Kernels are the nodes carrying FLOPs (as in the
// roofline report); named scopes count once even when they nest in
// themselves.
void SumProfile(const obs::prof::ReportNode& node,
                std::vector<std::string>* path, ProfTotals* t) {
  auto outermost = [&](const char* name) {
    if (node.name != name) return false;
    for (const std::string& p : *path) {
      if (p == name) return false;
    }
    return true;
  };
  if (node.flops > 0) t->kernel_ns += node.ns;
  if (node.name.rfind("MatMul", 0) == 0) {
    t->matmul_ns += node.ns;
    t->matmul_flops += node.flops;
  }
  if (node.name == "LstmGatesForward") t->lstm_fwd_ns += node.ns;
  if (outermost("plan.capture")) t->plan_capture_ns += node.ns;
  if (outermost("plan.replay")) t->plan_replay_ns += node.ns;
  if (outermost("encode.dataset")) t->encode_dataset_ns += node.ns;
  path->push_back(node.name);
  for (const obs::prof::ReportNode& c : node.children) SumProfile(c, path, t);
  path->pop_back();
}

// Counter deltas and profiler totals of one traced region, as per-layer
// values.
class LayerProbe {
 public:
  LayerProbe() : before_(ReadCounters()) { obs::prof::Reset(); }

  std::string Json() const {
    std::map<std::string, int64_t> after = ReadCounters();
    auto d = [&](const char* name) {
      return static_cast<double>(after.at(name) - before_.at(name));
    };
    ProfTotals t;
    std::vector<std::string> path;
    SumProfile(obs::prof::Snapshot(), &path, &t);
    const double captures = d("plan.captures");
    const double replays = d("plan.replays");
    const double mib = 1024.0 * 1024.0;
    return Obj()
        .Add("tensor.kernel_s", t.kernel_ns / 1e9)
        .Add("tensor.matmul_gflops",
             t.matmul_ns > 0 ? static_cast<double>(t.matmul_flops) /
                                   static_cast<double>(t.matmul_ns)
                             : 0.0)
        .Add("tensor.lstm_gates_fwd_s", t.lstm_fwd_ns / 1e9)
        .Add("tensor.matmul_calls",
             d("tensor.matmul.calls") + d("tensor.matmul_ta.calls") +
                 d("tensor.matmul_tb.calls") +
                 d("tensor.matmul_ta_blocked.calls") +
                 d("tensor.matmul_tb_blocked.calls"))
        .Add("tensor.matmul_gflop", d("tensor.matmul.flops") / 1e9)
        .Add("tensor.lstm_gates_calls", d("tensor.lstm_gates.calls"))
        .Add("tensor.heap_allocs", d("tensor.alloc.count"))
        .Add("tensor.heap_mb", d("tensor.alloc.bytes") / mib)
        .Add("tensor.arena_allocs", d("tensor.alloc.arena_count"))
        .Add("tensor.arena_mb", d("tensor.alloc.arena_bytes") / mib)
        .Add("autograd.tape_nodes", d("autograd.tape.nodes_created"))
        .Add("autograd.backward_calls", d("autograd.backward.calls"))
        .Add("nn.adam_steps", d("optim.adam.steps"))
        .Add("plan.captures", captures)
        .Add("plan.replays", replays)
        .Add("plan.invalidations", d("plan.invalidations"))
        .Add("plan.replay_ratio",
             captures + replays > 0 ? replays / (captures + replays) : 0.0)
        .Add("plan.capture_s", t.plan_capture_ns / 1e9)
        .Add("plan.replay_s", t.plan_replay_ns / 1e9)
        .Add("parallel.jobs", d("parallel.jobs"))
        .Add("parallel.chunks", d("parallel.chunks"))
        .Add("parallel.busy_s", d("parallel.busy_micros") / 1e6)
        .Add("parallel.slowest_shard_s",
             d("parallel.slowest_shard_micros") / 1e6)
        .Add("encoders.encode_dataset_s", t.encode_dataset_ns / 1e9)
        .Json();
  }

 private:
  std::map<std::string, int64_t> before_;
};

std::string PhaseJson(const obs::PhaseCapture& capture) {
  return Obj()
      .Add("core.pretrain_s", capture.Micros("pretrain") / 1e6)
      .Add("core.corrector_s", capture.Micros("corrector") / 1e6)
      .Add("core.detector_s", capture.Micros("detector") / 1e6)
      .Add("core.classifier_s", capture.Micros("classifier") / 1e6)
      .Json();
}

// ---- Workloads ----

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out;
};

struct Workload {
  DatasetKind kind = DatasetKind::kCert;
  SplitSpec split;
  NoiseSpec noise = NoiseSpec::Uniform(0.2);
  ClfdConfig config;
  int width = 1;
  int setups = 3;  // set-ups per run; setup_s is their median
};

bool MakeWorkload(const Options& opt, Workload* w) {
  if (opt.workload == "cert_paper") {
    // A Table I CERT cell at the paper's dimensions and batch size.
    ScaledSetup s = MakeScaledSetup(DatasetKind::kCert, {0.04, 1, 0.4});
    w->kind = DatasetKind::kCert;
    w->split = s.split;
    w->config = s.config;
    w->width = 2;
    if (opt.smoke) {
      w->split = PaperSplit(DatasetKind::kCert).Scaled(0.001);
      w->config.batch_size = 20;
      w->config.aux_batch_size = 4;
      w->config.budget = {1, 2, 1};
    }
  } else if (opt.workload == "wiki_compact") {
    // Compact dimensions with the full paper epoch budget: many tiny steps.
    w->kind = DatasetKind::kWiki;
    w->split = PaperSplit(DatasetKind::kWiki).Scaled(0.25);
    w->config = ClfdConfig::Fast();
    w->config.budget = TrainingBudget::Paper();
    w->config.emb_dim = 8;
    w->config.hidden_dim = 8;
    w->config.batch_size = 8;
    w->config.aux_batch_size = 4;
    w->width = 1;
    if (opt.smoke) {
      w->split = PaperSplit(DatasetKind::kWiki).Scaled(0.001);
      w->config.budget = {1, 3, 1};
    }
  } else if (opt.workload == "openstack_score") {
    // A paper-dimensions model trained briefly in set-up, then served.
    w->kind = DatasetKind::kOpenStack;
    w->split = SplitSpec{200, 12, 1000, 100};
    w->config = ClfdConfig();
    w->config.budget = {1, 10, 1};
    w->width = 2;
    if (opt.smoke) {
      w->split = SplitSpec{40, 12, 60, 10};
      w->config.batch_size = 20;
      w->config.aux_batch_size = 4;
      w->config.budget = {1, 2, 1};
    }
  } else {
    return false;
  }
  if (opt.smoke) w->setups = 1;
  return true;
}

uint64_t ModelSeed(uint64_t seed) { return seed * 31 + 7; }

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameMatrix(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool SameDataset(const SessionDataset& a, const SessionDataset& b) {
  if (a.size() != b.size() || a.vocab != b.vocab) return false;
  for (int i = 0; i < a.size(); ++i) {
    const LabeledSession& x = a.sessions[static_cast<size_t>(i)];
    const LabeledSession& y = b.sessions[static_cast<size_t>(i)];
    if (x.session.activities != y.session.activities ||
        x.true_label != y.true_label || x.noisy_label != y.noisy_label) {
      return false;
    }
  }
  return true;
}

bool SameWorld(const SessionDataset& train, const SessionDataset& test,
               const Matrix& embeddings, const ExperimentContext& b) {
  return SameDataset(train, b.train()) && SameDataset(test, b.test()) &&
         SameMatrix(embeddings, b.embeddings());
}

struct World {
  SimulatedData data;
  Matrix embeddings;
};

// ExperimentContext's steps, one public call at a time.
World TracedWorld(const Workload& w, uint64_t seed, SpanRecorder* rec) {
  World world;
  Rng rng(seed * 7919 + 17);  // ExperimentContext's stream
  {
    ScopedSpan span(rec, "data.generate");
    world.data = MakeDataset(w.kind, w.split, &rng);
    w.noise.Apply(&world.data.train, &rng);
  }
  {
    ScopedSpan span(rec, "embedding.word2vec");
    world.embeddings =
        TrainActivityEmbeddings(world.data.train, w.config.emb_dim, &rng);
  }
  return world;
}

// F1/FPR/AUC as TrainAndEvaluate computes them: the AUC from `scores`, the
// predictions by thresholding `predicted` at 0.5 (DetectorModel::Predict).
std::string QualityJson(const std::vector<double>& scores,
                        const std::vector<double>& predicted,
                        const SessionDataset& data) {
  std::vector<int> preds(predicted.size());
  for (size_t i = 0; i < predicted.size(); ++i) {
    preds[i] = predicted[i] > 0.5 ? kMalicious : kNormal;
  }
  const std::vector<int> truths = TrueLabels(data);
  const ConfusionCounts counts = Confusion(preds, truths);
  return Obj()
      .Add("f1", F1Score(counts))
      .Add("fpr", FalsePositiveRate(counts))
      .Add("auc", AucRoc(scores, truths))
      .Json();
}

// ClfdModel's pipeline one component at a time, each public call inside its
// own span: corrector (seed), Correct(train), detector (seed + 1).
std::unique_ptr<FraudDetector> TrainTraced(const Workload& w,
                                           uint64_t model_seed,
                                           const SessionDataset& train,
                                           const Matrix& embeddings,
                                           SpanRecorder* rec) {
  LabelCorrector corrector(w.config, model_seed);
  {
    ScopedSpan span(rec, "core.corrector_train");
    corrector.Train(train, embeddings);
  }
  std::vector<Correction> corrections;
  {
    ScopedSpan span(rec, "core.correct");
    corrections = corrector.Correct(train);
  }
  auto detector = std::make_unique<FraudDetector>(w.config, model_seed + 1);
  {
    ScopedSpan span(rec, "core.detector_train");
    detector->Train(train, corrections, embeddings);
  }
  return detector;
}

// Serves trained models: a seeded picker draws single-session online
// requests from `pool`, each round after one full-pool bulk pass. Every
// returned score must be bit-equal to the same session's score in
// `reference`, one full-pool Score of the first trained model.
class Server {
 public:
  Server(const SessionDataset& pool, std::vector<double> reference,
         uint64_t seed)
      : pool_(pool),
        picker_(seed * 1000003 + 11),
        reference_(std::move(reference)),
        singles_(static_cast<size_t>(pool.size())) {
    for (int i = 0; i < pool.size(); ++i) {
      SessionDataset& one = singles_[static_cast<size_t>(i)];
      one.vocab = pool.vocab;
      one.sessions = {pool.sessions[static_cast<size_t>(i)]};
    }
  }

  static constexpr int kOnlinePerRound = 250;
  static constexpr int kMinOnline = 1000;  // p99 has >= 10 samples beyond it

  const std::vector<double>& reference() const { return reference_; }

  // One round: a bulk pass, then kOnlinePerRound online requests. With a
  // recorder, each request is a "core.score" span.
  void Round(const DetectorModel& model, SpanRecorder* rec) {
    const double t0 = NowSeconds();
    const double c0 = CpuSeconds();
    Request(model, -1, rec);
    for (int k = 0; k < kOnlinePerRound; ++k) {
      Request(model, picker_.UniformInt(pool_.size()), rec);
    }
    round_s_.push_back(NowSeconds() - t0);
    round_cpu_s_.push_back(CpuSeconds() - c0);
  }

  int online_requests() const { return static_cast<int>(online_ms_.size()); }
  int mismatches() const { return online_mismatches_ + bulk_mismatches_; }

  std::string Json() const {
    return Obj()
        .Add("pool_sessions", static_cast<double>(pool_.size()))
        .Raw("online_ms", NumList(online_ms_))
        .Raw("bulk_s", NumList(bulk_s_))
        .Raw("round_s", NumList(round_s_))
        .Raw("round_cpu_s", NumList(round_cpu_s_))
        .Add("online_mismatches", static_cast<double>(online_mismatches_))
        .Add("bulk_mismatches", static_cast<double>(bulk_mismatches_))
        .Add("errors", static_cast<double>(errors_))
        .Json();
  }

 private:
  // index < 0: a bulk pass over the whole pool.
  void Request(const DetectorModel& model, int index, SpanRecorder* rec) {
    const bool bulk = index < 0;
    const SessionDataset& data =
        bulk ? pool_ : singles_[static_cast<size_t>(index)];
    try {
      const double t0 = NowSeconds();
      std::vector<double> scores;
      {
        std::unique_ptr<ScopedSpan> span;
        if (rec != nullptr) {
          span = std::make_unique<ScopedSpan>(rec, "core.score");
        }
        scores = model.Score(data);
      }
      const double dt = NowSeconds() - t0;
      if (bulk) {
        bulk_s_.push_back(dt);
        if (!SameBits(scores, reference_)) ++bulk_mismatches_;
      } else {
        online_ms_.push_back(1e3 * dt);
        if (!SameBits(scores, {reference_[static_cast<size_t>(index)]})) {
          ++online_mismatches_;
        }
      }
    } catch (const std::exception&) {
      ++errors_;
    }
  }

  const SessionDataset& pool_;
  Rng picker_;
  std::vector<double> reference_;
  std::vector<SessionDataset> singles_;
  std::vector<double> online_ms_;
  std::vector<double> bulk_s_;
  std::vector<double> round_s_;
  std::vector<double> round_cpu_s_;
  int online_mismatches_ = 0;
  int bulk_mismatches_ = 0;
  int errors_ = 0;
};

// All sessions of a world, test split first: the serving pool of the
// training workloads. A test split alone (96 sessions on cert_paper) is too
// small a sample of session lengths for steady latencies.
SessionDataset ServingPool(const ExperimentContext& context) {
  SessionDataset pool = context.test();
  pool.sessions.insert(pool.sessions.end(), context.train().sessions.begin(),
                       context.train().sessions.end());
  return pool;
}

// cert_paper and wiki_compact: one operation is one TrainAndEvaluate of a
// fresh ClfdModel, repeated on one world until the time is up. After each
// operation its model serves one round over the world's sessions, so
// serving is sampled across the whole run.
std::string RunTraining(const Options& opt, const Workload& w,
                        const std::string& run_id) {
  Obj out;
  std::vector<double> setup_s;
  int setup_mismatches = 0;
  std::unique_ptr<ExperimentContext> context;
  for (int i = 0; i < w.setups; ++i) {
    const double t0 = NowSeconds();
    auto next = std::make_unique<ExperimentContext>(
        w.kind, w.split, w.noise, w.config.emb_dim, opt.seed);
    setup_s.push_back(NowSeconds() - t0);
    if (context && !SameWorld(next->train(), next->test(), next->embeddings(),
                              *context)) {
      ++setup_mismatches;
    }
    context = std::move(next);
  }
  out.Raw("setup_s", NumList(setup_s))
      .Add("setup_mismatches", static_cast<double>(setup_mismatches))
      .Add("train_sessions", static_cast<double>(context->train().size()))
      .Add("test_sessions", static_cast<double>(context->test().size()));
  const SessionDataset pool = ServingPool(*context);

  const uint64_t model_seed = ModelSeed(opt.seed);
  std::unique_ptr<ClfdModel> model;
  std::unique_ptr<Server> server;
  int model_check_failures = 0;
  std::string ops = "[";
  // Operations start until --seconds have passed.
  const double start = NowSeconds();
  int n = 0;
  do {
    model.reset();  // the previous operation's model, freed before timing
    Obj op;
    const double t0 = NowSeconds();
    const double c0 = CpuSeconds();
    try {
      model = std::make_unique<ClfdModel>(w.config, model_seed);
      RunMetrics m = TrainAndEvaluate(model.get(), *context);
      op.Add("f1", m.f1).Add("fpr", m.fpr).Add("auc", m.auc);
    } catch (const std::exception& e) {
      model.reset();
      op.Add("error", e.what());
    }
    op.Add("wall_s", NowSeconds() - t0).Add("cpu_s", CpuSeconds() - c0);
    ops += (n++ > 0 ? "," : "") + op.Json();
    if (model) {
      // Untimed: the first model's scores are the reference; every later
      // model must reproduce them. The pass also warms the model up.
      std::vector<double> scores;
      try {
        scores = model->Score(pool);
      } catch (const std::exception&) {
        model.reset();
      }
      if (!model) {
        ++model_check_failures;
      } else if (!server) {
        server = std::make_unique<Server>(pool, std::move(scores), opt.seed);
      } else if (!SameBits(scores, server->reference())) {
        ++model_check_failures;
      }
      if (model && server) server->Round(*model, nullptr);
    }
  } while (!opt.smoke && NowSeconds() - start < opt.seconds);
  out.Raw("ops", ops + "]")
      .Add("model_check_failures", static_cast<double>(model_check_failures));

  if (server) {
    while (server->online_requests() < Server::kMinOnline) {
      server->Round(*model, nullptr);
    }
    out.Raw("serve", server->Json());
  } else {
    out.Raw("serve", Obj().Add("pool_sessions", 0.0).Raw("online_ms", "[]")
                         .Raw("bulk_s", "[]").Add("online_mismatches", 0.0)
                         .Add("bulk_mismatches", 0.0).Add("errors", 1.0)
                         .Json());
  }
  model.reset();
  out.Add("peak_rss_mb", PeakRssMb());

  if (opt.trace) {
    SpanRecorder rec(run_id);
    Obj traced;
    try {
      World world;
      {
        ScopedSpan setup(&rec, "setup");
        world = TracedWorld(w, opt.seed, &rec);
      }
      traced.Add("world_matches",
                 SameWorld(world.data.train, world.data.test,
                           world.embeddings, *context));
      LayerProbe probe;
      obs::PhaseCapture capture;
      int run_span = -1;
      std::string quality;
      {
        ScopedSpan run(&rec, "run");
        run_span = run.id();
        std::unique_ptr<FraudDetector> detector = TrainTraced(
            w, model_seed, world.data.train, world.embeddings, &rec);
        // TrainAndEvaluate scores the test split twice: Score for the AUC,
        // Predict for the thresholded labels.
        std::vector<double> scores;
        std::vector<double> predicted;
        {
          ScopedSpan span(&rec, "core.score");
          scores = detector->Score(world.data.test);
        }
        {
          ScopedSpan span(&rec, "core.score");
          predicted = detector->Score(world.data.test);
        }
        quality = QualityJson(scores, predicted, world.data.test);
      }
      traced.Raw("metrics", quality)
          .Add("run_s", rec.Duration(run_span))
          .Raw("phases", PhaseJson(capture))
          .Raw("layers", probe.Json());
    } catch (const std::exception& e) {
      traced.Add("error", e.what());
    }
    traced.Raw("spans", rec.Json());
    out.Raw("traced", traced.Json());
  }
  return out.Json();
}

// openstack_score: a model trained in set-up serves online and bulk
// requests until the time is up; one operation is one request and a round
// (one bulk pass, then the online requests) is the timed unit.
std::string RunScoring(const Options& opt, const Workload& w,
                       const std::string& run_id) {
  Obj out;
  const uint64_t model_seed = ModelSeed(opt.seed);
  std::vector<double> setup_s;
  int setup_mismatches = 0;
  std::unique_ptr<ExperimentContext> context;
  std::unique_ptr<ClfdModel> model;
  std::vector<double> reference;
  for (int i = 0; i < w.setups; ++i) {
    const double t0 = NowSeconds();
    auto next_context = std::make_unique<ExperimentContext>(
        w.kind, w.split, w.noise, w.config.emb_dim, opt.seed);
    auto next_model = std::make_unique<ClfdModel>(w.config, model_seed);
    next_model->Train(next_context->train(), next_context->embeddings());
    setup_s.push_back(NowSeconds() - t0);
    std::vector<double> scores = next_model->Score(next_context->test());
    if (model && !SameBits(scores, reference)) ++setup_mismatches;
    model.reset();
    context = std::move(next_context);
    model = std::move(next_model);
    reference = std::move(scores);
  }
  Server server(context->test(), reference, opt.seed);
  out.Raw("setup_s", NumList(setup_s))
      .Add("setup_mismatches", static_cast<double>(setup_mismatches))
      .Raw("quality", QualityJson(reference, reference, context->test()));
  // Rounds start until --seconds have passed and p99 is defined.
  const double start = NowSeconds();
  const double window = opt.smoke ? 0.0 : opt.seconds;
  while (NowSeconds() - start < window ||
         server.online_requests() < Server::kMinOnline) {
    server.Round(*model, nullptr);
  }
  out.Raw("serve", server.Json()).Add("peak_rss_mb", PeakRssMb());

  if (opt.trace) {
    SpanRecorder rec(run_id);
    Obj traced;
    try {
      obs::PhaseCapture capture;
      World world;
      std::unique_ptr<FraudDetector> detector;
      {
        ScopedSpan setup(&rec, "setup");
        world = TracedWorld(w, opt.seed, &rec);
        detector = TrainTraced(w, model_seed, world.data.train,
                               world.embeddings, &rec);
      }
      traced.Add("world_matches",
                 SameWorld(world.data.train, world.data.test,
                           world.embeddings, *context))
          .Add("model_matches",
               SameBits(detector->Score(world.data.test), reference))
          .Raw("phases", PhaseJson(capture));
      // An untraced round first, so the traced one starts from serving's
      // steady state rather than straight after training.
      server.Round(*model, nullptr);
      const int mismatches_before = server.mismatches();
      LayerProbe probe;
      int run_span = -1;
      {
        ScopedSpan run(&rec, "run");
        run_span = run.id();
        server.Round(*model, &rec);
      }
      traced.Add("run_s", rec.Duration(run_span))
          .Add("mismatches",
               static_cast<double>(server.mismatches() - mismatches_before))
          .Raw("layers", probe.Json());
    } catch (const std::exception& e) {
      traced.Add("error", e.what());
    }
    traced.Raw("spans", rec.Json());
    out.Raw("traced", traced.Json());
  }
  return out.Json();
}

// ---- Environment ----

// A fixed integer/floating-point loop timed before the workload: a slow or
// loaded host shows as a slow calibration, not as a regression.
double CalibrationSeconds() {
  std::vector<double> times;
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = NowSeconds();
    uint64_t x = 88172645463325252ull + static_cast<uint64_t>(rep);
    double acc = 0.0;
    for (int i = 0; i < 20000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x & 0xffff) * 1e-9;
    }
    sink += acc;
    times.push_back(NowSeconds() - t0);
  }
  std::sort(times.begin(), times.end());
  if (sink < 0) std::fprintf(stderr, "%f\n", sink);  // keeps the loop alive
  return times[times.size() / 2];
}

// Every runtime knob the library reads is named CLFD_*; the benchmark
// measures the library's defaults only.
std::vector<std::string> LibraryKnobsSet() {
  std::vector<std::string> set;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "CLFD_", 5) == 0) {
      set.emplace_back(*e, std::strcspn(*e, "="));
    }
  }
  return set;
}

std::string BuildProblem() {
  if (std::string(CLFD_E2E_BUILD_TYPE) != "Release") {
    return std::string("build type is '") + CLFD_E2E_BUILD_TYPE +
           "', not Release";
  }
  if (std::string(CLFD_E2E_SANITIZE) != "") {
    return std::string("sanitizer build (") + CLFD_E2E_SANITIZE + ")";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "runner compiled with a sanitizer";
#endif
#if !defined(__OPTIMIZE__)
  return "runner compiled without optimization";
#endif
  const std::string check = CLFD_E2E_CHECK;
  if (check == "ON" || check == "1" || check == "TRUE") {
    return "CLFD_CHECK build (runtime invariant checks on by default)";
  }
  const std::string obs_off = CLFD_E2E_OBS_FORCE_OFF;
  if (obs_off == "ON" || obs_off == "1" || obs_off == "TRUE") {
    return "CLFD_OBS_FORCE_OFF build (no phase or profiler data)";
  }
  return "";
}

// The effective settings, recorded with every result: a PR that changes a
// default shows up as a measured change.
std::string SettingsJson() {
  return Obj()
      .Add("kernel_backend", KernelBackendName(CurrentKernelBackend()))
      .Add("plan", plan::Enabled())
      .Add("arena", arena::Enabled())
      .Add("lstm_fused", nn::LstmFusedEnabled())
      .Add("profiler", obs::prof::Enabled())
      .Add("width", static_cast<double>(parallel::GlobalThreadCount()))
      .Add("matmul_parallel_min_flops",
           static_cast<double>(MatmulParallelThreshold()))
      .Add("invariant_checks", check::Enabled())
      .Add("trace_recorder", obs::TraceRecorder::Get().enabled())
      .Add("log_level", static_cast<double>(obs::GlobalLogLevel()))
      .Add("build_type", CLFD_E2E_BUILD_TYPE)
      .Json();
}

int Usage() {
  std::fprintf(stderr,
               "usage: clfd_e2e --workload cert_paper|wiki_compact|"
               "openstack_score --seed N --seconds S --trace 0|1 "
               "--out PATH [--smoke]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--out" && has_value) {
      opt.out = argv[++i];
    } else {
      return Usage();
    }
  }
  Workload w;
  if (opt.out.empty() || !MakeWorkload(opt, &w)) return Usage();

  const std::string build_problem = BuildProblem();
  if (!build_problem.empty()) {
    std::fprintf(stderr, "clfd_e2e: refusing to measure: %s\n",
                 build_problem.c_str());
    return 3;
  }
  const std::vector<std::string> knobs = LibraryKnobsSet();
  if (!knobs.empty()) {
    std::fprintf(stderr, "clfd_e2e: refusing to run with library knob %s set\n",
                 knobs.front().c_str());
    return 3;
  }
  parallel::SetGlobalThreads(w.width);

  const std::string run_id = opt.workload + "-" + std::to_string(opt.seed) +
                             "-" + std::to_string(getpid());
  const double calibration_s = CalibrationSeconds();
  std::string body;
  if (w.kind == DatasetKind::kOpenStack) {
    body = RunScoring(opt, w, run_id);
  } else {
    body = RunTraining(opt, w, run_id);
  }
  const std::string json = Obj()
                               .Add("workload", opt.workload)
                               .Add("seed", static_cast<double>(opt.seed))
                               .Add("smoke", opt.smoke)
                               .Add("run_id", run_id)
                               .Add("calibration_s", calibration_s)
                               .Raw("settings", SettingsJson())
                               .Raw("result", body)
                               .Json();
  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "clfd_e2e: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return (std::fclose(f) == 0 && ok) ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace clfd

int main(int argc, char** argv) { return clfd::e2e::Main(argc, argv); }
