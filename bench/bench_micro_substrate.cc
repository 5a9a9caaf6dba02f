// google-benchmark micro-benchmarks of the substrate: matmul kernels, LSTM
// forward/backward at the paper's dimensions, the loss kernels, and the
// O(|T|(R+M)) scaling of the supervised contrastive batch loss (the time-
// complexity claim of Sec. III-B).

#include <benchmark/benchmark.h>

#include "autograd/var.h"
#include "common/rng.h"
#include "core/label_corrector.h"
#include "eval/experiment.h"
#include "losses/contrastive.h"
#include "losses/robust_losses.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "plan/plan.h"
#include "tensor/arena.h"
#include "tensor/matrix.h"

namespace clfd {
namespace {

// Sums every matmul-family kernel invocation counter, so the LSTM
// training-step rows report matmul kernel invocations per step including
// the packed-gate backward kernels.
int64_t MatMulKernelCalls() {
  auto& reg = obs::MetricsRegistry::Get();
  return reg.GetCounter("tensor.matmul.calls")->value() +
         reg.GetCounter("tensor.matmul_ta.calls")->value() +
         reg.GetCounter("tensor.matmul_tb.calls")->value() +
         reg.GetCounter("tensor.matmul_ta_blocked.calls")->value() +
         reg.GetCounter("tensor.matmul_tb_blocked.calls")->value();
}

int64_t HeapAllocCount() {
  return obs::MetricsRegistry::Get().GetCounter("tensor.alloc.count")->value();
}

int64_t ArenaAllocCount() {
  return obs::MetricsRegistry::Get()
      .GetCounter("tensor.alloc.arena_count")
      ->value();
}

// items_per_second at the 256/512 square shapes is the kernels' GFLOP/s
// figure.
void BM_MatMul(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Matrix a = Matrix::Randn(n, n, 1.0f, &rng);
  Matrix b = Matrix::Randn(n, n, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{2} * n * n * n);
}
BENCHMARK(BM_MatMul)
    ->ArgName("n")
    ->ArgsProduct({{50, 100, 200, 256, 512}});

void BM_MatMulTransposeB(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Matrix a = Matrix::Randn(n, n, 1.0f, &rng);
  Matrix b = Matrix::Randn(n, n, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransposeB(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{2} * n * n * n);
}
BENCHMARK(BM_MatMulTransposeB)
    ->ArgName("n")
    ->ArgsProduct({{50, 100, 256}});

// Fused LSTM elementwise gate kernels at the paper's batch/hidden scale
// (one body; there is nothing to tile in an elementwise kernel).
void BM_LstmGatesForward(benchmark::State& state) {
  Rng rng(1);
  Matrix pre = Matrix::Randn(100, 4 * 50, 1.0f, &rng);
  Matrix hc_prev = Matrix::Randn(100, 2 * 50, 1.0f, &rng);
  for (auto _ : state) {
    Matrix hc, acts;
    LstmGatesForward(pre, hc_prev, &hc, &acts);
    benchmark::DoNotOptimize(hc);
  }
}
BENCHMARK(BM_LstmGatesForward);

void BM_LstmGatesBackward(benchmark::State& state) {
  Rng rng(1);
  Matrix pre = Matrix::Randn(100, 4 * 50, 1.0f, &rng);
  Matrix hc_prev = Matrix::Randn(100, 2 * 50, 1.0f, &rng);
  Matrix hc, acts;
  LstmGatesForward(pre, hc_prev, &hc, &acts);
  Matrix gout = Matrix::Randn(100, 2 * 50, 1.0f, &rng);
  for (auto _ : state) {
    Matrix dpre(100, 4 * 50);
    Matrix dhc(100, 2 * 50);
    LstmGatesBackward(gout, acts, hc_prev, &dpre, &dhc);
    benchmark::DoNotOptimize(dpre);
  }
}
BENCHMARK(BM_LstmGatesBackward);

void BM_SoftmaxRows(benchmark::State& state) {
  Rng rng(1);
  Matrix a = Matrix::Randn(100, 50, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SoftmaxRows(a));
  }
}
BENCHMARK(BM_SoftmaxRows);

void BM_LstmForward(benchmark::State& state) {
  // Paper dimensions: batch 100, embedding/hidden 50, 2 layers.
  int t_len = static_cast<int>(state.range(0));
  Rng rng(2);
  nn::Lstm lstm(50, 50, 2, &rng);
  std::vector<Matrix> inputs;
  for (int t = 0; t < t_len; ++t) {
    inputs.push_back(Matrix::Randn(100, 50, 1.0f, &rng));
  }
  for (auto _ : state) {
    std::vector<ag::Var> steps;
    for (const Matrix& m : inputs) steps.push_back(ag::Constant(m));
    benchmark::DoNotOptimize(lstm.Forward(steps));
  }
}
BENCHMARK(BM_LstmForward)->Arg(10)->Arg(20)->Arg(30);

void BM_LstmForwardBackward(benchmark::State& state) {
  int t_len = static_cast<int>(state.range(0));
  Rng rng(2);
  nn::Lstm lstm(50, 50, 2, &rng);
  std::vector<Matrix> inputs;
  for (int t = 0; t < t_len; ++t) {
    inputs.push_back(Matrix::Randn(100, 50, 1.0f, &rng));
  }
  for (auto _ : state) {
    std::vector<ag::Var> steps;
    for (const Matrix& m : inputs) steps.push_back(ag::Constant(m));
    auto hs = lstm.Forward(steps);
    ag::Var loss = ag::SumAll(ag::Mul(hs.back(), hs.back()));
    ag::Backward(loss);
  }
}
BENCHMARK(BM_LstmForwardBackward)->Arg(10)->Arg(20);

// One optimizer step over the paper-scale LSTM parameter set (~45k
// floats). After the ZeroGrads/Adam hoisting work the loop body is
// allocation- and branch-free: two FMAs, two multiplies, one sqrt-divide
// per element.
void BM_AdamStep(benchmark::State& state) {
  Rng rng(7);
  nn::Lstm lstm(50, 50, 2, &rng);
  nn::Adam opt(lstm.Parameters(), 1e-3f);
  int64_t total = 0;
  for (const ag::Var& p : lstm.Parameters()) total += p.value().size();
  for (auto _ : state) {
    opt.Step();
  }
  state.SetItemsProcessed(state.iterations() * total);
}
BENCHMARK(BM_AdamStep);

// A full LSTM training step — forward over T timesteps, masked-sum loss,
// backward, Adam — at the paper's dimensions, with every tensor on the
// heap (arena:0) or each step's tape in a recycled ScopedArena (arena:1).
// The per-step counters are the acceptance numbers: the arena must cut
// heap allocations >= 5x.
void BM_LstmTrainStep(benchmark::State& state) {
  const bool arena_on = state.range(0) != 0;
  const int t_len = 20;
  Rng rng(8);
  nn::Lstm lstm(50, 50, 2, &rng);
  nn::Adam opt(lstm.Parameters(), 1e-3f);
  std::vector<Matrix> inputs;
  for (int t = 0; t < t_len; ++t) {
    inputs.push_back(Matrix::Randn(100, 50, 1.0f, &rng));
  }
  arena::Arena step_arena;
  auto step = [&]() {
    step_arena.Reset();
    arena::ScopedArena scope(arena_on ? &step_arena : nullptr);
    std::vector<ag::Var> steps;
    for (const Matrix& m : inputs) steps.push_back(ag::Constant(m));
    auto hs = lstm.Forward(steps);
    // Every-timestep consumer, like the encoders' masked mean.
    ag::Var loss = ag::SumAll(ag::Mul(hs[0], hs[0]));
    for (size_t t = 1; t < hs.size(); ++t) {
      loss = ag::Add(loss, ag::SumAll(ag::Mul(hs[t], hs[t])));
    }
    ag::Backward(loss);
    opt.Step();
  };
  // Warm-up outside the timed region: sizes the arena chunks and the
  // recycled heap capacities so the counters below reflect steady state.
  step();
  const int64_t mm0 = MatMulKernelCalls();
  const int64_t heap0 = HeapAllocCount();
  const int64_t arena0 = ArenaAllocCount();
  for (auto _ : state) {
    step();
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["matmul_calls_per_step"] =
      static_cast<double>(MatMulKernelCalls() - mm0) / iters;
  state.counters["heap_allocs_per_step"] =
      static_cast<double>(HeapAllocCount() - heap0) / iters;
  state.counters["arena_allocs_per_step"] =
      static_cast<double>(ArenaAllocCount() - arena0) / iters;
}
BENCHMARK(BM_LstmTrainStep)
    ->ArgName("arena")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// One LSTM training step: arg plan=0 runs the body on the dynamic tape
// without a Planner, in a recycled arena of its own; plan=1 replays the
// captured execution plan (src/plan) on the Planner's arenas. Identical numerics; the counters are the acceptance numbers
// — replay must drive tape nodes created per step to zero while matmul
// kernel calls stay unchanged (same math, no graph construction).
void BM_PlanReplay(benchmark::State& state) {
  const bool planned = state.range(0) != 0;
  const int t_len = 20;
  Rng rng(8);
  nn::Lstm lstm(50, 50, 2, &rng);
  nn::Adam opt(lstm.Parameters(), 1e-3f);
  std::vector<Matrix> inputs;
  for (int t = 0; t < t_len; ++t) {
    inputs.push_back(Matrix::Randn(100, 50, 1.0f, &rng));
  }
  arena::Arena step_arena;
  plan::Planner planner;
  auto body = [&]() -> float {
    std::vector<ag::Var> steps;
    for (const Matrix& m : inputs) steps.push_back(ag::Constant(m));
    auto hs = lstm.Forward(steps);
    ag::Var loss = ag::SumAll(ag::Mul(hs[0], hs[0]));
    for (size_t t = 1; t < hs.size(); ++t) {
      loss = ag::Add(loss, ag::SumAll(ag::Mul(hs[t], hs[t])));
    }
    ag::Backward(loss);
    opt.Step();
    return loss.value()[0];
  };
  auto step = [&]() {
    if (planned) {
      planner.Step(plan::MakeKey(100, t_len), nullptr, body);
    } else {
      step_arena.Reset();
      arena::ScopedArena scope(&step_arena);
      body();
    }
  };
  // Two warm-up steps outside the timed region: the first captures the
  // plan, the second sizes the arena/heap recycling at replay steady state.
  step();
  step();
  auto* nodes = obs::MetricsRegistry::Get().GetCounter(
      "autograd.tape.nodes_created");
  const int64_t nodes0 = nodes->value();
  const int64_t mm0 = MatMulKernelCalls();
  const int64_t heap0 = HeapAllocCount();
  const int64_t arena0 = ArenaAllocCount();
  for (auto _ : state) {
    step();
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["tape_nodes_per_step"] =
      static_cast<double>(nodes->value() - nodes0) / iters;
  state.counters["matmul_calls_per_step"] =
      static_cast<double>(MatMulKernelCalls() - mm0) / iters;
  state.counters["heap_allocs_per_step"] =
      static_cast<double>(HeapAllocCount() - heap0) / iters;
  state.counters["arena_allocs_per_step"] =
      static_cast<double>(ArenaAllocCount() - arena0) / iters;
}
BENCHMARK(BM_PlanReplay)
    ->ArgName("plan")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Cost of capturing a plan: one full dynamic step on the Planner's
// workspace plus the recording overhead (slot list, backward order).
// Amortized over thousands of replays per training phase, so capture time
// only has to be "a step, roughly" — compare against the
// BM_PlanReplay/plan:0 row.
void BM_PlanCapture(benchmark::State& state) {
  const int t_len = 20;
  Rng rng(8);
  nn::Lstm lstm(50, 50, 2, &rng);
  nn::Adam opt(lstm.Parameters(), 1e-3f);
  std::vector<Matrix> inputs;
  for (int t = 0; t < t_len; ++t) {
    inputs.push_back(Matrix::Randn(100, 50, 1.0f, &rng));
  }
  auto body = [&]() -> float {
    std::vector<ag::Var> steps;
    for (const Matrix& m : inputs) steps.push_back(ag::Constant(m));
    auto hs = lstm.Forward(steps);
    ag::Var loss = ag::SumAll(ag::Mul(hs[0], hs[0]));
    for (size_t t = 1; t < hs.size(); ++t) {
      loss = ag::Add(loss, ag::SumAll(ag::Mul(hs[t], hs[t])));
    }
    ag::Backward(loss);
    opt.Step();
    return loss.value()[0];
  };
  body();  // warm-up: one dynamic step touches the model and Adam state
  for (auto _ : state) {
    // A fresh Planner every iteration so each Step is a cold capture.
    plan::Planner planner;
    planner.Step(plan::MakeKey(100, t_len), nullptr, body);
  }
}
BENCHMARK(BM_PlanCapture)->Unit(benchmark::kMillisecond);

// End-to-end corrector pipeline (SimCLR pretrain + corrector classifier +
// correction sweep) at a reduced split and the paper's epoch budget.
// Dataset synthesis and word2vec embedding pretraining are hoisted out of
// the timed loop: they are fixed set-up, so timing them would only dilute
// the measurement. The paper budget (not TrainingBudget::Fast) is
// deliberate: a production corrector run captures each distinct step shape
// once and replays it for hundreds of epochs, so a truncated budget would
// overweight the one-time capture cost. Each iteration still constructs a
// fresh LabelCorrector, so every iteration pays every cold capture before
// any step replays; the plan counters report how many.
//
// Model scale (emb/hidden 8, batch 8): the compact end of the corrector's
// range, where graph construction is a measurable share of a step (the
// aux classifier loop trains at aux_batch_size=4, so tiny-batch steps are
// a first-class part of this pipeline, not a synthetic corner).
void BM_CorrectorE2E(benchmark::State& state) {
  SplitSpec split{60, 6, 30, 6};
  ClfdConfig config = ClfdConfig::Fast();
  config.budget = TrainingBudget::Paper();
  config.emb_dim = 8;
  config.hidden_dim = 8;
  config.batch_size = 8;
  config.aux_batch_size = 4;
  ExperimentContext context(DatasetKind::kWiki, split, NoiseSpec::Uniform(0.45),
                            config.emb_dim, /*seed=*/100);
  auto& reg = obs::MetricsRegistry::Get();
  auto* captures = reg.GetCounter("plan.captures");
  auto* replays = reg.GetCounter("plan.replays");
  auto* invalidations = reg.GetCounter("plan.invalidations");
  int64_t captures0 = captures->value();
  int64_t replays0 = replays->value();
  int64_t invalidations0 = invalidations->value();
  for (auto _ : state) {
    LabelCorrector corrector(config, /*seed=*/100 * 31 + 7);
    corrector.Train(context.train(), context.embeddings());
    benchmark::DoNotOptimize(corrector.Correct(context.train()));
  }
  state.counters["plan_captures_per_iter"] = benchmark::Counter(
      double(captures->value() - captures0) / state.iterations());
  state.counters["plan_replays_per_iter"] = benchmark::Counter(
      double(replays->value() - replays0) / state.iterations());
  state.counters["plan_invalidations_per_iter"] = benchmark::Counter(
      double(invalidations->value() - invalidations0) / state.iterations());
}
BENCHMARK(BM_CorrectorE2E)->Unit(benchmark::kMillisecond);

// The one-cell sweep that BM_CorrectorE2ECheckpointed and
// BM_ProfCorrectorE2E time: the label corrector on a small Wikipedia world.
SweepCell SmallCorrectorCell() {
  ClfdConfig config = ClfdConfig::Fast();
  config.emb_dim = 16;
  config.hidden_dim = 16;
  config.batch_size = 24;
  config.aux_batch_size = 4;
  config.budget = {2, 30, 2};
  return {"corrector", kLabelCorrector, config, DatasetKind::kWiki,
          SplitSpec{60, 6, 30, 6}, NoiseSpec::Uniform(0.45)};
}

// Same corrector experiment with crash-consistent checkpointing armed at
// the interval given by the arg (0 = checkpointing disabled, the control).
// resume is off so every iteration retrains from scratch while paying the
// full snapshot-encode + fsync cost and the results-store write; the
// acceptance target is <= 5% wall-clock overhead at the default interval
// (5 epochs) versus arg 0.
void BM_CorrectorE2ECheckpointed(benchmark::State& state) {
  recovery::RecoveryOptions recovery;
  if (state.range(0) > 0) {
    recovery.dir = "/tmp/clfd_bench_ckpt";
    recovery.interval_epochs = static_cast<int>(state.range(0));
    recovery.resume = false;
  }
  const SweepCell cell = SmallCorrectorCell();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunSweep({cell}, /*seeds=*/1, recovery));
  }
}
BENCHMARK(BM_CorrectorE2ECheckpointed)
    ->ArgName("interval")
    ->Arg(0)
    ->Arg(5)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_GceLoss(benchmark::State& state) {
  Rng rng(3);
  Matrix probs = SoftmaxRows(Matrix::Randn(100, 2, 1.0f, &rng));
  Matrix targets(100, 2);
  for (int i = 0; i < 100; ++i) targets.at(i, i % 2) = 1.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GceLoss(ag::Constant(probs), targets, 0.7f));
  }
}
BENCHMARK(BM_GceLoss);

// Supervised contrastive batch loss as a function of R + M: the paper's
// per-batch cost is quadratic in (R + M) while the number of batches is
// |T| / R, giving the stated O(|T| (R + M)) per epoch.
void BM_SupConLoss(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(4);
  Matrix z = Matrix::Randn(n, 50, 1.0f, &rng);
  std::vector<int> labels(n);
  std::vector<double> conf(n, 0.9);
  for (int i = 0; i < n; ++i) labels[i] = i % 5 == 0 ? 1 : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SupConLoss(ag::Constant(z), labels, conf, n, 1.0f));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SupConLoss)->Arg(30)->Arg(60)->Arg(120)->Arg(240)->Complexity();

void BM_NtXentLoss(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(5);
  Matrix z = Matrix::Randn(2 * n, 50, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NtXentLoss(ag::Constant(z), 0.5f));
  }
}
BENCHMARK(BM_NtXentLoss)->Arg(50)->Arg(100);

// ---- Observability overhead (Sec. "zero overhead when disabled"). ----
// With logging/tracing off (the default) these measure the cost the
// instrumentation adds to hot paths: a disabled CLFD_LOG is one relaxed
// atomic load, a span that nothing wants (profiler off, no trace, no
// PhaseCapture) three flag reads and no clock read, a counter add one
// relaxed fetch_add.

void BM_ObsDisabledLog(benchmark::State& state) {
  obs::SetLogLevel(obs::LogLevel::kOff);
  int64_t i = 0;
  for (auto _ : state) {
    CLFD_LOG(DEBUG) << "never emitted" << obs::Kv("i", i);
    benchmark::DoNotOptimize(++i);
  }
}
BENCHMARK(BM_ObsDisabledLog);

void BM_ObsDisabledSpan(benchmark::State& state) {
  obs::prof::ScopedEnabled prof(false);
  for (auto _ : state) {
    CLFD_PROF_SPAN("bench.noop");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsDisabledSpan);

void BM_ObsCounterAdd(benchmark::State& state) {
  for (auto _ : state) {
    CLFD_METRIC_COUNT("bench.counter", 1);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsCounterAdd);

// ---- Profiler overhead (DESIGN.md Sec. 11: <= 2% default-on budget). ----
// BM_ProfScope measures one scope enter/exit in isolation: enabled it is
// two clock reads, one child lookup (pointer-compare fast path), and two
// cursor moves; disabled it is a single relaxed load. BM_ProfCorrectorE2E
// is the budget's end-to-end form — the BM_CorrectorE2E workload with the
// profiler on (the default) vs. off; the delta between the two rows is the
// price every user pays, and must stay <= 2%.

void BM_ProfScope(benchmark::State& state) {
  obs::prof::ScopedEnabled prof(state.range(0) != 0);
  for (auto _ : state) {
    CLFD_PROF_SCOPE("bench.prof_scope");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ProfScope)->ArgName("enabled")->Arg(0)->Arg(1);

void BM_ProfScopeNested(benchmark::State& state) {
  // Three-deep nesting, the typical depth under a phase (phase -> op ->
  // kernel); exercises the FindOrAddChild walk rather than a single hot
  // node.
  obs::prof::ScopedEnabled prof(true);
  for (auto _ : state) {
    CLFD_PROF_SCOPE("bench.outer");
    {
      CLFD_PROF_SCOPE("bench.mid");
      {
        CLFD_PROF_SCOPE("bench.inner");
        obs::prof::AddFlops(1);
        benchmark::ClobberMemory();
      }
    }
  }
}
BENCHMARK(BM_ProfScopeNested);

void BM_ProfCorrectorE2E(benchmark::State& state) {
  obs::prof::ScopedEnabled prof(state.range(0) != 0);
  const SweepCell cell = SmallCorrectorCell();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunSweep({cell}, /*seeds=*/1));
  }
}
BENCHMARK(BM_ProfCorrectorE2E)
    ->ArgName("prof")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The end-to-end guard: MatMul at the paper's batch/hidden dims with its
// always-on call/flop counters. Regression here vs. the seed would mean
// the tensor-layer instrumentation is not free.
void BM_MatMulInstrumented(benchmark::State& state) {
  Rng rng(6);
  Matrix a = Matrix::Randn(100, 50, 1.0f, &rng);
  Matrix b = Matrix::Randn(50, 50, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
}
BENCHMARK(BM_MatMulInstrumented);

}  // namespace
}  // namespace clfd

BENCHMARK_MAIN();
