#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "autograd/var.h"
#include "common/check.h"
#include "common/rng.h"
#include "losses/contrastive.h"
#include "losses/robust_losses.h"
#include "nn/classifier.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "plan/plan.h"
#include "tensor/arena.h"
#include "tensor/matrix.h"

namespace clfd {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) {
    m[i] = static_cast<float>(rng->Gaussian(0.0, 1.0));
  }
  return m;
}

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<size_t>(a.size())),
            0)
      << what << ": values diverge (max abs diff " << MaxAbsDiff(a, b) << ")";
}

// One classifier training step: mini-batch forward, GCE loss, backward,
// Adam update. A Planner captures it once per batch row count.
float ClassifierStep(nn::FeedForwardClassifier* model, nn::Adam* optimizer,
                     const Matrix& features, const Matrix& targets) {
  ag::Var probs = model->ForwardProbs(ag::Constant(features));
  ag::Var loss = GceLoss(probs, targets, 0.7f);
  ag::Backward(loss);
  optimizer->Step();
  return loss.value()[0];
}

// Runs one classifier training step per entry of `rows_per_step` (the
// batch's row count, which is also the plan key), planned or dynamic, and
// returns the per-step losses. Models are seeded identically by the caller.
std::vector<float> TrainClassifier(nn::FeedForwardClassifier* model,
                                   bool planned,
                                   const std::vector<int>& rows_per_step,
                                   plan::Planner* planner) {
  Rng data_rng(99);
  nn::Adam optimizer(model->Parameters(), 0.01f);
  std::vector<float> losses;
  for (int rows : rows_per_step) {
    Matrix features = RandomMatrix(rows, 5, &data_rng);
    Matrix targets(rows, 2);
    for (int r = 0; r < rows; ++r) targets.at(r, r % 2) = 1.0f;
    auto body = [&]() -> float {
      return ClassifierStep(model, &optimizer, features, targets);
    };
    if (planned) {
      losses.push_back(planner->Step(
          plan::MakeKey(static_cast<uint64_t>(rows)), nullptr, body));
    } else {
      losses.push_back(body());
    }
  }
  return losses;
}

void ExpectParametersBitwiseEqual(nn::FeedForwardClassifier* a,
                                  nn::FeedForwardClassifier* b) {
  auto pa = a->Parameters();
  auto pb = b->Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ExpectBitwiseEqual(pa[i].value(), pb[i].value(), "parameter value");
    ExpectBitwiseEqual(pa[i].grad(), pb[i].grad(), "parameter gradient");
  }
}

TEST(PlanTest, ClassifierStepsBitwiseIdenticalToDynamic) {
  Rng init_a(7), init_b(7);
  nn::FeedForwardClassifier planned_model(5, 8, 2, &init_a);
  nn::FeedForwardClassifier dynamic_model(5, 8, 2, &init_b);

  const std::vector<int> rows(5, 6);
  plan::Planner planner;
  std::vector<float> planned_losses =
      TrainClassifier(&planned_model, true, rows, &planner);
  std::vector<float> dynamic_losses =
      TrainClassifier(&dynamic_model, false, rows, nullptr);

  EXPECT_EQ(planner.captures(), 1);
  EXPECT_EQ(planner.replays(), 4);
  EXPECT_EQ(planner.invalidations(), 0);
  ASSERT_EQ(planned_losses.size(), dynamic_losses.size());
  for (size_t i = 0; i < planned_losses.size(); ++i) {
    EXPECT_EQ(planned_losses[i], dynamic_losses[i]) << "step " << i;
  }
  ExpectParametersBitwiseEqual(&planned_model, &dynamic_model);
}

// True when some op-slot value buffer of `a` shares memory with one of `b`.
bool OpSlotBuffersOverlap(const plan::ExecutionPlan& a,
                          const plan::ExecutionPlan& b) {
  for (const auto& sa : a.slots()) {
    const Matrix& va = sa.node->value;
    if (sa.leaf || va.empty()) continue;
    for (const auto& sb : b.slots()) {
      const Matrix& vb = sb.node->value;
      if (sb.leaf || vb.empty()) continue;
      if (va.data() < vb.data() + vb.size() &&
          vb.data() < va.data() + va.size()) {
        return true;
      }
    }
  }
  return false;
}

// Two keys of one Planner, stepped alternately, share the Planner's
// workspace: each capture lays its plan over the other's buffers, and every
// step must still match a plan-free twin bit for bit. Checks stay on, so
// each capture NaN-poisons the workspace and a buffer that carried state
// from one step into the next would trip CheckFinite.
TEST(PlanTest, PlansOfOnePlannerShareOneWorkspaceBitwise) {
  check::ScopedEnable checks(true);
  Rng init_a(7), init_b(7);
  nn::FeedForwardClassifier planned_model(5, 8, 2, &init_a);
  nn::FeedForwardClassifier dynamic_model(5, 8, 2, &init_b);

  const std::vector<int> rows = {6, 9, 6, 9, 6, 9};
  plan::Planner planner;
  EXPECT_EQ(TrainClassifier(&planned_model, true, rows, &planner),
            TrainClassifier(&dynamic_model, false, rows, nullptr));
  EXPECT_EQ(planner.captures(), 2);
  EXPECT_EQ(planner.replays(), 4);
  EXPECT_EQ(planner.invalidations(), 0);
  ExpectParametersBitwiseEqual(&planned_model, &dynamic_model);
  const plan::ExecutionPlan* plan6 = planner.plan(plan::MakeKey(6));
  const plan::ExecutionPlan* plan9 = planner.plan(plan::MakeKey(9));
  ASSERT_NE(plan6, nullptr);
  ASSERT_NE(plan9, nullptr);
  EXPECT_TRUE(OpSlotBuffersOverlap(*plan6, *plan9))
      << "the two plans hold disjoint buffers, not one shared workspace";
}

TEST(PlanTest, AdamStateBitwiseIdenticalAfterFiveSteps) {
  Rng init_a(11), init_b(11);
  nn::FeedForwardClassifier planned_model(4, 6, 2, &init_a);
  nn::FeedForwardClassifier dynamic_model(4, 6, 2, &init_b);
  nn::Adam planned_opt(planned_model.Parameters(), 0.02f);
  nn::Adam dynamic_opt(dynamic_model.Parameters(), 0.02f);

  Rng data_rng_a(5), data_rng_b(5);
  plan::Planner planner;
  arena::Arena arena_b;
  for (int i = 0; i < 5; ++i) {
    Matrix fa = RandomMatrix(6, 4, &data_rng_a);
    Matrix fb = RandomMatrix(6, 4, &data_rng_b);
    Matrix targets(6, 2);
    for (int r = 0; r < 6; ++r) targets.at(r, r % 2) = 1.0f;
    planner.Step(plan::MakeKey(6), nullptr, [&]() -> float {
      return ClassifierStep(&planned_model, &planned_opt, fa, targets);
    });
    {
      arena_b.Reset();
      arena::ScopedArena scope(&arena_b);
      ClassifierStep(&dynamic_model, &dynamic_opt, fb, targets);
    }
  }
  EXPECT_EQ(planned_opt.step_count(), dynamic_opt.step_count());
  ASSERT_EQ(planned_opt.first_moments().size(),
            dynamic_opt.first_moments().size());
  for (size_t i = 0; i < planned_opt.first_moments().size(); ++i) {
    ExpectBitwiseEqual(planned_opt.first_moments()[i],
                       dynamic_opt.first_moments()[i], "Adam m");
    ExpectBitwiseEqual(planned_opt.second_moments()[i],
                       dynamic_opt.second_moments()[i], "Adam v");
  }
}

// Contrastive heads: the SimCLR (NT-Xent) and SupCon graphs replay
// bitwise, including their softmax/normalize auxiliary state.
TEST(PlanTest, ContrastiveLossesReplayBitwise) {
  for (int variant = 0; variant < 2; ++variant) {
    Rng init_a(21), init_b(21);
    nn::Linear head_a(6, 4, &init_a);
    nn::Linear head_b(6, 4, &init_b);
    std::vector<int> labels = {0, 1, 0, 1, 1, 0, 0, 1};
    std::vector<double> confidences(labels.size(), 0.9);

    auto run = [&](nn::Linear* head, bool planned,
                   plan::Planner* planner) -> std::vector<float> {
      Rng data_rng(31);
      nn::Adam optimizer(head->Parameters(), 0.05f);
      std::vector<float> losses;
      for (int i = 0; i < 4; ++i) {
        Matrix x = RandomMatrix(8, 6, &data_rng);
        auto body = [&]() -> float {
          ag::Var z = head->Forward(ag::Constant(x));
          ag::Var loss =
              variant == 0
                  ? NtXentLoss(z, 0.5f)
                  : SupConLoss(z, labels, confidences, /*num_anchors=*/6,
                               /*alpha=*/0.1f);
          ag::Backward(loss);
          optimizer.Step();
          return loss.value()[0];
        };
        losses.push_back(planned
                             ? planner->Step(plan::MakeKey(8), nullptr, body)
                             : body());
      }
      return losses;
    };

    plan::Planner planner;
    std::vector<float> planned_losses = run(&head_a, true, &planner);
    std::vector<float> dynamic_losses = run(&head_b, false, nullptr);
    EXPECT_EQ(planner.replays(), 3) << "variant " << variant;
    for (size_t i = 0; i < planned_losses.size(); ++i) {
      EXPECT_EQ(planned_losses[i], dynamic_losses[i])
          << "variant " << variant << " step " << i;
    }
    ExpectBitwiseEqual(head_a.Parameters()[0].value(),
                       head_b.Parameters()[0].value(), "head weight");
  }
}

TEST(PlanTest, ReplayBuildsZeroTapeNodes) {
  Rng init(3);
  nn::FeedForwardClassifier model(4, 6, 2, &init);
  nn::Adam optimizer(model.Parameters(), 0.01f);
  Rng data_rng(13);
  Matrix targets(5, 2);
  for (int r = 0; r < 5; ++r) targets.at(r, r % 2) = 1.0f;

  plan::Planner planner;
  obs::Counter* nodes =
      obs::MetricsRegistry::Get().GetCounter("autograd.tape.nodes_created");
  for (int i = 0; i < 3; ++i) {
    Matrix features = RandomMatrix(5, 4, &data_rng);
    int64_t before = nodes->value();
    planner.Step(plan::MakeKey(5), nullptr, [&]() -> float {
      return ClassifierStep(&model, &optimizer, features, targets);
    });
    int64_t created = nodes->value() - before;
    if (i == 0) {
      EXPECT_GT(created, 0) << "capture step must build the dynamic tape";
    } else {
      EXPECT_EQ(created, 0) << "replay step " << i << " built tape nodes";
    }
  }
  EXPECT_EQ(planner.replays(), 2);
}

TEST(PlanTest, ShapeChangeInvalidatesFallsBackThenBlacklists) {
  Rng init(17);
  nn::FeedForwardClassifier model(4, 6, 2, &init);
  nn::Adam optimizer(model.Parameters(), 0.01f);
  Rng data_rng(19);
  plan::Planner planner;

  // Deliberately key every step the same while alternating the real batch
  // shape: 5 rows, 5 rows (replay), 7 rows (mismatch -> fallback),
  // 7 (re-capture), 5 (mismatch #2 -> blacklist), 5, 7 (both dynamic).
  int rows_per_step[] = {5, 5, 7, 7, 5, 5, 7};
  std::vector<float> losses;
  for (int rows : rows_per_step) {
    Matrix features = RandomMatrix(rows, 4, &data_rng);
    Matrix targets(rows, 2);
    for (int r = 0; r < rows; ++r) targets.at(r, r % 2) = 1.0f;
    losses.push_back(
        planner.Step(plan::MakeKey(0), nullptr, [&]() -> float {
          return ClassifierStep(&model, &optimizer, features, targets);
        }));
  }
  EXPECT_EQ(planner.captures(), 2);
  EXPECT_EQ(planner.invalidations(), 2);
  EXPECT_EQ(planner.replays(), 1);

  // The mixed planned/fallback run must match a pure dynamic twin bitwise.
  Rng init2(17);
  nn::FeedForwardClassifier twin(4, 6, 2, &init2);
  nn::Adam twin_opt(twin.Parameters(), 0.01f);
  Rng twin_rng(19);
  arena::Arena twin_arena;
  std::vector<float> twin_losses;
  for (int rows : rows_per_step) {
    Matrix features = RandomMatrix(rows, 4, &twin_rng);
    Matrix targets(rows, 2);
    for (int r = 0; r < rows; ++r) targets.at(r, r % 2) = 1.0f;
    twin_arena.Reset();
    arena::ScopedArena scope(&twin_arena);
    twin_losses.push_back(ClassifierStep(&twin, &twin_opt, features, targets));
  }
  EXPECT_EQ(losses, twin_losses);
  ExpectBitwiseEqual(model.Parameters()[0].value(),
                     twin.Parameters()[0].value(), "post-fallback weight");
}

TEST(PlanTest, RngRestoredOnFallbackRerun) {
  // A body that draws from the RNG before mismatching must see the same
  // draws again on the dynamic rerun, or batch composition would silently
  // change on invalidation.
  plan::Planner planner;
  Rng rng(23);
  std::vector<float> draws;
  int rows_per_step[] = {3, 4};
  for (int rows : rows_per_step) {
    planner.Step(plan::MakeKey(0), &rng, [&]() -> float {
      draws.push_back(static_cast<float>(rng.Uniform()));
      ag::Var x = ag::Param(RandomMatrix(rows, 2, &rng));
      ag::Var loss = ag::SumAll(ag::Mul(x, x));
      ag::Backward(loss);
      return loss.value()[0];
    });
  }
  EXPECT_EQ(planner.invalidations(), 1);
  // Step 2 ran its body twice (mismatched replay, then dynamic rerun), so
  // the pre-tape draw appears twice — and bitwise identically, proving the
  // snapshot restore.
  ASSERT_EQ(draws.size(), 3u);
  EXPECT_EQ(draws[1], draws[2]);

  Rng twin(23);
  EXPECT_EQ(draws[0], static_cast<float>(twin.Uniform()));
}

TEST(PlanTest, ReplayStepsAllocateNothingForTheTape) {
  Rng data_rng(31);
  // Checks stay on: the arena NaN-poisons recycled storage under checks, so
  // a replay that dangled into the previous step's arena data would trip
  // the CheckFinite every replayed op runs.
  check::ScopedEnable checks(true);
  plan::Planner planner;

  obs::Counter* arena_allocs =
      obs::MetricsRegistry::Get().GetCounter("tensor.alloc.arena_count");
  obs::Counter* heap_allocs =
      obs::MetricsRegistry::Get().GetCounter("tensor.alloc.count");
  arena::Arena::Mark end_marks[4];
  for (int i = 0; i < 4; ++i) {
    int64_t arena_before = arena_allocs->value();
    int64_t heap_before = heap_allocs->value();
    planner.Step(plan::MakeKey(5), nullptr, [&]() -> float {
      ag::Var x = ag::Param(RandomMatrix(5, 2, &data_rng));
      ag::Var loss = ag::SumAll(ag::Tanh(x));
      ag::Backward(loss);
      end_marks[i] = arena::Current()->Position();
      return loss.value()[0];
    });
    if (i > 0) {
      // In-place replay recomputes every node into the plan's buffers in
      // the Planner's workspace and re-zeros interior gradients in place;
      // Tanh/SumAll backwards are pure loops. The only allocation left in a
      // replayed step is the fresh batch matrix built inside the body (the
      // leaf rebind), on the Planner's step arena, and nothing touches the
      // heap.
      EXPECT_EQ(arena_allocs->value() - arena_before, 1)
          << "replay step " << i << " allocated from the step arena";
      EXPECT_EQ(heap_allocs->value() - heap_before, 0)
          << "replay step " << i << " allocated from the heap";
    }
  }
  EXPECT_EQ(planner.replays(), 3);
  // Replays perform identical allocation sequences, so the deterministic
  // bump allocator leaves its cursor at the same offset after each one.
  for (int i = 2; i < 4; ++i) {
    EXPECT_TRUE(end_marks[i] == end_marks[1]) << "step " << i;
  }
  const plan::ExecutionPlan* plan = planner.plan(plan::MakeKey(5));
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->num_slots(), 0u);
}

// A capture keeps the buffers its step built instead of copying them, so
// capturing a classifier step allocates exactly what the same step
// allocates on the dynamic tape.
TEST(PlanTest, CaptureAllocatesWhatTheDynamicStepAllocates) {
  Rng init_a(7), init_b(7);
  nn::FeedForwardClassifier planned_model(5, 8, 2, &init_a);
  nn::FeedForwardClassifier dynamic_model(5, 8, 2, &init_b);
  nn::Adam planned_opt(planned_model.Parameters(), 0.01f);
  nn::Adam dynamic_opt(dynamic_model.Parameters(), 0.01f);
  Rng data_rng(99);
  Matrix features = RandomMatrix(6, 5, &data_rng);
  Matrix targets(6, 2);
  for (int r = 0; r < 6; ++r) targets.at(r, r % 2) = 1.0f;

  obs::Counter* heap_allocs =
      obs::MetricsRegistry::Get().GetCounter("tensor.alloc.count");
  obs::Counter* arena_allocs =
      obs::MetricsRegistry::Get().GetCounter("tensor.alloc.arena_count");
  auto allocs = [&] { return heap_allocs->value() + arena_allocs->value(); };

  plan::Planner planner;
  int64_t before = allocs();
  float planned_loss =
      planner.Step(plan::MakeKey(6), nullptr, [&]() -> float {
        return ClassifierStep(&planned_model, &planned_opt, features,
                              targets);
      });
  const int64_t captured = allocs() - before;
  before = allocs();
  float dynamic_loss =
      ClassifierStep(&dynamic_model, &dynamic_opt, features, targets);
  const int64_t dynamic = allocs() - before;

  EXPECT_EQ(planner.captures(), 1);
  EXPECT_EQ(planned_loss, dynamic_loss);
  EXPECT_GT(dynamic, 0);
  EXPECT_EQ(captured, dynamic);
}

// A plan body that opens an arena of its own would leave the plan holding
// buffers that the arena's owner recycles under it: the Planner refuses
// the capture and pins the key to the dynamic tape, whose steps still
// match a plan-free twin bit for bit.
TEST(PlanTest, CaptureOnAForeignArenaIsRefused) {
  Rng init_a(7), init_b(7);
  nn::FeedForwardClassifier planned_model(5, 8, 2, &init_a);
  nn::FeedForwardClassifier dynamic_model(5, 8, 2, &init_b);
  nn::Adam planned_opt(planned_model.Parameters(), 0.01f);
  nn::Adam dynamic_opt(dynamic_model.Parameters(), 0.01f);
  Rng data_rng(99);
  obs::Counter* uncapturable =
      obs::MetricsRegistry::Get().GetCounter("plan.uncapturable");
  const int64_t uncapturable_before = uncapturable->value();

  plan::Planner planner;
  arena::Arena foreign;
  for (int i = 0; i < 3; ++i) {
    Matrix features = RandomMatrix(6, 5, &data_rng);
    Matrix targets(6, 2);
    for (int r = 0; r < 6; ++r) targets.at(r, r % 2) = 1.0f;
    float planned_loss =
        planner.Step(plan::MakeKey(6), nullptr, [&]() -> float {
          foreign.Reset();
          arena::ScopedArena scope(&foreign);
          return ClassifierStep(&planned_model, &planned_opt, features,
                                targets);
        });
    float dynamic_loss =
        ClassifierStep(&dynamic_model, &dynamic_opt, features, targets);
    EXPECT_EQ(planned_loss, dynamic_loss) << "step " << i;
  }
  EXPECT_EQ(planner.captures(), 0);
  EXPECT_EQ(planner.replays(), 0);
  EXPECT_EQ(planner.plan(plan::MakeKey(6)), nullptr);
  EXPECT_EQ(uncapturable->value() - uncapturable_before, 1);
  ExpectParametersBitwiseEqual(&planned_model, &dynamic_model);
}

TEST(PlanTest, SplitForwardBackwardMatchesDynamic) {
  // The sharded trainer's shape: forward in one region, an external seed,
  // then BackwardWithGrad in another region. Two row counts alternate, as
  // shard lengths do, so the two keys' plans share the Planner's workspace.
  check::ScopedEnable checks(true);
  Rng init_a(37), init_b(37);
  nn::Linear head_a(3, 2, &init_a);
  nn::Linear head_b(3, 2, &init_b);
  Rng data_rng(41);
  const int rows_per_step[] = {4, 7, 4, 7, 4, 7};
  std::vector<Matrix> xs;
  for (int rows : rows_per_step) xs.push_back(RandomMatrix(rows, 3, &data_rng));

  // Per step: the root value, then the weight and bias grads.
  auto run = [&](nn::Linear* head,
                 plan::Planner* planner) -> std::vector<Matrix> {
    std::vector<Matrix> out;
    for (const Matrix& x : xs) {
      nn::ZeroGrads(head->Parameters());
      auto fwd = [&]() -> ag::Var {
        return head->Forward(ag::Constant(x));
      };
      const uint64_t key = plan::MakeKey(static_cast<uint64_t>(x.rows()));
      ag::Var root = planner != nullptr
                         ? planner->ForwardStep(key, nullptr, fwd)
                         : fwd();
      Matrix seed(x.rows(), 2, 1.0f);
      auto bwd = [&]() { ag::BackwardWithGrad(root, seed); };
      if (planner != nullptr) {
        planner->BackwardStep(bwd);
      } else {
        bwd();
      }
      out.push_back(root.value());
      for (const ag::Var& p : head->Parameters()) out.push_back(p.grad());
    }
    return out;
  };

  plan::Planner planner;
  std::vector<Matrix> planned = run(&head_a, &planner);
  std::vector<Matrix> dynamic = run(&head_b, nullptr);
  EXPECT_EQ(planner.captures(), 2);
  EXPECT_EQ(planner.replays(), 4);
  ASSERT_EQ(planned.size(), dynamic.size());
  for (size_t i = 0; i < planned.size(); ++i) {
    std::string what = "step " + std::to_string(i / 3) +
                       (i % 3 == 0   ? " root value"
                        : i % 3 == 1 ? " weight grad"
                                     : " bias grad");
    ExpectBitwiseEqual(planned[i], dynamic[i], what.c_str());
  }
}

// Once a planned backward began, a mismatch cannot fall back to the
// dynamic tape (gradients may already have moved): in both the one-shot
// and the split step it drops the plan and fails as an invariant error.
TEST(PlanTest, MismatchOnceTheBackwardBeganFails) {
  Rng data_rng(43);
  {
    plan::Planner planner;
    for (int step = 0; step < 2; ++step) {
      auto body = [&]() -> float {
        ag::Var x = ag::Param(RandomMatrix(3, 2, &data_rng));
        ag::Var loss = ag::SumAll(ag::Mul(x, x));
        ag::Backward(loss);
        if (step == 1) loss = ag::Tanh(loss);  // one op past the plan
        return loss.value()[0];
      };
      if (step == 0) {
        planner.Step(plan::MakeKey(3), nullptr, body);
      } else {
        EXPECT_THROW(planner.Step(plan::MakeKey(3), nullptr, body),
                     check::InvariantError);
      }
    }
    EXPECT_EQ(planner.invalidations(), 1);
    EXPECT_EQ(planner.plan(plan::MakeKey(3)), nullptr);
  }
  {
    Rng init(47);
    nn::Linear head(3, 2, &init);
    Matrix x = RandomMatrix(4, 3, &data_rng);
    plan::Planner planner;
    for (int step = 0; step < 2; ++step) {
      ag::Var root =
          planner.ForwardStep(plan::MakeKey(4), nullptr, [&]() -> ag::Var {
            return head.Forward(ag::Constant(x));
          });
      if (step == 0) {
        planner.BackwardStep(
            [&] { ag::BackwardWithGrad(root, Matrix(4, 2, 1.0f)); });
      } else {
        // The replayed forward is followed by an unseeded backward.
        EXPECT_THROW(planner.BackwardStep([&] { ag::Backward(root); }),
                     check::InvariantError);
      }
    }
    EXPECT_EQ(planner.replays(), 0);
    EXPECT_EQ(planner.invalidations(), 1);
    EXPECT_EQ(planner.plan(plan::MakeKey(4)), nullptr);
  }
}

// One row per ag:: op kind: the shapes of its Param inputs and how to build
// the op from them. `aux` is a per-step constant matrix for the two ops that
// take one (RowScaleConst's scale column, LstmInputProjection's input
// block); `positive` keeps Log's and Pow's inputs in [0.5, 1.5).
struct OpCase {
  const char* op;
  std::vector<std::pair<int, int>> shapes;
  std::function<ag::Var(const std::vector<ag::Var>&, const Matrix& aux)> build;
  std::pair<int, int> aux = {0, 0};
  bool positive = false;
};

std::vector<OpCase> OpCases() {
  using In = const std::vector<ag::Var>&;
  return {
      {"ag::MatMul", {{3, 4}, {4, 2}},
       [](In in, const Matrix&) { return ag::MatMul(in[0], in[1]); }},
      {"ag::MatMulTransposeB", {{3, 4}, {2, 4}},
       [](In in, const Matrix&) { return ag::MatMulTransposeB(in[0], in[1]); }},
      {"ag::Add", {{3, 4}, {3, 4}},
       [](In in, const Matrix&) { return ag::Add(in[0], in[1]); }},
      {"ag::Sub", {{3, 4}, {3, 4}},
       [](In in, const Matrix&) { return ag::Sub(in[0], in[1]); }},
      {"ag::Mul", {{3, 4}, {3, 4}},
       [](In in, const Matrix&) { return ag::Mul(in[0], in[1]); }},
      {"ag::AddScalar", {{3, 4}},
       [](In in, const Matrix&) { return ag::AddScalar(in[0], 0.25f); }},
      {"ag::Scale", {{3, 4}},
       [](In in, const Matrix&) { return ag::Scale(in[0], -1.5f); }},
      {"ag::AddRowBroadcast", {{3, 4}, {1, 4}},
       [](In in, const Matrix&) { return ag::AddRowBroadcast(in[0], in[1]); }},
      {"ag::RowScaleConst", {{3, 4}},
       [](In in, const Matrix& aux) { return ag::RowScaleConst(in[0], aux); },
       {3, 1}},
      {"ag::Exp", {{3, 4}},
       [](In in, const Matrix&) { return ag::Exp(in[0]); }},
      {"ag::Log", {{3, 4}},
       [](In in, const Matrix&) { return ag::Log(in[0]); }, {0, 0}, true},
      {"ag::Pow", {{3, 4}},
       [](In in, const Matrix&) { return ag::Pow(in[0], 1.5f); }, {0, 0},
       true},
      {"ag::Tanh", {{3, 4}},
       [](In in, const Matrix&) { return ag::Tanh(in[0]); }},
      {"ag::Sigmoid", {{3, 4}},
       [](In in, const Matrix&) { return ag::Sigmoid(in[0]); }},
      {"ag::Relu", {{3, 4}},
       [](In in, const Matrix&) { return ag::Relu(in[0]); }},
      {"ag::LeakyRelu", {{3, 4}},
       [](In in, const Matrix&) { return ag::LeakyRelu(in[0], 0.1f); }},
      {"ag::SoftmaxRows", {{3, 4}},
       [](In in, const Matrix&) { return ag::SoftmaxRows(in[0]); }},
      {"ag::SumAll", {{3, 4}},
       [](In in, const Matrix&) { return ag::SumAll(in[0]); }},
      {"ag::SumRows", {{3, 4}},
       [](In in, const Matrix&) { return ag::SumRows(in[0]); }},
      {"ag::ConcatRows", {{2, 3}, {1, 3}, {3, 3}},
       [](In in, const Matrix&) { return ag::ConcatRows(in); }},
      {"ag::SliceRows", {{5, 3}},
       [](In in, const Matrix&) { return ag::SliceRows(in[0], 1, 4); }},
      {"ag::SliceCols", {{3, 5}},
       [](In in, const Matrix&) { return ag::SliceCols(in[0], 1, 4); }},
      {"ag::LstmPackedMatMul", {{3, 4}, {4, 8}},
       [](In in, const Matrix&) { return ag::LstmPackedMatMul(in[0], in[1]); }},
      {"ag::LstmInputProjection", {{4, 8}},
       [](In in, const Matrix& aux) {
         return ag::LstmInputProjection(aux, in[0], /*block_rows=*/2);
       },
       {6, 4}},
      {"ag::LstmGates", {{2, 8}, {2, 4}},
       [](In in, const Matrix&) { return ag::LstmGates(in[0], in[1]); }},
      {"ag::NormalizeRows", {{3, 4}},
       [](In in, const Matrix&) { return ag::NormalizeRows(in[0]); }},
  };
}

struct OpStepResult {
  Matrix value;
  std::vector<Matrix> grads;
};

// Builds `c` on step-`step` inputs (fixed per step, fresh each step) and
// backpropagates a fixed seed through it.
OpStepResult RunOpStep(const OpCase& c, int step) {
  Rng rng(static_cast<uint64_t>(53 + step));
  auto input = [&](int rows, int cols, bool positive) {
    Matrix m = RandomMatrix(rows, cols, &rng);
    if (positive) {
      for (int i = 0; i < m.size(); ++i) {
        m[i] = 0.5f + static_cast<float>(rng.Uniform());
      }
    }
    return m;
  };
  std::vector<ag::Var> in;
  for (auto [rows, cols] : c.shapes) {
    in.push_back(ag::Param(input(rows, cols, c.positive)));
  }
  Matrix aux = input(c.aux.first, c.aux.second, false);
  ag::Var out = c.build(in, aux);
  ag::BackwardWithGrad(out, input(out.rows(), out.cols(), false));
  OpStepResult r{out.value(), {}};
  for (const ag::Var& v : in) r.grads.push_back(v.grad());
  return r;
}

// Every op kind, one at a time: a step captured and then replayed twice
// through a Planner gives the dynamic tape's values and input gradients bit
// for bit.
TEST(PlanTest, EveryOpKindReplaysBitwise) {
  check::ScopedEnable checks(true);
  std::set<std::string> kinds;
  for (const OpCase& c : OpCases()) {
    plan::Planner planner;
    for (int step = 0; step < 3; ++step) {
      OpStepResult planned;
      planner.Step(plan::MakeKey(1), nullptr, [&]() -> float {
        planned = RunOpStep(c, step);
        return 0.0f;
      });
      OpStepResult dynamic = RunOpStep(c, step);
      std::string what = std::string(c.op) + " step " + std::to_string(step);
      ExpectBitwiseEqual(planned.value, dynamic.value, what.c_str());
      ASSERT_EQ(planned.grads.size(), dynamic.grads.size()) << what;
      for (size_t i = 0; i < planned.grads.size(); ++i) {
        std::string grad = what + " input " + std::to_string(i) + " grad";
        ExpectBitwiseEqual(planned.grads[i], dynamic.grads[i], grad.c_str());
      }
    }
    EXPECT_EQ(planner.captures(), 1) << c.op;
    EXPECT_EQ(planner.replays(), 2) << c.op;
    const plan::ExecutionPlan* plan = planner.plan(plan::MakeKey(1));
    ASSERT_NE(plan, nullptr) << c.op;
    for (const auto& slot : plan->slots()) {
      if (!slot.leaf) {
        EXPECT_STREQ(slot.op, c.op);
        kinds.insert(slot.op);
      }
    }
  }
  EXPECT_EQ(kinds.size(), 26u);
}

}  // namespace
}  // namespace clfd
