#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "autograd/var.h"
#include "common/check.h"
#include "common/rng.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"
#include "tensor/arena.h"
#include "tensor/matrix.h"

namespace clfd {
namespace {

TEST(ArenaTest, BumpAllocateResetAndReuse) {
  arena::Arena a(/*initial_floats=*/64);
  float* p1 = a.Allocate(10);
  ASSERT_NE(p1, nullptr);
  // 16-float granularity: a 10-float request consumes one full block.
  EXPECT_EQ(a.floats_in_use(), 16u);
  float* p2 = a.Allocate(16);
  EXPECT_EQ(a.floats_in_use(), 32u);
  EXPECT_NE(p1, p2);
  a.Reset();
  EXPECT_EQ(a.floats_in_use(), 0u);
  // The first chunk is recycled: same block comes back after Reset.
  EXPECT_EQ(a.Allocate(10), p1);
}

TEST(ArenaTest, GrowsNewChunksWhenFull) {
  arena::Arena a(/*initial_floats=*/32);
  a.Allocate(32);
  EXPECT_EQ(a.chunk_count(), 1);
  // Does not fit the remaining space of chunk 0 -> a second chunk.
  a.Allocate(64);
  EXPECT_EQ(a.chunk_count(), 2);
  EXPECT_GE(a.floats_reserved(), 96u);
  size_t reserved = a.floats_reserved();
  a.Reset();
  // Reset recycles the chunks instead of freeing them.
  EXPECT_EQ(a.floats_reserved(), reserved);
  EXPECT_EQ(a.floats_in_use(), 0u);
}

TEST(ArenaTest, ScopedArenaRoutesMatrixStorage) {
  arena::Arena a;
  {
    arena::ScopedArena scope(&a);
    Matrix m(4, 5, 2.5f);
    EXPECT_GE(a.floats_in_use(), 20u);
    for (int i = 0; i < m.size(); ++i) EXPECT_EQ(m[i], 2.5f);
  }
  size_t used = a.floats_in_use();
  // Outside the scope Matrix storage goes back to the heap.
  Matrix heap_backed(8, 8, 1.0f);
  EXPECT_EQ(a.floats_in_use(), used);
  EXPECT_EQ(heap_backed[0], 1.0f);
}

TEST(ArenaTest, ResetPoisonsRecycledMemoryUnderChecks) {
  check::ScopedEnable checks(true);
  arena::Arena a(64);
  float* p = a.Allocate(16);
  // A fresh chunk is not zero-filled; under checks it reads NaN, so a
  // Matrix read before its first write fails CheckFinite too.
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(std::isnan(p[i])) << i;
  for (int i = 0; i < 16; ++i) p[i] = 1.0f;
  a.Reset();
  // Same block, but the old values are gone: a Matrix that escaped its
  // step reads NaN and the next CheckFinite fires.
  float* q = a.Allocate(16);
  ASSERT_EQ(q, p);
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(std::isnan(q[i])) << i;
}

TEST(ArenaTest, MatrixCopyAndMoveAcrossBackings) {
  arena::Arena a;
  Matrix heap_m(3, 3, 4.0f);
  {
    arena::ScopedArena scope(&a);
    // Heap -> arena copy and arena -> arena move.
    Matrix arena_copy = heap_m;
    EXPECT_EQ(MaxAbsDiff(arena_copy, heap_m), 0.0f);
    Matrix moved = std::move(arena_copy);
    EXPECT_EQ(MaxAbsDiff(moved, heap_m), 0.0f);
  }
  // Arena -> heap copy after the scope closes (values still live until the
  // next Reset): the copy re-allocates on the heap and detaches.
  Matrix inner(0, 0);
  {
    arena::ScopedArena scope(&a);
    inner = Matrix(2, 2, 7.0f);
  }
  Matrix back = inner;
  a.Reset();
  EXPECT_EQ(back.at(1, 1), 7.0f);
}

// Five optimizer steps of a 2-layer LSTM, once with every tensor on the
// heap (a null ScopedArena) and once with every step's tape on a recycled
// arena. The resulting parameters must agree to the last bit: the arena
// only changes *where* the bytes live, never what they hold.
std::vector<Matrix> TrainSmallLstm(bool arena_on,
                                   const std::vector<std::vector<Matrix>>&
                                       data,
                                   arena::Arena* probe_reserved_after2,
                                   size_t* reserved_after2) {
  Rng rng(7);
  nn::Lstm lstm(4, 5, 2, &rng);
  // Constructed outside any scope: parameter values, gradients and moment
  // buffers are heap-backed and survive the per-step resets.
  nn::Adam opt(lstm.Parameters(), 0.05f);
  arena::Arena fallback;
  arena::Arena* step_arena =
      probe_reserved_after2 != nullptr ? probe_reserved_after2 : &fallback;
  for (size_t step = 0; step < data.size(); ++step) {
    step_arena->Reset();
    arena::ScopedArena scope(arena_on ? step_arena : nullptr);
    std::vector<ag::Var> steps;
    for (const Matrix& m : data[step]) steps.push_back(ag::Constant(m));
    auto hs = lstm.Forward(steps);
    ag::Var loss = ag::SumAll(ag::Mul(hs.back(), hs.back()));
    ag::Backward(loss);
    opt.Step();
    if (step == 1 && reserved_after2 != nullptr) {
      *reserved_after2 = step_arena->floats_reserved();
    }
  }
  std::vector<Matrix> out;
  for (const ag::Var& p : lstm.Parameters()) out.push_back(p.value());
  return out;
}

TEST(ArenaTest, TrainingBitwiseIdenticalArenaOnOff) {
  Rng data_rng(21);
  std::vector<std::vector<Matrix>> data(5);
  for (auto& step : data) {
    for (int t = 0; t < 3; ++t) {
      step.push_back(Matrix::Randn(2, 4, 1.0f, &data_rng));
    }
  }
  std::vector<Matrix> off =
      TrainSmallLstm(false, data, nullptr, nullptr);
  std::vector<Matrix> on = TrainSmallLstm(true, data, nullptr, nullptr);
  ASSERT_EQ(off.size(), on.size());
  for (size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(MaxAbsDiff(off[i], on[i]), 0.0f) << "param " << i;
  }
}

TEST(ArenaTest, ArenaStopsGrowingAfterWarmup) {
  Rng data_rng(22);
  // Identically-shaped steps: after the first step sized the chunks, later
  // steps must recycle them without reserving any new memory.
  std::vector<std::vector<Matrix>> data(6);
  for (auto& step : data) {
    for (int t = 0; t < 3; ++t) {
      step.push_back(Matrix::Randn(2, 4, 1.0f, &data_rng));
    }
  }
  arena::Arena step_arena;
  size_t reserved_after2 = 0;
  TrainSmallLstm(true, data, &step_arena, &reserved_after2);
  EXPECT_GT(reserved_after2, 0u);
  EXPECT_EQ(step_arena.floats_reserved(), reserved_after2);
}

}  // namespace
}  // namespace clfd
