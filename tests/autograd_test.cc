#include <gtest/gtest.h>

#include <cmath>

#include "autograd/grad_check.h"
#include "autograd/var.h"
#include "common/rng.h"
#include "tensor/matrix.h"

namespace clfd {
namespace ag {
namespace {

Var P(const Matrix& m) { return Param(m); }

// Convenience: finite-difference check of a scalar-graph builder over
// freshly initialized params.
void ExpectGradOk(const std::function<Var(const std::vector<Var>&)>& fn,
                  const std::vector<Var>& params, float tol = 2e-2f) {
  auto r = CheckGradients(fn, params);
  EXPECT_TRUE(r.ok(tol)) << "max_abs=" << r.max_abs_error
                         << " max_rel=" << r.max_rel_error
                         << " parallel_diff=" << r.serial_parallel_grad_diff;
}

TEST(AutogradTest, ScalarChain) {
  // loss = sum((x * 3 + 1)^2); d/dx = 6 * (3x + 1).
  Var x = P(Matrix::FromRows({{2.0f}}));
  Var y = AddScalar(Scale(x, 3.0f), 1.0f);
  Var loss = SumAll(Mul(y, y));
  Backward(loss);
  EXPECT_NEAR(x.grad()[0], 6.0f * 7.0f, 1e-4f);
}

TEST(AutogradTest, GradAccumulatesAcrossBackwardCalls) {
  Var x = P(Matrix::FromRows({{1.0f}}));
  for (int i = 0; i < 2; ++i) {
    Var loss = SumAll(Scale(x, 5.0f));
    Backward(loss);
  }
  EXPECT_NEAR(x.grad()[0], 10.0f, 1e-5f);
}

TEST(AutogradTest, ConstantGetsNoGradient) {
  Var x = P(Matrix::FromRows({{1.0f, 2.0f}}));
  Var c = Constant(Matrix::FromRows({{3.0f, 4.0f}}));
  Var loss = SumAll(Mul(x, c));
  Backward(loss);
  EXPECT_FALSE(c.requires_grad());
  EXPECT_NEAR(x.grad()[0], 3.0f, 1e-5f);
  EXPECT_NEAR(x.grad()[1], 4.0f, 1e-5f);
}

TEST(AutogradTest, DiamondGraphAccumulates) {
  // loss = sum(x*x + x); shared x used twice.
  Var x = P(Matrix::FromRows({{3.0f}}));
  Var loss = SumAll(Add(Mul(x, x), x));
  Backward(loss);
  EXPECT_NEAR(x.grad()[0], 7.0f, 1e-4f);
}

TEST(AutogradGradCheck, MatMul) {
  Rng rng(1);
  std::vector<Var> params = {P(Matrix::Randn(3, 4, 0.5f, &rng)),
                             P(Matrix::Randn(4, 2, 0.5f, &rng))};
  ExpectGradOk(
      [](const std::vector<Var>& p) {
        return SumAll(Mul(MatMul(p[0], p[1]), MatMul(p[0], p[1])));
      },
      params);
}

TEST(AutogradGradCheck, MatMulTransposeB) {
  Rng rng(2);
  std::vector<Var> params = {P(Matrix::Randn(3, 4, 0.5f, &rng)),
                             P(Matrix::Randn(5, 4, 0.5f, &rng))};
  ExpectGradOk(
      [](const std::vector<Var>& p) {
        Var s = MatMulTransposeB(p[0], p[1]);
        return SumAll(Mul(s, s));
      },
      params);
}

TEST(AutogradGradCheck, AddSubMulElementwise) {
  Rng rng(3);
  std::vector<Var> params = {P(Matrix::Randn(2, 3, 1.0f, &rng)),
                             P(Matrix::Randn(2, 3, 1.0f, &rng))};
  ExpectGradOk(
      [](const std::vector<Var>& p) {
        return SumAll(Mul(Sub(Add(p[0], p[1]), Mul(p[0], p[1])), p[0]));
      },
      params);
}

TEST(AutogradGradCheck, AddRowBroadcastBias) {
  Rng rng(4);
  std::vector<Var> params = {P(Matrix::Randn(4, 3, 1.0f, &rng)),
                             P(Matrix::Randn(1, 3, 1.0f, &rng))};
  ExpectGradOk(
      [](const std::vector<Var>& p) {
        Var y = AddRowBroadcast(p[0], p[1]);
        return SumAll(Mul(y, y));
      },
      params);
}

TEST(AutogradGradCheck, Activations) {
  Rng rng(5);
  std::vector<Var> params = {P(Matrix::Randn(3, 3, 1.0f, &rng))};
  ExpectGradOk(
      [](const std::vector<Var>& p) { return SumAll(Tanh(p[0])); }, params);
  ExpectGradOk(
      [](const std::vector<Var>& p) { return SumAll(Sigmoid(p[0])); }, params);
  ExpectGradOk(
      [](const std::vector<Var>& p) { return SumAll(LeakyRelu(p[0], 0.1f)); },
      params);
}

TEST(AutogradGradCheck, ExpLogPow) {
  Rng rng(6);
  // Keep values positive and away from zero for log/pow stability.
  Matrix m = Matrix::Randn(3, 3, 0.1f, &rng);
  for (int i = 0; i < m.size(); ++i) m[i] = 1.0f + std::abs(m[i]);
  std::vector<Var> params = {P(m)};
  ExpectGradOk(
      [](const std::vector<Var>& p) { return SumAll(Exp(Scale(p[0], 0.3f))); },
      params);
  ExpectGradOk(
      [](const std::vector<Var>& p) { return SumAll(Log(p[0])); }, params);
  ExpectGradOk(
      [](const std::vector<Var>& p) { return SumAll(Pow(p[0], 0.7f)); },
      params);
}

TEST(AutogradGradCheck, SoftmaxRows) {
  Rng rng(7);
  std::vector<Var> params = {P(Matrix::Randn(4, 5, 1.0f, &rng)),
                             P(Matrix::Randn(4, 5, 1.0f, &rng))};
  ExpectGradOk(
      [](const std::vector<Var>& p) {
        return SumAll(Mul(SoftmaxRows(p[0]), p[1]));
      },
      params);
}

TEST(AutogradGradCheck, SumRowsAndMeanAll) {
  Rng rng(8);
  std::vector<Var> params = {P(Matrix::Randn(3, 4, 1.0f, &rng))};
  ExpectGradOk(
      [](const std::vector<Var>& p) {
        Var sr = SumRows(p[0]);
        return MeanAll(Mul(sr, sr));
      },
      params);
}

TEST(AutogradGradCheck, ConcatAndSlice) {
  Rng rng(9);
  std::vector<Var> params = {P(Matrix::Randn(2, 3, 1.0f, &rng)),
                             P(Matrix::Randn(3, 3, 1.0f, &rng))};
  ExpectGradOk(
      [](const std::vector<Var>& p) {
        Var cat = ConcatRows({p[0], p[1]});
        Var mid = SliceRows(cat, 1, 4);
        return SumAll(Mul(mid, mid));
      },
      params);
}

TEST(AutogradGradCheck, SliceCols) {
  Rng rng(31);
  std::vector<Var> params = {P(Matrix::Randn(3, 9, 1.0f, &rng))};
  ExpectGradOk(
      [](const std::vector<Var>& p) {
        // Two slices at column offsets that overlap in columns 3-4, so those
        // columns accumulate gradient from both and columns 0 and 8 get none.
        Var a = SliceCols(p[0], 1, 5);
        Var b = SliceCols(p[0], 3, 8);
        return Add(SumAll(Mul(a, a)), SumAll(Mul(b, b)));
      },
      params);
}

TEST(AutogradGradCheck, LstmPackedMatMul) {
  Rng rng(32);
  std::vector<Var> params = {P(Matrix::Randn(3, 4, 0.5f, &rng)),
                             P(Matrix::Randn(4, 8, 0.5f, &rng))};
  ExpectGradOk(
      [](const std::vector<Var>& p) {
        // w is [in x 4H] with H = 2, the packed-gate layout the gate-blocked
        // backward kernel assumes.
        Var s = LstmPackedMatMul(p[0], p[1]);
        return SumAll(Mul(s, s));
      },
      params);
}

TEST(AutogradGradCheck, LstmInputProjection) {
  Rng rng(33);
  // x is a [T*B x in] constant (T = 3, B = 2); only the weight trains,
  // matching how the fused layer-0 projection is used.
  Matrix xcat = Matrix::Randn(6, 3, 0.7f, &rng);
  std::vector<Var> params = {P(Matrix::Randn(3, 8, 0.5f, &rng))};
  ExpectGradOk(
      [xcat](const std::vector<Var>& p) {
        Var s = LstmInputProjection(xcat, p[0], 2);
        return SumAll(Mul(s, s));
      },
      params);
}

TEST(AutogradGradCheck, LstmGates) {
  Rng rng(34);
  // pre [B x 4H], hc_prev [B x 2H] with B = 3, H = 2. Both require grad so
  // the fused backward's dpre and dhc_prev paths are both checked; the loss
  // reads the full [h|c] output so dh and the external dc both flow.
  std::vector<Var> params = {P(Matrix::Randn(3, 8, 0.8f, &rng)),
                             P(Matrix::Randn(3, 4, 0.8f, &rng))};
  ExpectGradOk(
      [](const std::vector<Var>& p) {
        Var hc = LstmGates(p[0], p[1]);
        return SumAll(Mul(hc, hc));
      },
      params);
}

TEST(AutogradGradCheck, LstmGatesChained) {
  Rng rng(35);
  // Two chained gate ops, as in a real unroll: step 2's hc_prev is step 1's
  // output, so dhc_prev flows through the recurrent path of the kernel.
  std::vector<Var> params = {P(Matrix::Randn(2, 8, 0.6f, &rng)),
                             P(Matrix::Randn(2, 8, 0.6f, &rng)),
                             P(Matrix::Randn(2, 4, 0.6f, &rng))};
  ExpectGradOk(
      [](const std::vector<Var>& p) {
        Var hc1 = LstmGates(p[0], p[2]);
        Var hc2 = LstmGates(p[1], hc1);
        return SumAll(Mul(hc2, hc2));
      },
      params);
}

TEST(AutogradGradCheck, NormalizeRowsCosine) {
  Rng rng(10);
  std::vector<Var> params = {P(Matrix::Randn(3, 4, 1.0f, &rng)),
                             P(Matrix::Randn(3, 4, 1.0f, &rng))};
  ExpectGradOk(
      [](const std::vector<Var>& p) {
        // Cosine similarity matrix between two sets of rows.
        Var s = MatMulTransposeB(NormalizeRows(p[0]), NormalizeRows(p[1]));
        return SumAll(Mul(s, s));
      },
      params);
}

TEST(AutogradGradCheck, RowScaleConst) {
  Rng rng(11);
  Matrix col = Matrix::FromRows({{0.5f}, {2.0f}, {0.0f}});
  std::vector<Var> params = {P(Matrix::Randn(3, 4, 1.0f, &rng))};
  ExpectGradOk(
      [col](const std::vector<Var>& p) {
        Var y = RowScaleConst(p[0], col);
        return SumAll(Mul(y, y));
      },
      params);
}

TEST(AutogradTest, NormalizeRowsProducesUnitNorm) {
  Rng rng(12);
  Var x = P(Matrix::Randn(5, 8, 2.0f, &rng));
  Var n = NormalizeRows(x);
  for (int r = 0; r < 5; ++r) {
    EXPECT_NEAR(RowNorm(n.value(), r), 1.0f, 1e-4f);
  }
}

TEST(AutogradTest, DeepChainDoesNotOverflowStack) {
  // Simulates a long LSTM unroll: 5000 chained ops.
  Var x = P(Matrix::FromRows({{1.0f}}));
  Var y = x;
  for (int i = 0; i < 5000; ++i) y = AddScalar(Scale(y, 0.9999f), 0.0f);
  Var loss = SumAll(y);
  Backward(loss);
  EXPECT_NEAR(x.grad()[0], std::pow(0.9999f, 5000.0f), 1e-3f);
}

TEST(AutogradTest, SoftmaxCrossEntropyDirection) {
  // Minimizing CE via the graph must increase the target prob.
  Rng rng(13);
  Var w = P(Matrix::Randn(1, 2, 0.1f, &rng));
  for (int step = 0; step < 50; ++step) {
    Var probs = SoftmaxRows(w);
    Var target = Constant(Matrix::FromRows({{1.0f, 0.0f}}));
    Var loss = Scale(SumAll(Mul(target, Log(probs))), -1.0f);
    w.node()->grad = Matrix(1, 2);
    Backward(loss);
    w.mutable_value().AddScaled(w.grad(), -0.5f);
  }
  Matrix final_probs = SoftmaxRows(w.value());
  EXPECT_GT(final_probs.at(0, 0), 0.9f);
}

}  // namespace
}  // namespace ag
}  // namespace clfd
