// Scalar-oracle equivalence suite for the kernel backends
// (src/tensor/kernel_backend.h). The repo invariant under test: the
// blocked backend (the process default) is *bitwise* interchangeable with
// the scalar bodies for every kernel, every shape — including
// tile-boundary remainders, degenerate dims, signed zeros, denormals, and
// Inf inputs — at every thread width. Each case computes the oracle result
// on the scalar backend with kernels forced serial, then recomputes under
// every backend x {serial, parallel width 2, parallel width 4} and
// memcmp-compares the raw float bits. The single carve-out is NaN
// *payload* bits (EqualModuloNanPayload below): NaN-ness itself is still
// exact per element. KernelFingerprint additionally pins the MatMul
// family's output bits to committed hashes, so the oracle itself cannot
// drift unnoticed.

#include "tensor/kernel_backend.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/prof.h"
#include "parallel/thread_pool.h"
#include "tensor/matrix.h"

namespace clfd {
namespace {

// Restores the default pool width when a test resizes it.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { parallel::SetGlobalThreads(n); }
  ~ScopedThreads() { parallel::SetGlobalThreads(0); }
};

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (!a.SameShape(b)) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// Bitwise equality except that two NaNs match regardless of payload/sign
// bits. NaN payloads are the one place the backends cannot promise
// identical bits: x86 add/mul propagate *one* operand's NaN (and invalid
// operations manufacture the sign-set "indefinite" QNaN), and the
// compiler may commute FP operands — value-preserving, payload-changing —
// so which NaN survives a chain is codegen-dependent, differing across
// optimization levels and sanitizer instrumentation of the *same* source.
// Everything else — which elements are NaN, every Inf, zero sign, every
// finite bit — must still match exactly.
bool EqualModuloNanPayload(const Matrix& a, const Matrix& b) {
  if (!a.SameShape(b)) return false;
  for (int i = 0; i < a.size(); ++i) {
    uint32_t abits, bbits;
    std::memcpy(&abits, a.data() + i, sizeof(abits));
    std::memcpy(&bbits, b.data() + i, sizeof(bbits));
    if (abits == bbits) continue;
    if (!(std::isnan(a.data()[i]) && std::isnan(b.data()[i]))) return false;
  }
  return true;
}

// Random data stressing the oracle's zero-skip and rounding edge cases:
// exact +0.0f (skip taken), -0.0f (skip taken; an add of it would flush a
// -0 partial to +0), and single-precision denormals.
Matrix AdversarialRandn(int rows, int cols, Rng* rng) {
  Matrix m = Matrix::Randn(rows, cols, 1.0f, rng);
  for (int i = 0; i < m.size(); ++i) {
    const double u = rng->Uniform();
    if (u < 0.10) {
      m[i] = 0.0f;
    } else if (u < 0.15) {
      m[i] = -0.0f;
    } else if (u < 0.20) {
      m[i] = 1.2e-41f * (rng->Uniform() < 0.5 ? 1.0f : -1.0f);  // denormal
    }
  }
  return m;
}

// Computes `compute` (which may return several output matrices) on the
// scalar backend with kernels serial — the oracle — then re-runs it under
// every backend on the serial path and the row-parallel path at widths 2
// and 4, asserting bitwise equality output by output. Inputs that produce
// NaN outputs pass `nan_payload_tolerant` (see EqualModuloNanPayload).
void ExpectAllBackendsBitwiseEqual(
    const std::function<std::vector<Matrix>()>& compute,
    const std::string& what, bool nan_payload_tolerant = false) {
  const auto equal = [&](const Matrix& a, const Matrix& b) {
    return nan_payload_tolerant ? EqualModuloNanPayload(a, b)
                                : BitwiseEqual(a, b);
  };
  std::vector<Matrix> oracle;
  {
    ScopedKernelBackend scalar(KernelBackend::kScalar);
    ScopedMatmulParallelThreshold serial(
        std::numeric_limits<int64_t>::max());
    oracle = compute();
  }
  for (KernelBackend backend : AllKernelBackends()) {
    ScopedKernelBackend use(backend);
    {
      ScopedMatmulParallelThreshold serial(
          std::numeric_limits<int64_t>::max());
      std::vector<Matrix> got = compute();
      ASSERT_EQ(oracle.size(), got.size());
      for (size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_TRUE(equal(oracle[i], got[i]))
            << what << " output " << i << " backend "
            << KernelBackendName(backend) << " serial, max diff "
            << MaxAbsDiff(oracle[i], got[i]);
      }
    }
    for (int width : {2, 4}) {
      ScopedThreads threads(width);
      ScopedMatmulParallelThreshold parallel_path(0);
      std::vector<Matrix> got = compute();
      ASSERT_EQ(oracle.size(), got.size());
      for (size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_TRUE(equal(oracle[i], got[i]))
            << what << " output " << i << " backend "
            << KernelBackendName(backend) << " width " << width
            << ", max diff " << MaxAbsDiff(oracle[i], got[i]);
      }
    }
  }
}

// ---- Selector plumbing ----

// Every test that overrides the backend does so through a scope, so
// outside one the process default is what production runs.
TEST(KernelBackendSelector, DefaultIsBlocked) {
  EXPECT_EQ(CurrentKernelBackend(), KernelBackend::kBlocked);
  EXPECT_STREQ(KernelBackendName(CurrentKernelBackend()), "blocked");
}

TEST(KernelBackendSelector, AllBackendsAreScalarThenBlocked) {
  const auto& all = AllKernelBackends();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], KernelBackend::kScalar);
  EXPECT_EQ(all[1], KernelBackend::kBlocked);
  EXPECT_STREQ(KernelBackendName(all[0]), "scalar");
  EXPECT_STREQ(KernelBackendName(all[1]), "blocked");
}

TEST(KernelBackendSelector, ScopedOverrideRestores) {
  const KernelBackend before = CurrentKernelBackend();
  {
    ScopedKernelBackend use(KernelBackend::kScalar);
    EXPECT_EQ(CurrentKernelBackend(), KernelBackend::kScalar);
    {
      ScopedKernelBackend inner(KernelBackend::kBlocked);
      EXPECT_EQ(CurrentKernelBackend(), KernelBackend::kBlocked);
    }
    EXPECT_EQ(CurrentKernelBackend(), KernelBackend::kScalar);
  }
  EXPECT_EQ(CurrentKernelBackend(), before);
}

TEST(KernelBackendSelector, SelectionStampsReportAnnotation) {
  auto annotation = []() -> std::string {
    for (const auto& [key, value] : obs::prof::ReportAnnotations()) {
      if (key == "kernel_backend") return value;
    }
    return "";
  };
  {
    ScopedKernelBackend use(KernelBackend::kScalar);
    EXPECT_EQ(annotation(), "scalar");
  }
  EXPECT_EQ(annotation(), "blocked");
}

// ---- MatMul family over adversarial shapes ----

struct Shape3 {
  int m, k, n;
};

// 1x1, primes, exact register-tile multiples and their ±1 neighbours
// (kRowTile=4, kColTile=8, kDotTile=4 in matrix.cc), tall/skinny,
// zero-extent degenerates, and the 1-3 row LSTM gate projections of
// single-session scoring (paper dimensions: 50 -> 4 x 50).
const Shape3 kAdversarialShapes[] = {
    {1, 1, 1},   {1, 1, 8},   {8, 1, 1},   {1, 8, 1},   {2, 3, 5},
    {3, 5, 7},   {7, 7, 7},   {11, 13, 17}, {4, 4, 4},  {4, 8, 8},
    {8, 8, 8},   {3, 8, 8},   {5, 8, 8},   {4, 8, 7},   {4, 8, 9},
    {12, 16, 24}, {13, 17, 15}, {9, 9, 9},  {16, 4, 32}, {17, 5, 33},
    {64, 3, 5},  {3, 64, 5},  {31, 1, 33}, {1, 64, 1},  {5, 300, 9},
    {0, 3, 4},   {4, 0, 3},   {4, 3, 0},   {1, 50, 200}, {2, 50, 200},
    {3, 50, 200},
};

TEST(KernelBackendEquivalence, MatMulAdversarialShapes) {
  Rng rng(101);
  for (const Shape3& s : kAdversarialShapes) {
    Matrix a = AdversarialRandn(s.m, s.k, &rng);
    Matrix b = AdversarialRandn(s.k, s.n, &rng);
    ExpectAllBackendsBitwiseEqual(
        [&]() { return std::vector<Matrix>{MatMul(a, b)}; },
        "MatMul " + std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
            std::to_string(s.n));
  }
}

TEST(KernelBackendEquivalence, MatMulTransposeAAdversarialShapes) {
  Rng rng(102);
  for (const Shape3& s : kAdversarialShapes) {
    Matrix a = AdversarialRandn(s.k, s.m, &rng);  // result is [m x n]
    Matrix b = AdversarialRandn(s.k, s.n, &rng);
    ExpectAllBackendsBitwiseEqual(
        [&]() { return std::vector<Matrix>{MatMulTransposeA(a, b)}; },
        "MatMulTransposeA " + std::to_string(s.m) + "x" +
            std::to_string(s.k) + "x" + std::to_string(s.n));
  }
}

TEST(KernelBackendEquivalence, MatMulTransposeBAdversarialShapes) {
  Rng rng(103);
  for (const Shape3& s : kAdversarialShapes) {
    Matrix a = AdversarialRandn(s.m, s.k, &rng);
    Matrix b = AdversarialRandn(s.n, s.k, &rng);  // result is [m x n]
    ExpectAllBackendsBitwiseEqual(
        [&]() { return std::vector<Matrix>{MatMulTransposeB(a, b)}; },
        "MatMulTransposeB " + std::to_string(s.m) + "x" +
            std::to_string(s.k) + "x" + std::to_string(s.n));
  }
}

// Non-finite propagation: the zero-skip is semantic, not an optimization —
// skipping 0 * Inf avoids the NaN an "add everything" kernel would create.
// The backends must reproduce Inf/NaN placement (and NaN payload bits)
// exactly.
// Inf and NaN inputs: every backend must agree bitwise on which output
// elements go non-finite, on every Inf (sign included), and on every
// element that stays finite. NaN *payload* bits are compared tolerantly —
// see EqualModuloNanPayload for why exact NaN bits are a codegen artifact
// no source-level contract can pin down.
TEST(KernelBackendEquivalence, NonFinitePropagationBitwise) {
  Rng rng(104);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const Shape3& s : {Shape3{5, 9, 17}, Shape3{8, 16, 8},
                          Shape3{13, 7, 9}}) {
    Matrix a = AdversarialRandn(s.m, s.k, &rng);
    Matrix b = AdversarialRandn(s.k, s.n, &rng);
    for (int i = 0; i < a.size(); i += 7) a[i] = (i % 14 != 0) ? inf : nan;
    for (int i = 0; i < b.size(); i += 5) b[i] = (i % 10 != 0) ? -inf : nan;
    ExpectAllBackendsBitwiseEqual(
        [&]() { return std::vector<Matrix>{MatMul(a, b)}; },
        "MatMul non-finite", /*nan_payload_tolerant=*/true);
    Matrix bt = Transpose(b);
    ExpectAllBackendsBitwiseEqual(
        [&]() { return std::vector<Matrix>{MatMulTransposeB(a, bt)}; },
        "MatMulTransposeB non-finite", /*nan_payload_tolerant=*/true);
  }
}

// The zero-skip in every tile height, row remainders included: an exact
// ±0 A value facing an Inf row of B is skipped, so the oracle's result stays
// finite where an unskipped 0 * Inf would write NaN. (The sprinkled test
// above turns every remainder row NaN through its own Inf/NaN A values, so
// it cannot see a missing skip there.)
TEST(KernelBackendEquivalence, ZeroSkipFacingInfRows) {
  Rng rng(109);
  const float inf = std::numeric_limits<float>::infinity();
  for (const Shape3& s : {Shape3{1, 50, 200}, Shape3{2, 50, 200},
                          Shape3{3, 50, 200}, Shape3{5, 9, 17},
                          Shape3{7, 13, 9}}) {
    Matrix a = AdversarialRandn(s.m, s.k, &rng);
    Matrix b = AdversarialRandn(s.k, s.n, &rng);
    for (int i = 0; i < s.m; ++i) {
      a.at(i, 0) = 0.0f;
      a.at(i, s.k - 1) = -0.0f;
    }
    for (int j = 0; j < s.n; ++j) {
      b.at(0, j) = inf;
      b.at(s.k - 1, j) = -inf;
    }
    const Matrix at = Transpose(a);
    const std::string dims = std::to_string(s.m) + "x" +
                             std::to_string(s.k) + "x" + std::to_string(s.n);
    ExpectAllBackendsBitwiseEqual(
        [&]() { return std::vector<Matrix>{MatMul(a, b)}; },
        "MatMul zero-skip " + dims);
    ExpectAllBackendsBitwiseEqual(
        [&]() { return std::vector<Matrix>{MatMulTransposeA(at, b)}; },
        "MatMulTransposeA zero-skip " + dims);
    const Matrix c = MatMul(a, b);
    for (int i = 0; i < c.size(); ++i) {
      ASSERT_TRUE(std::isfinite(c[i])) << dims << " element " << i;
    }
  }
}

// ---- Fused LSTM kernels ----

TEST(KernelBackendEquivalence, LstmGatesForwardBackward) {
  Rng rng(105);
  struct BH {
    int b, h;
  };
  for (const BH& s : {BH{1, 1}, BH{2, 3}, BH{3, 4}, BH{4, 4}, BH{5, 8},
                      BH{7, 5}, BH{8, 12}}) {
    Matrix pre = AdversarialRandn(s.b, 4 * s.h, &rng);
    Matrix hc_prev = AdversarialRandn(s.b, 2 * s.h, &rng);
    ExpectAllBackendsBitwiseEqual(
        [&]() {
          Matrix hc, acts;
          LstmGatesForward(pre, hc_prev, &hc, &acts);
          return std::vector<Matrix>{hc, acts};
        },
        "LstmGatesForward b=" + std::to_string(s.b) +
            " h=" + std::to_string(s.h));

    Matrix hc, acts;
    LstmGatesForward(pre, hc_prev, &hc, &acts);
    Matrix gout = AdversarialRandn(s.b, 2 * s.h, &rng);
    Matrix dpre0 = AdversarialRandn(s.b, 4 * s.h, &rng);
    Matrix dhc0 = AdversarialRandn(s.b, 2 * s.h, &rng);
    ExpectAllBackendsBitwiseEqual(
        [&]() {
          Matrix dpre = dpre0;  // += semantics: fresh accumulators per run
          Matrix dhc = dhc0;
          LstmGatesBackward(gout, acts, hc_prev, &dpre, &dhc);
          return std::vector<Matrix>{dpre, dhc};
        },
        "LstmGatesBackward b=" + std::to_string(s.b) +
            " h=" + std::to_string(s.h));
  }
}

TEST(KernelBackendEquivalence, MatMulTransposeBGateBlockedAddInto) {
  Rng rng(106);
  struct GW {
    int r, c, h;
  };
  for (const GW& s : {GW{1, 1, 1}, GW{3, 5, 2}, GW{4, 4, 4}, GW{5, 9, 3},
                      GW{8, 7, 8}, GW{12, 13, 5}, GW{9, 16, 12}}) {
    Matrix g = AdversarialRandn(s.r, 4 * s.h, &rng);
    Matrix w = AdversarialRandn(s.c, 4 * s.h, &rng);
    Matrix acc0 = AdversarialRandn(s.r, s.c, &rng);
    ExpectAllBackendsBitwiseEqual(
        [&]() {
          Matrix acc = acc0;
          MatMulTransposeBGateBlockedAddInto(g, w, &acc);
          return std::vector<Matrix>{acc};
        },
        "GateBlockedAddInto r=" + std::to_string(s.r) +
            " c=" + std::to_string(s.c) + " h=" + std::to_string(s.h));
  }
}

TEST(KernelBackendEquivalence, MatMulTransposeATimeBlockedAddInto) {
  Rng rng(107);
  struct TK {
    int t, b, k, n;
  };
  for (const TK& s : {TK{1, 1, 1, 1}, TK{3, 2, 5, 7}, TK{4, 4, 8, 8},
                      TK{5, 3, 9, 17}, TK{2, 8, 13, 9}, TK{6, 5, 12, 33}}) {
    Matrix x = AdversarialRandn(s.t * s.b, s.k, &rng);
    Matrix g = AdversarialRandn(s.t * s.b, s.n, &rng);
    Matrix acc0 = AdversarialRandn(s.k, s.n, &rng);
    ExpectAllBackendsBitwiseEqual(
        [&]() {
          Matrix acc = acc0;
          MatMulTransposeATimeBlockedAddInto(x, g, s.b, &acc);
          return std::vector<Matrix>{acc};
        },
        "TimeBlockedAddInto t=" + std::to_string(s.t) +
            " b=" + std::to_string(s.b) + " k=" + std::to_string(s.k) +
            " n=" + std::to_string(s.n));
  }
}

// ---- Elementwise + softmax ----

TEST(KernelBackendEquivalence, ElementwiseAndSoftmax) {
  Rng rng(108);
  struct RC {
    int r, c;
  };
  for (const RC& s : {RC{1, 1}, RC{3, 7}, RC{5, 9}, RC{12, 33}, RC{4, 8}}) {
    Matrix a = AdversarialRandn(s.r, s.c, &rng);
    Matrix b = AdversarialRandn(s.r, s.c, &rng);
    Matrix row = AdversarialRandn(1, s.c, &rng);
    ExpectAllBackendsBitwiseEqual(
        [&]() {
          return std::vector<Matrix>{
              Add(a, b),        Sub(a, b),       Mul(a, b),
              Div(a, b),        AddScalar(a, 0.37f), MulScalar(a, -1.91f),
              Exp(a),           Log(a),          Pow(a, 1.7f),
              Tanh(a),          Sigmoid(a),      Relu(a),
              LeakyRelu(a, 0.01f), AddRowBroadcast(a, row),
              SoftmaxRows(a)};
        },
        "elementwise " + std::to_string(s.r) + "x" + std::to_string(s.c));
  }
}

// ---- Seeded property fuzz: ~1k shapes biased toward tile boundaries ----

// Half the draws land within ±1 of a register-tile multiple (4 or 8); the
// rest are uniform small dims. This is where remainder-handling bugs live.
int BoundaryBiasedDim(Rng* rng) {
  if (rng->Uniform() < 0.5) {
    const int tile = rng->Uniform() < 0.5 ? 4 : 8;
    const int mult = tile * (1 + rng->UniformInt(5));
    return std::max(1, mult + rng->UniformInt(3) - 1);  // mult - 1 .. mult + 1
  }
  return 1 + rng->UniformInt(40);
}

TEST(KernelBackendFuzz, ThousandRandomShapesBitwiseIdentical) {
  Rng rng(20260807);
  ScopedThreads threads(4);
  int parallel_runs = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    const int m = BoundaryBiasedDim(&rng);
    const int k = BoundaryBiasedDim(&rng);
    const int n = BoundaryBiasedDim(&rng);
    Matrix a = AdversarialRandn(m, k, &rng);
    Matrix b = AdversarialRandn(k, n, &rng);
    Matrix bt = AdversarialRandn(n, k, &rng);
    Matrix at = AdversarialRandn(k, m, &rng);
    Matrix e = AdversarialRandn(m, k, &rng);

    // Exercise the serial and row-parallel dispatch paths about equally.
    const bool parallel_path = rng.Uniform() < 0.5;
    parallel_runs += parallel_path ? 1 : 0;
    ScopedMatmulParallelThreshold threshold(
        parallel_path ? 0 : std::numeric_limits<int64_t>::max());

    Matrix mm, ta, tb, ew, sm;
    {
      ScopedKernelBackend scalar(KernelBackend::kScalar);
      mm = MatMul(a, b);
      ta = MatMulTransposeA(at, b);
      tb = MatMulTransposeB(a, bt);
      ew = Mul(Sigmoid(a), e);
      sm = SoftmaxRows(a);
    }
    ScopedKernelBackend blocked(KernelBackend::kBlocked);
    ASSERT_TRUE(BitwiseEqual(mm, MatMul(a, b)))
        << "MatMul " << m << "x" << k << "x" << n << " iter " << iter;
    ASSERT_TRUE(BitwiseEqual(ta, MatMulTransposeA(at, b)))
        << "MatMulTransposeA " << m << "x" << k << "x" << n << " iter "
        << iter;
    ASSERT_TRUE(BitwiseEqual(tb, MatMulTransposeB(a, bt)))
        << "MatMulTransposeB " << m << "x" << k << "x" << n << " iter "
        << iter;
    ASSERT_TRUE(BitwiseEqual(ew, Mul(Sigmoid(a), e)))
        << "elementwise " << m << "x" << k << " iter " << iter;
    ASSERT_TRUE(BitwiseEqual(sm, SoftmaxRows(a)))
        << "softmax " << m << "x" << k << " iter " << iter;
  }
  // The 50/50 dispatch split actually exercised both paths.
  EXPECT_GT(parallel_runs, 300);
  EXPECT_LT(parallel_runs, 700);
}

// ---- Committed output fingerprint ----

// A float with at most 20 significant bits in [-2, 2), or an exact +0.0f
// or -0.0f one draw in sixteen each, so the oracle's zero-skip branches
// run. A product of two such values needs up to 40 bits and rounds to 24,
// so any reordering of a k-sum changes the hash. Built from
// Rng::UniformInt alone: mt19937_64's output is fixed by the C++ standard,
// while std::normal_distribution and libm differ between toolchains.
float FingerprintValue(Rng* rng) {
  const int kind = rng->UniformInt(16);
  if (kind == 0) return 0.0f;
  if (kind == 1) return -0.0f;
  return static_cast<float>(rng->UniformInt(1 << 20) - (1 << 19)) /
         static_cast<float>(1 << 18);
}

Matrix FingerprintMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) m[i] = FingerprintValue(rng);
  return m;
}

// FNV-1a over the shape and the raw float bits, byte order fixed.
void HashInto(const Matrix& m, uint64_t* h) {
  const auto mix = [h](uint32_t v) {
    for (int byte = 0; byte < 4; ++byte) {
      *h ^= (v >> (8 * byte)) & 0xffu;
      *h *= 1099511628211ull;
    }
  };
  mix(static_cast<uint32_t>(m.rows()));
  mix(static_cast<uint32_t>(m.cols()));
  for (int i = 0; i < m.size(); ++i) {
    uint32_t bits;
    std::memcpy(&bits, m.data() + i, sizeof(bits));
    mix(bits);
  }
}

constexpr uint64_t kFnvOffset = 14695981039346656037ull;

enum FingerprintKernel {
  kFpMatMul,
  kFpMatMulTransposeA,
  kFpMatMulTransposeB,
  kFpGateBlockedAddInto,
  kFpTimeBlockedAddInto,
  kFpKernelCount,
};

const char* const kFingerprintKernelNames[kFpKernelCount] = {
    "MatMul", "MatMulTransposeA", "MatMulTransposeB",
    "MatMulTransposeBGateBlockedAddInto",
    "MatMulTransposeATimeBlockedAddInto"};

// One hash per MatMul-family kernel over a fixed shape list: register-tile
// edges and their ±1 neighbours (kRowTile/kDotTile 4, kColTile 8, the
// 256-wide k-panel), primes, and zero extents. Inputs are regenerated from
// fixed seeds on every call, so the result depends only on the kernels
// and the active backend, width and parallel threshold.
std::vector<uint64_t> MatMulFamilyFingerprints() {
  std::vector<uint64_t> hashes(kFpKernelCount, kFnvOffset);
  const Shape3 shapes[] = {
      {1, 1, 1},    {2, 3, 5},    {3, 7, 9},   {4, 8, 8},    {5, 9, 7},
      {7, 4, 15},   {8, 16, 17},  {11, 13, 23}, {12, 31, 16}, {13, 29, 37},
      {9, 255, 7},  {4, 256, 8},  {5, 257, 9}, {17, 513, 3}, {41, 5, 33},
      {0, 3, 4},    {4, 0, 3},    {4, 3, 0},
  };
  Rng rng(20261016);
  for (const Shape3& s : shapes) {
    const Matrix a = FingerprintMatrix(s.m, s.k, &rng);
    const Matrix b = FingerprintMatrix(s.k, s.n, &rng);
    const Matrix at = FingerprintMatrix(s.k, s.m, &rng);
    const Matrix bt = FingerprintMatrix(s.n, s.k, &rng);
    HashInto(MatMul(a, b), &hashes[kFpMatMul]);
    HashInto(MatMulTransposeA(at, b), &hashes[kFpMatMulTransposeA]);
    HashInto(MatMulTransposeB(a, bt), &hashes[kFpMatMulTransposeB]);
  }
  struct GateShape {
    int rows, cols, h;
  };
  for (const GateShape& s :
       {GateShape{1, 1, 1}, GateShape{3, 5, 2}, GateShape{4, 4, 4},
        GateShape{5, 9, 3}, GateShape{8, 7, 8}, GateShape{13, 17, 5},
        GateShape{9, 16, 12}, GateShape{0, 3, 2}, GateShape{3, 0, 2},
        GateShape{4, 5, 0}}) {
    const Matrix g = FingerprintMatrix(s.rows, 4 * s.h, &rng);
    const Matrix w = FingerprintMatrix(s.cols, 4 * s.h, &rng);
    Matrix acc = FingerprintMatrix(s.rows, s.cols, &rng);
    MatMulTransposeBGateBlockedAddInto(g, w, &acc);
    HashInto(acc, &hashes[kFpGateBlockedAddInto]);
  }
  struct TimeShape {
    int t, b, k, n;
  };
  for (const TimeShape& s :
       {TimeShape{1, 1, 1, 1}, TimeShape{3, 2, 5, 7}, TimeShape{4, 4, 8, 8},
        TimeShape{5, 3, 9, 17}, TimeShape{2, 8, 13, 9},
        TimeShape{6, 5, 12, 33}, TimeShape{7, 3, 4, 8},
        TimeShape{0, 3, 4, 5}, TimeShape{3, 4, 0, 5},
        TimeShape{3, 4, 5, 0}}) {
    const Matrix x = FingerprintMatrix(s.t * s.b, s.k, &rng);
    const Matrix g = FingerprintMatrix(s.t * s.b, s.n, &rng);
    Matrix acc = FingerprintMatrix(s.k, s.n, &rng);
    MatMulTransposeATimeBlockedAddInto(x, g, s.b, &acc);
    HashInto(acc, &hashes[kFpTimeBlockedAddInto]);
  }
  return hashes;
}

// The committed hashes were generated once by the scalar backend with
// every kernel serial. They hold only for builds that neither re-associate
// nor contract float arithmetic (no -ffast-math, no FMA contraction;
// DESIGN.md §12). A change to them is a deliberate, reviewed event: the
// failure message prints the new value.
TEST(KernelFingerprint, MatMulFamilyMatchesCommittedHashes) {
  const uint64_t kExpected[kFpKernelCount] = {
      0xa28ae2e8f6b792adull,  // MatMul
      0x29717fa67482346aull,  // MatMulTransposeA
      0x880a1679a7e87fa1ull,  // MatMulTransposeB
      0x34c3526f8a7acfabull,  // MatMulTransposeBGateBlockedAddInto
      0x8d88c250e2405eb1ull,  // MatMulTransposeATimeBlockedAddInto
  };
  for (KernelBackend backend : AllKernelBackends()) {
    ScopedKernelBackend use(backend);
    for (int width : {1, 2, 4}) {
      ScopedThreads threads(width);
      for (bool parallel_path : {false, true}) {
        ScopedMatmulParallelThreshold threshold(
            parallel_path ? 0 : std::numeric_limits<int64_t>::max());
        const std::vector<uint64_t> got = MatMulFamilyFingerprints();
        for (int i = 0; i < kFpKernelCount; ++i) {
          EXPECT_EQ(got[i], kExpected[i])
              << kFingerprintKernelNames[i] << " backend "
              << KernelBackendName(backend) << " width " << width
              << (parallel_path ? " row-parallel" : " serial") << ": got 0x"
              << std::hex << got[i];
        }
      }
    }
  }
}

}  // namespace
}  // namespace clfd
