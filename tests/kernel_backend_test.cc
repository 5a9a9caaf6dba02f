// Kernel suite for src/tensor/matrix.h. The repo invariant under test:
// each register-tiled MatMul-family kernel is *bitwise* equal to its serial
// reference function (namespace reference) for every shape — including
// tile-boundary remainders, degenerate dims, signed zeros, denormals, and
// Inf inputs — on the serial path and on the row-parallel path at widths 2
// and 4, comparing the raw float bits. The single carve-out is NaN
// *payload* bits (EqualModuloNanPayload below): NaN-ness itself is still
// exact per element. KernelFingerprint pins the output bits of the kernels
// and of the references to committed hashes, so neither can drift
// unnoticed, and does the same for the kernels that have one body and no
// reference (fused LSTM gates, elementwise ops, softmax).

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
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
// bits. NaN payloads are the one place a kernel and its reference cannot
// promise identical bits: x86 add/mul propagate *one* operand's NaN (and
// invalid operations manufacture the sign-set "indefinite" QNaN), and the
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

// Random data stressing the zero-skip and rounding edge cases:
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

// The five MatMul-family entry points, so one test body can run either the
// kernels or their serial references (tensor/matrix.h).
struct MatMulFamily {
  Matrix (*mat_mul)(const Matrix&, const Matrix&);
  Matrix (*transpose_a)(const Matrix&, const Matrix&);
  Matrix (*transpose_b)(const Matrix&, const Matrix&);
  void (*gate_blocked_add)(const Matrix&, const Matrix&, Matrix*);
  void (*time_blocked_add)(const Matrix&, const Matrix&, int, Matrix*);
};

const MatMulFamily kKernels = {
    MatMul, MatMulTransposeA, MatMulTransposeB,
    MatMulTransposeBGateBlockedAddInto, MatMulTransposeATimeBlockedAddInto};
const MatMulFamily kReference = {
    reference::MatMul, reference::MatMulTransposeA,
    reference::MatMulTransposeB, reference::MatMulTransposeBGateBlockedAddInto,
    reference::MatMulTransposeATimeBlockedAddInto};

using FamilyCompute =
    std::function<std::vector<Matrix>(const MatMulFamily& family)>;

// Computes `compute` (which may return several output matrices) once on the
// references with kernels serial, then on the kernels on the serial path
// and on the row-parallel path at widths 2 and 4, asserting bitwise
// equality output by output. A `compute` that ignores its family compares
// a kernel's serial path with its parallel paths. Inputs that produce NaN
// outputs pass `nan_payload_tolerant` (see EqualModuloNanPayload).
void ExpectKernelsMatchReference(const FamilyCompute& compute,
                                 const std::string& what,
                                 bool nan_payload_tolerant = false) {
  const auto equal = [&](const Matrix& a, const Matrix& b) {
    return nan_payload_tolerant ? EqualModuloNanPayload(a, b)
                                : BitwiseEqual(a, b);
  };
  std::vector<Matrix> want;
  const auto check = [&](const std::string& path) {
    const std::vector<Matrix> got = compute(kKernels);
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(equal(want[i], got[i]))
          << what << " output " << i << " " << path << ", max diff "
          << MaxAbsDiff(want[i], got[i]);
    }
  };
  {
    ScopedMatmulParallelThreshold serial(std::numeric_limits<int64_t>::max());
    want = compute(kReference);
    check("serial");
  }
  for (int width : {2, 4}) {
    ScopedThreads threads(width);
    ScopedMatmulParallelThreshold parallel_path(0);
    check("width " + std::to_string(width));
  }
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

std::string Dims(const Shape3& s) {
  return std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
         std::to_string(s.n);
}

TEST(KernelReference, MatMulAdversarialShapes) {
  Rng rng(101);
  for (const Shape3& s : kAdversarialShapes) {
    Matrix a = AdversarialRandn(s.m, s.k, &rng);
    Matrix b = AdversarialRandn(s.k, s.n, &rng);
    ExpectKernelsMatchReference(
        [&](const MatMulFamily& f) {
          return std::vector<Matrix>{f.mat_mul(a, b)};
        },
        "MatMul " + Dims(s));
  }
}

TEST(KernelReference, MatMulTransposeAAdversarialShapes) {
  Rng rng(102);
  for (const Shape3& s : kAdversarialShapes) {
    Matrix a = AdversarialRandn(s.k, s.m, &rng);  // result is [m x n]
    Matrix b = AdversarialRandn(s.k, s.n, &rng);
    ExpectKernelsMatchReference(
        [&](const MatMulFamily& f) {
          return std::vector<Matrix>{f.transpose_a(a, b)};
        },
        "MatMulTransposeA " + Dims(s));
  }
}

TEST(KernelReference, MatMulTransposeBAdversarialShapes) {
  Rng rng(103);
  for (const Shape3& s : kAdversarialShapes) {
    Matrix a = AdversarialRandn(s.m, s.k, &rng);
    Matrix b = AdversarialRandn(s.n, s.k, &rng);  // result is [m x n]
    ExpectKernelsMatchReference(
        [&](const MatMulFamily& f) {
          return std::vector<Matrix>{f.transpose_b(a, b)};
        },
        "MatMulTransposeB " + Dims(s));
  }
}

// Non-finite propagation: the zero-skip is semantic, not an optimization —
// skipping 0 * Inf avoids the NaN an "add everything" kernel would create.
// Inf and NaN inputs: kernel and reference must agree bitwise on which
// output elements go non-finite, on every Inf (sign included), and on every
// element that stays finite. NaN *payload* bits are compared tolerantly —
// see EqualModuloNanPayload for why exact NaN bits are a codegen artifact
// no source-level contract can pin down.
TEST(KernelReference, NonFinitePropagationBitwise) {
  Rng rng(104);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const Shape3& s : {Shape3{5, 9, 17}, Shape3{8, 16, 8},
                          Shape3{13, 7, 9}}) {
    Matrix a = AdversarialRandn(s.m, s.k, &rng);
    Matrix b = AdversarialRandn(s.k, s.n, &rng);
    for (int i = 0; i < a.size(); i += 7) a[i] = (i % 14 != 0) ? inf : nan;
    for (int i = 0; i < b.size(); i += 5) b[i] = (i % 10 != 0) ? -inf : nan;
    ExpectKernelsMatchReference(
        [&](const MatMulFamily& f) {
          return std::vector<Matrix>{f.mat_mul(a, b)};
        },
        "MatMul non-finite", /*nan_payload_tolerant=*/true);
    Matrix bt = Transpose(b);
    ExpectKernelsMatchReference(
        [&](const MatMulFamily& f) {
          return std::vector<Matrix>{f.transpose_b(a, bt)};
        },
        "MatMulTransposeB non-finite", /*nan_payload_tolerant=*/true);
  }
}

// The zero-skip in every tile height, row remainders included: an exact
// ±0 A value facing an Inf row of B is skipped, so the result stays finite
// where an unskipped 0 * Inf would write NaN. (The sprinkled test above
// turns every remainder row NaN through its own Inf/NaN A values, so it
// cannot see a missing skip there.)
TEST(KernelReference, ZeroSkipFacingInfRows) {
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
    ExpectKernelsMatchReference(
        [&](const MatMulFamily& f) {
          return std::vector<Matrix>{f.mat_mul(a, b)};
        },
        "MatMul zero-skip " + Dims(s));
    ExpectKernelsMatchReference(
        [&](const MatMulFamily& f) {
          return std::vector<Matrix>{f.transpose_a(at, b)};
        },
        "MatMulTransposeA zero-skip " + Dims(s));
    const Matrix c = MatMul(a, b);
    for (int i = 0; i < c.size(); ++i) {
      ASSERT_TRUE(std::isfinite(c[i])) << Dims(s) << " element " << i;
    }
  }
}

// ---- Fused LSTM kernels ----

// The gate kernels have one body and no reference; they dispatch rows, so
// their serial path must match their row-parallel path at widths 2 and 4.
TEST(KernelWidthInvariance, LstmGatesForwardBackward) {
  Rng rng(105);
  struct BH {
    int b, h;
  };
  for (const BH& s : {BH{1, 1}, BH{2, 3}, BH{3, 4}, BH{4, 4}, BH{5, 8},
                      BH{7, 5}, BH{8, 12}}) {
    Matrix pre = AdversarialRandn(s.b, 4 * s.h, &rng);
    Matrix hc_prev = AdversarialRandn(s.b, 2 * s.h, &rng);
    ExpectKernelsMatchReference(
        [&](const MatMulFamily&) {
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
    ExpectKernelsMatchReference(
        [&](const MatMulFamily&) {
          Matrix dpre = dpre0;  // += semantics: fresh accumulators per run
          Matrix dhc = dhc0;
          LstmGatesBackward(gout, acts, hc_prev, &dpre, &dhc);
          return std::vector<Matrix>{dpre, dhc};
        },
        "LstmGatesBackward b=" + std::to_string(s.b) +
            " h=" + std::to_string(s.h));
  }
}

TEST(KernelReference, MatMulTransposeBGateBlockedAddInto) {
  Rng rng(106);
  struct GW {
    int r, c, h;
  };
  for (const GW& s : {GW{1, 1, 1}, GW{3, 5, 2}, GW{4, 4, 4}, GW{5, 9, 3},
                      GW{8, 7, 8}, GW{12, 13, 5}, GW{9, 16, 12}}) {
    Matrix g = AdversarialRandn(s.r, 4 * s.h, &rng);
    Matrix w = AdversarialRandn(s.c, 4 * s.h, &rng);
    Matrix acc0 = AdversarialRandn(s.r, s.c, &rng);
    ExpectKernelsMatchReference(
        [&](const MatMulFamily& f) {
          Matrix acc = acc0;
          f.gate_blocked_add(g, w, &acc);
          return std::vector<Matrix>{acc};
        },
        "GateBlockedAddInto r=" + std::to_string(s.r) +
            " c=" + std::to_string(s.c) + " h=" + std::to_string(s.h));
  }
}

TEST(KernelReference, MatMulTransposeATimeBlockedAddInto) {
  Rng rng(107);
  struct TK {
    int t, b, k, n;
  };
  for (const TK& s : {TK{1, 1, 1, 1}, TK{3, 2, 5, 7}, TK{4, 4, 8, 8},
                      TK{5, 3, 9, 17}, TK{2, 8, 13, 9}, TK{6, 5, 12, 33}}) {
    Matrix x = AdversarialRandn(s.t * s.b, s.k, &rng);
    Matrix g = AdversarialRandn(s.t * s.b, s.n, &rng);
    Matrix acc0 = AdversarialRandn(s.k, s.n, &rng);
    ExpectKernelsMatchReference(
        [&](const MatMulFamily& f) {
          Matrix acc = acc0;
          f.time_blocked_add(x, g, s.b, &acc);
          return std::vector<Matrix>{acc};
        },
        "TimeBlockedAddInto t=" + std::to_string(s.t) +
            " b=" + std::to_string(s.b) + " k=" + std::to_string(s.k) +
            " n=" + std::to_string(s.n));
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

TEST(KernelReferenceFuzz, ThousandRandomShapesBitwiseIdentical) {
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
    AdversarialRandn(m, k, &rng);  // unused; keeps the seed's shape sequence

    // Exercise the serial and row-parallel dispatch paths about equally.
    const bool parallel_path = rng.Uniform() < 0.5;
    parallel_runs += parallel_path ? 1 : 0;
    ScopedMatmulParallelThreshold threshold(
        parallel_path ? 0 : std::numeric_limits<int64_t>::max());

    const std::string dims = std::to_string(m) + "x" + std::to_string(k) +
                             "x" + std::to_string(n) + " iter " +
                             std::to_string(iter);
    ASSERT_TRUE(BitwiseEqual(reference::MatMul(a, b), MatMul(a, b)))
        << "MatMul " << dims;
    ASSERT_TRUE(BitwiseEqual(reference::MatMulTransposeA(at, b),
                             MatMulTransposeA(at, b)))
        << "MatMulTransposeA " << dims;
    ASSERT_TRUE(BitwiseEqual(reference::MatMulTransposeB(a, bt),
                             MatMulTransposeB(a, bt)))
        << "MatMulTransposeB " << dims;
  }
  // The 50/50 dispatch split actually exercised both paths.
  EXPECT_GT(parallel_runs, 300);
  EXPECT_LT(parallel_runs, 700);
}

// ---- Committed output fingerprints ----

// A float with at most 20 significant bits in [-2, 2), or an exact +0.0f
// or -0.0f one draw in sixteen each, so the zero-skip branches run. A
// product of two such values needs up to 40 bits and rounds to 24, so any
// reordering of a k-sum changes the hash. Built from Rng::UniformInt
// alone: mt19937_64's output is fixed by the C++ standard, while
// std::normal_distribution and libm differ between toolchains.
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

constexpr uint64_t kFnvOffset = 14695981039346656037ull;

// Kernel name -> FNV-1a hash of all its outputs.
using Fingerprints = std::map<std::string, uint64_t>;

// Mixes the shape and the raw float bits of `m` into the kernel's hash,
// byte order fixed. Every NaN hashes as one quiet-NaN pattern, since which
// payload survives is codegen-dependent (EqualModuloNanPayload).
void HashInto(const Matrix& m, const std::string& kernel, Fingerprints* fp) {
  uint64_t* h = &fp->try_emplace(kernel, kFnvOffset).first->second;
  const auto mix = [h](uint32_t v) {
    for (int byte = 0; byte < 4; ++byte) {
      *h ^= (v >> (8 * byte)) & 0xffu;
      *h *= 1099511628211ull;
    }
  };
  mix(static_cast<uint32_t>(m.rows()));
  mix(static_cast<uint32_t>(m.cols()));
  for (int i = 0; i < m.size(); ++i) {
    uint32_t bits = 0x7fc00000u;
    if (!std::isnan(m[i])) std::memcpy(&bits, m.data() + i, sizeof(bits));
    mix(bits);
  }
}

// Runs `check` on the serial and on the row-parallel path at widths 1, 2
// and 4.
void ForEveryWidthAndPath(
    const std::function<void(const std::string& config)>& check) {
  for (int width : {1, 2, 4}) {
    ScopedThreads threads(width);
    for (bool parallel_path : {false, true}) {
      ScopedMatmulParallelThreshold threshold(
          parallel_path ? 0 : std::numeric_limits<int64_t>::max());
      check("width " + std::to_string(width) +
            (parallel_path ? " row-parallel" : " serial"));
    }
  }
}

// A change to a committed hash is a deliberate, reviewed event: the failure
// message prints the new value.
void ExpectFingerprints(const Fingerprints& got, const Fingerprints& want,
                        const std::string& config) {
  EXPECT_EQ(got.size(), want.size()) << config;
  for (const auto& [kernel, hash] : want) {
    const auto it = got.find(kernel);
    ASSERT_NE(it, got.end()) << kernel;
    EXPECT_EQ(it->second, hash)
        << kernel << " " << config << ": got 0x" << std::hex << it->second;
  }
}

// One hash per MatMul-family kernel over a fixed shape list: register-tile
// edges and their ±1 neighbours (kRowTile/kDotTile 4, kColTile 8, the
// 256-wide k-panel), primes, and zero extents. Inputs are regenerated from
// fixed seeds on every call, so the result depends only on `f` and the
// active width and parallel threshold.
Fingerprints MatMulFamilyFingerprints(const MatMulFamily& f) {
  Fingerprints fp;
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
    HashInto(f.mat_mul(a, b), "MatMul", &fp);
    HashInto(f.transpose_a(at, b), "MatMulTransposeA", &fp);
    HashInto(f.transpose_b(a, bt), "MatMulTransposeB", &fp);
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
    f.gate_blocked_add(g, w, &acc);
    HashInto(acc, "MatMulTransposeBGateBlockedAddInto", &fp);
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
    f.time_blocked_add(x, g, s.b, &acc);
    HashInto(acc, "MatMulTransposeATimeBlockedAddInto", &fp);
  }
  return fp;
}

// The committed hashes were generated by the scalar bodies with every
// kernel serial. They hold only for builds that neither re-associate nor
// contract float arithmetic (no -ffast-math, no FMA contraction; DESIGN.md
// §12).
TEST(KernelFingerprint, MatMulFamilyMatchesCommittedHashes) {
  const Fingerprints kExpected = {
      {"MatMul", 0xa28ae2e8f6b792adull},
      {"MatMulTransposeA", 0x29717fa67482346aull},
      {"MatMulTransposeB", 0x880a1679a7e87fa1ull},
      {"MatMulTransposeBGateBlockedAddInto", 0x34c3526f8a7acfabull},
      {"MatMulTransposeATimeBlockedAddInto", 0x8d88c250e2405eb1ull},
  };
  ForEveryWidthAndPath([&](const std::string& config) {
    ExpectFingerprints(MatMulFamilyFingerprints(kKernels), kExpected,
                       config);
  });
  ExpectFingerprints(MatMulFamilyFingerprints(kReference), kExpected,
                     "reference");
}

// The kernels with one body and no reference: the fused LSTM gates, the
// elementwise ops and softmax, on the same FingerprintValue inputs. Unlike
// the MatMul family they call libm (exp, tanh, log, pow), so their hashes
// hold for this toolchain's libm, as the run fingerprint in eval_test.cc
// does.
Fingerprints SingleBodyFingerprints() {
  Fingerprints fp;
  Rng rng(20261017);
  struct BH {
    int b, h;
  };
  for (const BH& s : {BH{1, 1}, BH{2, 3}, BH{3, 4}, BH{4, 4}, BH{5, 8},
                      BH{7, 5}, BH{13, 6}, BH{0, 3}}) {
    const Matrix pre = FingerprintMatrix(s.b, 4 * s.h, &rng);
    const Matrix hc_prev = FingerprintMatrix(s.b, 2 * s.h, &rng);
    Matrix hc, acts;
    LstmGatesForward(pre, hc_prev, &hc, &acts);
    HashInto(hc, "LstmGatesForward", &fp);
    HashInto(acts, "LstmGatesForward", &fp);
    const Matrix gout = FingerprintMatrix(s.b, 2 * s.h, &rng);
    Matrix dpre = FingerprintMatrix(s.b, 4 * s.h, &rng);
    Matrix dhc = FingerprintMatrix(s.b, 2 * s.h, &rng);
    LstmGatesBackward(gout, acts, hc_prev, &dpre, &dhc);
    HashInto(dpre, "LstmGatesBackward", &fp);
    HashInto(dhc, "LstmGatesBackward", &fp);
  }
  struct RC {
    int r, c;
  };
  for (const RC& s : {RC{1, 1}, RC{3, 7}, RC{5, 9}, RC{12, 33}, RC{4, 8},
                      RC{0, 3}, RC{3, 0}}) {
    const Matrix a = FingerprintMatrix(s.r, s.c, &rng);
    const Matrix b = FingerprintMatrix(s.r, s.c, &rng);
    const Matrix row = FingerprintMatrix(1, s.c, &rng);
    const std::pair<const char*, Matrix> outputs[] = {
        {"Add", Add(a, b)},
        {"Sub", Sub(a, b)},
        {"Mul", Mul(a, b)},
        {"Div", Div(a, b)},
        {"AddScalar", AddScalar(a, 0.37f)},
        {"MulScalar", MulScalar(a, -1.91f)},
        {"Exp", Exp(a)},
        {"Log", Log(a)},
        {"Pow", Pow(a, 1.7f)},
        {"Tanh", Tanh(a)},
        {"Sigmoid", Sigmoid(a)},
        {"Relu", Relu(a)},
        {"LeakyRelu", LeakyRelu(a, 0.01f)},
        {"AddRowBroadcast", AddRowBroadcast(a, row)},
        {"SoftmaxRows", SoftmaxRows(a)},
    };
    for (const auto& [kernel, m] : outputs) HashInto(m, kernel, &fp);
  }
  return fp;
}

TEST(KernelFingerprint, SingleBodyKernelsMatchCommittedHashes) {
  const Fingerprints kExpected = {
      {"LstmGatesForward", 0xd467e45e1b218836ull},
      {"LstmGatesBackward", 0x266fa279555b1fd6ull},
      {"Add", 0xfdcd7f48786adba1ull},
      {"Sub", 0x2d21204b4a376c4dull},
      {"Mul", 0x11c589681d19ef09ull},
      {"Div", 0x7115f4aa8bdc51f8ull},
      {"AddScalar", 0x3381c10bd42b6ae5ull},
      {"MulScalar", 0xbb15aa6679d1bbdcull},
      {"Exp", 0x66803dd1aeea34f0ull},
      {"Log", 0xf38cc7756e5eecb5ull},
      {"Pow", 0x577dbb278bc7471bull},
      {"Tanh", 0xd4006c11ccd253edull},
      {"Sigmoid", 0x15668927b1de90e9ull},
      {"Relu", 0x6011645fdfc4ed11ull},
      {"LeakyRelu", 0x1ae81c32775b1ce9ull},
      {"AddRowBroadcast", 0x42ad44c693e0cb0full},
      {"SoftmaxRows", 0x1cba371854465ab8ull},
  };
  ForEveryWidthAndPath([&](const std::string& config) {
    ExpectFingerprints(SingleBodyFingerprints(), kExpected, config);
  });
}

}  // namespace
}  // namespace clfd
