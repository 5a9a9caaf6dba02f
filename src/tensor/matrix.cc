#include "tensor/matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <sstream>

#include "common/check.h"
#include "common/env.h"
#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "parallel/thread_pool.h"
#include "tensor/arena.h"

namespace clfd {

namespace {

std::string ShapeStr(const Matrix& m) {
  return "[" + std::to_string(m.rows()) + "x" + std::to_string(m.cols()) +
         "]";
}

}  // namespace

void Matrix::AllocateStorage() {
  const size_t n = static_cast<size_t>(rows_) * cols_;
  if (n == 0) {
    data_ = nullptr;
    return;
  }
  if (arena::Arena* a = arena::Current()) {
    CLFD_METRIC_COUNT("tensor.alloc.arena_count", 1);
    CLFD_METRIC_COUNT("tensor.alloc.arena_bytes",
                      static_cast<int64_t>(n * sizeof(float)));
    data_ = a->Allocate(n);
    // Release any heap backing from a previous life of this object: data_
    // now points into the arena, and keeping a stale vector would pin
    // memory for as long as the object lives.
    if (!heap_.empty()) std::vector<float>().swap(heap_);
    return;
  }
  // Fault probe: rehearses heap exhaustion on the non-arena path (fires
  // only for resizes that would actually allocate).
  if (heap_.capacity() < n && fault::At("heap.alloc")) throw std::bad_alloc();
  // Count only resizes that actually hit the allocator; re-filling a
  // vector that already has capacity (e.g. the optimizer's recycled
  // gradient buffers) is free and must not inflate the alloc metrics.
  if (heap_.capacity() < n) {
    CLFD_METRIC_COUNT("tensor.alloc.count", 1);
    CLFD_METRIC_COUNT("tensor.alloc.bytes",
                      static_cast<int64_t>(n * sizeof(float)));
  }
  heap_.resize(n);
  data_ = heap_.data();
}

Matrix::Matrix(int rows, int cols, float fill) : rows_(rows), cols_(cols) {
  assert(rows >= 0 && cols >= 0);
  AllocateStorage();
  if (data_ != nullptr) std::fill(data_, data_ + size(), fill);
}

Matrix::Matrix(const Matrix& other)
    : rows_(other.rows_), cols_(other.cols_) {
  AllocateStorage();
  if (data_ != nullptr) {
    std::memcpy(data_, other.data_, static_cast<size_t>(size()) * sizeof(float));
  }
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  AllocateStorage();
  if (data_ != nullptr) {
    std::memcpy(data_, other.data_, static_cast<size_t>(size()) * sizeof(float));
  }
  return *this;
}

void CheckFinite(const Matrix& a, const char* op) {
  if (!check::Enabled()) return;
  for (int i = 0; i < a.size(); ++i) {
    if (!std::isfinite(a[i])) {
      check::Fail(std::string(op) + ": non-finite value " +
                  std::to_string(a[i]) + " at flat index " +
                  std::to_string(i) + " of " + ShapeStr(a) + " result");
    }
  }
}

void CheckShape(bool ok, const char* op, const Matrix& a, const Matrix& b) {
  if (ok || !check::Enabled()) return;
  check::Fail(std::string(op) + ": incompatible shapes " + ShapeStr(a) +
              " vs " + ShapeStr(b));
}

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(static_cast<int>(rows.size()), static_cast<int>(rows[0].size()));
  for (int r = 0; r < m.rows(); ++r) {
    assert(rows[r].size() == rows[0].size());
    std::memcpy(m.row(r), rows[r].data(), rows[r].size() * sizeof(float));
  }
  return m;
}

Matrix Matrix::Xavier(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  float s = std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (int i = 0; i < m.size(); ++i) {
    m[i] = static_cast<float>(rng->Uniform(-s, s));
  }
  return m;
}

Matrix Matrix::Randn(int rows, int cols, float stddev, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) {
    m[i] = static_cast<float>(rng->Gaussian(0.0, stddev));
  }
  return m;
}

void Matrix::Fill(float value) {
  if (data_ != nullptr) std::fill(data_, data_ + size(), value);
}

void Matrix::AddInPlace(const Matrix& other) {
  CheckShape(SameShape(other), "Matrix::AddInPlace", *this, other);
  assert(SameShape(other));
  for (int i = 0; i < size(); ++i) data_[i] += other.data_[i];
}

void Matrix::AddScaled(const Matrix& other, float s) {
  CheckShape(SameShape(other), "Matrix::AddScaled", *this, other);
  assert(SameShape(other));
  for (int i = 0; i < size(); ++i) data_[i] += s * other.data_[i];
}

void Matrix::Scale(float s) {
  for (int i = 0; i < size(); ++i) data_[i] *= s;
}

void Matrix::CopyRowFrom(const Matrix& src, int src_r, int r) {
  CheckShape(src.cols() == cols_, "Matrix::CopyRowFrom", *this, src);
  assert(src.cols() == cols_);
  std::memcpy(row(r), src.row(src_r), static_cast<size_t>(cols_) * sizeof(float));
}

void EnsureShape(Matrix* out, int rows, int cols, bool zeroed) {
  if (out->rows() == rows && out->cols() == cols) {
    // Reuse in place. Accumulating kernels (the plain matmuls) need the
    // zero start a fresh Matrix would have had; overwrite-style kernels
    // assign every element, so stale contents are unobservable.
    if (zeroed) out->Fill(0.0f);
    return;
  }
  *out = Matrix(rows, cols);
}

void CopyInto(const Matrix& src, Matrix* dst) {
  EnsureShape(dst, src.rows(), src.cols(), /*zeroed=*/false);
  if (dst->size() > 0) {
    std::memcpy(dst->data(), src.data(),
                static_cast<size_t>(src.size()) * sizeof(float));
  }
}

std::string Matrix::DebugString(int max_rows, int max_cols) const {
  std::ostringstream os;
  os << "Matrix(" << rows_ << "x" << cols_ << ")[";
  for (int r = 0; r < std::min(rows_, max_rows); ++r) {
    os << (r == 0 ? "[" : " [");
    for (int c = 0; c < std::min(cols_, max_cols); ++c) {
      os << at(r, c) << (c + 1 < std::min(cols_, max_cols) ? ", " : "");
    }
    os << (cols_ > max_cols ? ", ...]" : "]");
  }
  os << (rows_ > max_rows ? ", ...]" : "]");
  return os.str();
}

namespace {

// -1 = read CLFD_PARALLEL_MIN_FLOPS (default 128k flops) on first use.
// Deliberate mutable global: a dispatch *threshold*, not numeric state —
// both kernel paths produce bitwise-identical results, so its value can
// never change what is computed, only where.
// clfd-analyze: allow(semantic-mutable-global)
std::atomic<int64_t> g_matmul_threshold{-1};

// Per-row scalar bodies: the serial reference functions (namespace
// reference below) and, for every kernel but MatMul, the row-remainder
// fallback of the tiled bodies. Production kernels never run them whole.

// Rows [r0, r1) of C = A * B; i-k-j order streams over contiguous rows.
void MatMulRows(const Matrix& a, const Matrix& b, Matrix* c, int r0, int r1) {
  for (int i = r0; i < r1; ++i) {
    const float* arow = a.row(i);
    float* crow = c->row(i);
    for (int k = 0; k < a.cols(); ++k) {
      float aik = arow[k];
      if (aik == 0.0f) continue;
      const float* brow = b.row(k);
      for (int j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
}

// Rows [r0, r1) of C = A^T * B (row i of C reads column i of A). Each
// output element accumulates over k in ascending order with the same
// zero-skip the historical k-outer loop used, so values are unchanged.
void MatMulTransposeARows(const Matrix& a, const Matrix& b, Matrix* c, int r0,
                          int r1) {
  for (int i = r0; i < r1; ++i) {
    float* crow = c->row(i);
    for (int k = 0; k < a.rows(); ++k) {
      float aki = a.at(k, i);
      if (aki == 0.0f) continue;
      const float* brow = b.row(k);
      for (int j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
    }
  }
}

// Rows [r0, r1) of C = A * B^T; dot-product accumulator per element.
void MatMulTransposeBRows(const Matrix& a, const Matrix& b, Matrix* c, int r0,
                          int r1) {
  for (int i = r0; i < r1; ++i) {
    const float* arow = a.row(i);
    float* crow = c->row(i);
    for (int j = 0; j < b.rows(); ++j) {
      const float* brow = b.row(j);
      float acc = 0.0f;
      for (int k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
      crow[j] = acc;
    }
  }
}

// ---------------------------------------------------------------------------
// Tiled bodies: the one body each MatMul-family kernel runs, shared
// verbatim by its serial and parallel dispatch paths. One compiled function
// per kernel guarantees the two paths perform identical float operations in
// identical order (same vectorization and FMA contraction), which is what
// makes the bit-exactness tests in tests/parallel_test.cc hold by
// construction rather than by luck.
//
// Determinism contract (DESIGN.md §12): the tiled bodies accumulate each
// output element over k in the same ascending order as the scalar bodies
// above, with one rounded add per term and the same zero-skip control
// flow replicated per row. Register tiles regroup *independent* per-element
// chains for ILP/vectorization — they never re-associate within a chain —
// so they are bitwise-equal to the reference functions on all inputs,
// including signed zeros, denormals, and Infs (tests/kernel_backend_test.cc
// sweeps exactly these). The one exception is NaN *payload* bits: x86
// add/mul keep one operand's NaN and the compiler may commute FP operands,
// so which payload survives a chain is codegen-dependent — the contract
// (and the test) pins down NaN-ness per element, not NaN bits.
//
// Layout: a kRowTile x kColTile register tile of accumulators per output
// block; the k loop streams A values and one B row slab per iteration.
// MatMul applies the zero-skip row by row inside the tile and runs its 1-3
// leftover rows through the same body at one row per tile.
// MatMulTransposeA's all-rows-nonzero fast path fuses the four row updates
// into one pass over the B slab; when any tile row hits the zero-skip, its
// slow path applies the skip row by row (same adds, different grouping),
// and its row remainders fall back to the scalar body wholesale. Column
// remainders run the scalar per-row loops over the leftover columns.
// ---------------------------------------------------------------------------

// Tile height. DispatchRowRange chunks rows at this grain so full tiles
// form inside every parallel chunk, keeping chunk boundaries a pure
// function of the row count (width-independent).
constexpr int kRowTile = 4;
// Accumulator tile width: 2 SSE vectors per row, 8 xmm registers total for
// a 4-row tile — half the register file, leaving room for the A/B operands.
constexpr int kColTile = 8;
// k-panel length: one j-tile's B panel
// (kKBlock x kColTile floats = 8 KB) stays L1-resident across the tile.
// The panel split spills accumulators to C between panels — a memory
// round-trip per element, which preserves float bits exactly.
constexpr int kKBlock = 256;

// Rows [i, i + R) of C = A * B as one register tile per kColTile columns:
// R = kRowTile for full tiles, R = 1 for the 1-3 leftover rows (a
// single-session scoring request multiplies one row at a time).
template <int R>
void MatMulTileRows(const Matrix& a, const Matrix& b, Matrix* c, int i) {
  const int kt = a.cols();
  const int n = b.cols();
  const float* arow[R];
  float* crow[R];
  for (int r = 0; r < R; ++r) {
    arow[r] = a.row(i + r);
    crow[r] = c->row(i + r);
  }
  int jj = 0;
  for (; jj + kColTile <= n; jj += kColTile) {
    for (int kk = 0; kk < kt; kk += kKBlock) {
      const int kend = std::min(kt, kk + kKBlock);
      // Accumulators resume from C (zero-fresh on the first panel), and
      // the final store is an assignment, not an extra add — each element
      // sees exactly one ascending-k chain.
      float acc[R][kColTile];
      for (int r = 0; r < R; ++r) {
        for (int t = 0; t < kColTile; ++t) acc[r][t] = crow[r][jj + t];
      }
      for (int k = kk; k < kend; ++k) {
        const float* brow = b.row(k) + jj;
        // Zero-skip per row: a skipped term is no operation at all,
        // not an add of ±0 (which would flush -0 partials and turn 0*Inf
        // into NaN). -O2 alone leaves this loop rolled, which makes the
        // 4-row tile about a third slower.
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
          const float v = arow[r][k];
          if (v != 0.0f) {
            for (int t = 0; t < kColTile; ++t) acc[r][t] += v * brow[t];
          }
        }
      }
      for (int r = 0; r < R; ++r) {
        for (int t = 0; t < kColTile; ++t) crow[r][jj + t] = acc[r][t];
      }
    }
  }
  // Column remainder: the scalar per-row loops over [jj, n).
  for (int r = 0; jj < n && r < R; ++r) {
    for (int k = 0; k < kt; ++k) {
      const float aik = arow[r][k];
      if (aik == 0.0f) continue;
      const float* brow = b.row(k);
      for (int j = jj; j < n; ++j) crow[r][j] += aik * brow[j];
    }
  }
}

// Rows [r0, r1) of C = A * B.
void MatMulRowsTiled(const Matrix& a, const Matrix& b, Matrix* c, int r0,
                     int r1) {
  int i = r0;
  for (; i + kRowTile <= r1; i += kRowTile) {
    MatMulTileRows<kRowTile>(a, b, c, i);
  }
  for (; i < r1; ++i) MatMulTileRows<1>(a, b, c, i);
}

// Rows [r0, r1) of C = A^T * B. Same tiling as MatMul; the tile's four A
// values per k are a.at(k, i..i+3) — contiguous in row k.
void MatMulTransposeARowsTiled(const Matrix& a, const Matrix& b, Matrix* c,
                               int r0, int r1) {
  const int kt = a.rows();
  const int n = b.cols();
  int i = r0;
  for (; i + kRowTile <= r1; i += kRowTile) {
    float* c0 = c->row(i);
    float* c1 = c->row(i + 1);
    float* c2 = c->row(i + 2);
    float* c3 = c->row(i + 3);
    int jj = 0;
    for (; jj + kColTile <= n; jj += kColTile) {
      for (int kk = 0; kk < kt; kk += kKBlock) {
        const int kend = std::min(kt, kk + kKBlock);
        float acc0[kColTile], acc1[kColTile], acc2[kColTile], acc3[kColTile];
        for (int t = 0; t < kColTile; ++t) {
          acc0[t] = c0[jj + t];
          acc1[t] = c1[jj + t];
          acc2[t] = c2[jj + t];
          acc3[t] = c3[jj + t];
        }
        for (int k = kk; k < kend; ++k) {
          const float* ak = a.row(k) + i;
          const float* brow = b.row(k) + jj;
          const float v0 = ak[0], v1 = ak[1], v2 = ak[2], v3 = ak[3];
          if (v0 != 0.0f && v1 != 0.0f && v2 != 0.0f && v3 != 0.0f) {
            for (int t = 0; t < kColTile; ++t) {
              const float bv = brow[t];
              acc0[t] += v0 * bv;
              acc1[t] += v1 * bv;
              acc2[t] += v2 * bv;
              acc3[t] += v3 * bv;
            }
          } else {
            if (v0 != 0.0f) {
              for (int t = 0; t < kColTile; ++t) acc0[t] += v0 * brow[t];
            }
            if (v1 != 0.0f) {
              for (int t = 0; t < kColTile; ++t) acc1[t] += v1 * brow[t];
            }
            if (v2 != 0.0f) {
              for (int t = 0; t < kColTile; ++t) acc2[t] += v2 * brow[t];
            }
            if (v3 != 0.0f) {
              for (int t = 0; t < kColTile; ++t) acc3[t] += v3 * brow[t];
            }
          }
        }
        for (int t = 0; t < kColTile; ++t) {
          c0[jj + t] = acc0[t];
          c1[jj + t] = acc1[t];
          c2[jj + t] = acc2[t];
          c3[jj + t] = acc3[t];
        }
      }
    }
    for (int rr = 0; jj < n && rr < kRowTile; ++rr) {
      float* crow = c->row(i + rr);
      for (int k = 0; k < kt; ++k) {
        const float aki = a.at(k, i + rr);
        if (aki == 0.0f) continue;
        const float* brow = b.row(k);
        for (int j = jj; j < n; ++j) crow[j] += aki * brow[j];
      }
    }
  }
  if (i < r1) MatMulTransposeARows(a, b, c, i, r1);
}

// A*B^T is a dot-product kernel: each element is one k-ascending reduction
// chain that cannot be vectorized across k without re-association. The
// tile is therefore kDotTile x kDotTile *independent* chains advanced in
// lockstep — an ILP transform, not a reduction reorder.
constexpr int kDotTile = 4;

// Rows [r0, r1) of C = A * B^T (the dot tile keeps all state in scalar
// registers).
void MatMulTransposeBRowsTiled(const Matrix& a, const Matrix& b, Matrix* c,
                               int r0, int r1) {
  const int kt = a.cols();
  const int m = b.rows();
  int i = r0;
  for (; i + kDotTile <= r1; i += kDotTile) {
    const float* a0 = a.row(i);
    const float* a1 = a.row(i + 1);
    const float* a2 = a.row(i + 2);
    const float* a3 = a.row(i + 3);
    int j = 0;
    for (; j + kDotTile <= m; j += kDotTile) {
      const float* b0 = b.row(j);
      const float* b1 = b.row(j + 1);
      const float* b2 = b.row(j + 2);
      const float* b3 = b.row(j + 3);
      float acc[kDotTile][kDotTile] = {};
      for (int k = 0; k < kt; ++k) {
        const float av0 = a0[k], av1 = a1[k], av2 = a2[k], av3 = a3[k];
        const float bv0 = b0[k], bv1 = b1[k], bv2 = b2[k], bv3 = b3[k];
        acc[0][0] += av0 * bv0;
        acc[0][1] += av0 * bv1;
        acc[0][2] += av0 * bv2;
        acc[0][3] += av0 * bv3;
        acc[1][0] += av1 * bv0;
        acc[1][1] += av1 * bv1;
        acc[1][2] += av1 * bv2;
        acc[1][3] += av1 * bv3;
        acc[2][0] += av2 * bv0;
        acc[2][1] += av2 * bv1;
        acc[2][2] += av2 * bv2;
        acc[2][3] += av2 * bv3;
        acc[3][0] += av3 * bv0;
        acc[3][1] += av3 * bv1;
        acc[3][2] += av3 * bv2;
        acc[3][3] += av3 * bv3;
      }
      for (int r = 0; r < kDotTile; ++r) {
        float* crow = c->row(i + r);
        for (int s = 0; s < kDotTile; ++s) crow[j + s] = acc[r][s];
      }
    }
    // Column remainder: scalar dot loops for the leftover B rows.
    for (int rr = 0; rr < kDotTile; ++rr) {
      const float* arow = a.row(i + rr);
      float* crow = c->row(i + rr);
      for (int jt = j; jt < m; ++jt) {
        const float* brow = b.row(jt);
        float acc1 = 0.0f;
        for (int k = 0; k < kt; ++k) acc1 += arow[k] * brow[k];
        crow[jt] = acc1;
      }
    }
  }
  if (i < r1) MatMulTransposeBRows(a, b, c, i, r1);
}

// Runs body(lo, hi) over [0, rows), splitting across the pool when the
// nominal flop count is worth it. Workers write disjoint row ranges, and
// serial/parallel share the body, so the split never changes results.
// Dispatch is deliberately independent of the pool width: a single-lane
// pool runs the same chunks inline, so the profiler's merged scope tree
// (chunk counts included) is identical at every width — the byte-identical
// deterministic-report guarantee in src/obs/prof.h depends on this.
// Chunks are kRowTile rows (a pure function of the row count, so the
// width-independence above still holds): the tiled bodies then form full
// register tiles inside every chunk but the last. Which rows share a tile
// never affects results — a tile groups independent per-row chains, it
// does not mix them.
template <typename Body>
void DispatchRowRange(int rows, int64_t flops, Body body) {
  if (rows > 1 && flops >= MatmulParallelThreshold() &&
      !parallel::ThreadPool::InParallelRegion()) {
    CLFD_METRIC_COUNT("tensor.matmul.parallel_dispatches", 1);
    parallel::ParallelFor(0, rows, kRowTile, [&](int64_t lo, int64_t hi) {
      body(static_cast<int>(lo), static_cast<int>(hi));
    });
  } else {
    body(0, rows);
  }
}

// Matmul-shaped convenience wrapper over DispatchRowRange.
template <typename RowsFn>
void DispatchRows(const Matrix& a, const Matrix& b, Matrix* c, int64_t flops,
                  RowsFn rows_fn) {
  DispatchRowRange(c->rows(), flops, [&](int lo, int hi) {
    rows_fn(a, b, c, lo, hi);
  });
}

}  // namespace

int64_t MatmulParallelThreshold() {
  int64_t t = g_matmul_threshold.load(std::memory_order_relaxed);
  if (t < 0) {
    t = GetEnvInt("CLFD_PARALLEL_MIN_FLOPS", 128 * 1024);
    if (t < 0) t = 0;
    g_matmul_threshold.store(t, std::memory_order_relaxed);
  }
  return t;
}

void SetMatmulParallelThreshold(int64_t flops) {
  g_matmul_threshold.store(std::max<int64_t>(0, flops),
                           std::memory_order_relaxed);
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* c) {
  CheckShape(a.cols() == b.rows(), "MatMul", a, b);
  assert(a.cols() == b.rows());
  // One relaxed atomic add per kernel call (not per element), so the
  // counters are always on; 2*M*K*N is the conventional matmul flop count.
  CLFD_METRIC_COUNT("tensor.matmul.calls", 1);
  const int64_t flops = int64_t{2} * a.rows() * a.cols() * b.cols();
  CLFD_METRIC_COUNT("tensor.matmul.flops", flops);
  CLFD_PROF_SCOPE("MatMul");
  obs::prof::AddFlops(flops);
  obs::prof::AddBytes(int64_t{4} *
                      (a.size() + b.size() + int64_t{a.rows()} * b.cols()));
  // The row bodies accumulate into C, so a reused buffer must restart at
  // zero — the state a freshly constructed result had.
  EnsureShape(c, a.rows(), b.cols(), /*zeroed=*/true);
  DispatchRows(a, b, c, flops, MatMulRowsTiled);
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulInto(a, b, &c);
  return c;
}

void MatMulTransposeAInto(const Matrix& a, const Matrix& b, Matrix* c) {
  CheckShape(a.rows() == b.rows(), "MatMulTransposeA", a, b);
  assert(a.rows() == b.rows());
  CLFD_METRIC_COUNT("tensor.matmul_ta.calls", 1);
  const int64_t flops = int64_t{2} * a.cols() * a.rows() * b.cols();
  CLFD_METRIC_COUNT("tensor.matmul.flops", flops);
  CLFD_PROF_SCOPE("MatMulTA");
  obs::prof::AddFlops(flops);
  obs::prof::AddBytes(int64_t{4} *
                      (a.size() + b.size() + int64_t{a.cols()} * b.cols()));
  EnsureShape(c, a.cols(), b.cols(), /*zeroed=*/true);
  DispatchRows(a, b, c, flops, MatMulTransposeARowsTiled);
}

Matrix MatMulTransposeA(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulTransposeAInto(a, b, &c);
  return c;
}

void MatMulTransposeBInto(const Matrix& a, const Matrix& b, Matrix* c) {
  CheckShape(a.cols() == b.cols(), "MatMulTransposeB", a, b);
  assert(a.cols() == b.cols());
  CLFD_METRIC_COUNT("tensor.matmul_tb.calls", 1);
  const int64_t flops = int64_t{2} * a.rows() * a.cols() * b.rows();
  CLFD_METRIC_COUNT("tensor.matmul.flops", flops);
  CLFD_PROF_SCOPE("MatMulTB");
  obs::prof::AddFlops(flops);
  obs::prof::AddBytes(int64_t{4} *
                      (a.size() + b.size() + int64_t{a.rows()} * b.rows()));
  // Unlike the accumulating matmuls, the TransposeB body assigns each
  // output element from a fresh dot accumulator, so a reused buffer needs
  // no re-zeroing.
  EnsureShape(c, a.rows(), b.rows(), /*zeroed=*/false);
  DispatchRows(a, b, c, flops, MatMulTransposeBRowsTiled);
}

Matrix MatMulTransposeB(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulTransposeBInto(a, b, &c);
  return c;
}

Matrix Transpose(const Matrix& a) {
  CLFD_METRIC_COUNT("tensor.transpose.calls", 1);
  Matrix t(a.cols(), a.rows());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) t.at(c, r) = a.at(r, c);
  }
  return t;
}

namespace {

template <typename Fn>
void BinaryInto(const Matrix& a, const Matrix& b, Matrix* c, Fn fn) {
  CheckShape(a.SameShape(b), "Matrix elementwise op", a, b);
  assert(a.SameShape(b));
  CLFD_METRIC_COUNT("tensor.elementwise.calls", 1);
  EnsureShape(c, a.rows(), a.cols(), /*zeroed=*/false);
  for (int i = 0; i < a.size(); ++i) (*c)[i] = fn(a[i], b[i]);
}

template <typename Fn>
void UnaryInto(const Matrix& a, Matrix* c, Fn fn) {
  CLFD_METRIC_COUNT("tensor.elementwise.calls", 1);
  EnsureShape(c, a.rows(), a.cols(), /*zeroed=*/false);
  for (int i = 0; i < a.size(); ++i) (*c)[i] = fn(a[i]);
}

template <typename Fn>
Matrix Binary(const Matrix& a, const Matrix& b, Fn fn) {
  Matrix c;
  BinaryInto(a, b, &c, fn);
  return c;
}

template <typename Fn>
Matrix Unary(const Matrix& a, Fn fn) {
  Matrix c;
  UnaryInto(a, &c, fn);
  return c;
}

}  // namespace

Matrix Add(const Matrix& a, const Matrix& b) {
  return Binary(a, b, [](float x, float y) { return x + y; });
}
Matrix Sub(const Matrix& a, const Matrix& b) {
  return Binary(a, b, [](float x, float y) { return x - y; });
}
Matrix Mul(const Matrix& a, const Matrix& b) {
  return Binary(a, b, [](float x, float y) { return x * y; });
}
Matrix Div(const Matrix& a, const Matrix& b) {
  return Binary(a, b, [](float x, float y) { return x / y; });
}
Matrix AddScalar(const Matrix& a, float s) {
  return Unary(a, [s](float x) { return x + s; });
}
Matrix MulScalar(const Matrix& a, float s) {
  return Unary(a, [s](float x) { return x * s; });
}

void AddInto(const Matrix& a, const Matrix& b, Matrix* c) {
  BinaryInto(a, b, c, [](float x, float y) { return x + y; });
}
void SubInto(const Matrix& a, const Matrix& b, Matrix* c) {
  BinaryInto(a, b, c, [](float x, float y) { return x - y; });
}
void MulInto(const Matrix& a, const Matrix& b, Matrix* c) {
  BinaryInto(a, b, c, [](float x, float y) { return x * y; });
}
void AddScalarInto(const Matrix& a, float s, Matrix* c) {
  UnaryInto(a, c, [s](float x) { return x + s; });
}
void MulScalarInto(const Matrix& a, float s, Matrix* c) {
  UnaryInto(a, c, [s](float x) { return x * s; });
}

void AddRowBroadcastInto(const Matrix& a, const Matrix& row_vec, Matrix* c) {
  CheckShape(row_vec.rows() == 1 && row_vec.cols() == a.cols(),
             "AddRowBroadcast", a, row_vec);
  assert(row_vec.rows() == 1 && row_vec.cols() == a.cols());
  EnsureShape(c, a.rows(), a.cols(), /*zeroed=*/false);
  for (int r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    float* crow = c->row(r);
    for (int j = 0; j < a.cols(); ++j) crow[j] = arow[j] + row_vec[j];
  }
}

Matrix AddRowBroadcast(const Matrix& a, const Matrix& row_vec) {
  Matrix c;
  AddRowBroadcastInto(a, row_vec, &c);
  return c;
}

Matrix Exp(const Matrix& a) {
  return Unary(a, [](float x) { return std::exp(x); });
}
Matrix Log(const Matrix& a) {
  return Unary(a, [](float x) { return std::log(std::max(x, 1e-12f)); });
}
Matrix Pow(const Matrix& a, float p) {
  return Unary(a, [p](float x) { return std::pow(x, p); });
}
Matrix Tanh(const Matrix& a) {
  return Unary(a, [](float x) { return std::tanh(x); });
}
Matrix Sigmoid(const Matrix& a) {
  return Unary(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}
Matrix Relu(const Matrix& a) {
  return Unary(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}
Matrix LeakyRelu(const Matrix& a, float slope) {
  return Unary(a, [slope](float x) { return x > 0.0f ? x : slope * x; });
}

void ExpInto(const Matrix& a, Matrix* c) {
  UnaryInto(a, c, [](float x) { return std::exp(x); });
}
void LogInto(const Matrix& a, Matrix* c) {
  UnaryInto(a, c, [](float x) { return std::log(std::max(x, 1e-12f)); });
}
void PowInto(const Matrix& a, float p, Matrix* c) {
  UnaryInto(a, c, [p](float x) { return std::pow(x, p); });
}
void TanhInto(const Matrix& a, Matrix* c) {
  UnaryInto(a, c, [](float x) { return std::tanh(x); });
}
void SigmoidInto(const Matrix& a, Matrix* c) {
  UnaryInto(a, c, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}
void ReluInto(const Matrix& a, Matrix* c) {
  UnaryInto(a, c, [](float x) { return x > 0.0f ? x : 0.0f; });
}
void LeakyReluInto(const Matrix& a, float slope, Matrix* c) {
  UnaryInto(a, c, [slope](float x) { return x > 0.0f ? x : slope * x; });
}

float SumAll(const Matrix& a) {
  double acc = 0.0;
  for (int i = 0; i < a.size(); ++i) acc += a[i];
  return static_cast<float>(acc);
}

float MeanAll(const Matrix& a) {
  return a.size() == 0 ? 0.0f : SumAll(a) / static_cast<float>(a.size());
}

void SumRowsInto(const Matrix& a, Matrix* out) {
  EnsureShape(out, a.rows(), 1, /*zeroed=*/false);
  for (int r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    double acc = 0.0;
    for (int c = 0; c < a.cols(); ++c) acc += arow[c];
    out->at(r, 0) = static_cast<float>(acc);
  }
}

Matrix SumRows(const Matrix& a) {
  Matrix out;
  SumRowsInto(a, &out);
  return out;
}

Matrix MeanRows(const Matrix& a) {
  Matrix out = SumRows(a);
  if (a.cols() > 0) out.Scale(1.0f / static_cast<float>(a.cols()));
  return out;
}

void SoftmaxRowsInto(const Matrix& a, Matrix* out) {
  CLFD_METRIC_COUNT("tensor.softmax.calls", 1);
  // Nominal cost: max + exp + sum + divide over every element.
  CLFD_METRIC_COUNT("tensor.softmax.flops", int64_t{4} * a.size());
  CLFD_PROF_SCOPE("Softmax");
  obs::prof::AddFlops(int64_t{4} * a.size());
  obs::prof::AddBytes(int64_t{8} * a.size());
  EnsureShape(out, a.rows(), a.cols(), /*zeroed=*/false);
  for (int r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    float* orow = out->row(r);
    float mx = -std::numeric_limits<float>::infinity();
    for (int c = 0; c < a.cols(); ++c) mx = std::max(mx, arow[c]);
    double denom = 0.0;
    for (int c = 0; c < a.cols(); ++c) {
      orow[c] = std::exp(arow[c] - mx);
      denom += orow[c];
    }
    for (int c = 0; c < a.cols(); ++c) {
      orow[c] = static_cast<float>(orow[c] / denom);
    }
  }
}

Matrix SoftmaxRows(const Matrix& a) {
  Matrix out;
  SoftmaxRowsInto(a, &out);
  return out;
}

namespace {

// Pointer view over a Matrix vector for the Into concat bodies.
struct BlockPtrs {
  const Matrix* stack[64];
  std::vector<const Matrix*> heap;
  const Matrix* const* data;
  explicit BlockPtrs(const std::vector<Matrix>& blocks) {
    const Matrix** out = stack;
    if (blocks.size() > 64) {
      heap.resize(blocks.size());
      out = heap.data();
    }
    for (size_t i = 0; i < blocks.size(); ++i) out[i] = &blocks[i];
    data = out;
  }
};

}  // namespace

void ConcatRowsInto(const Matrix* const* blocks, int n, Matrix* out) {
  CLFD_METRIC_COUNT("tensor.concat_rows.calls", 1);
  if (n == 0) {
    EnsureShape(out, 0, 0, /*zeroed=*/false);
    return;
  }
  int cols = blocks[0]->cols();
  int rows = 0;
  for (int i = 0; i < n; ++i) {
    CheckShape(blocks[i]->cols() == cols, "ConcatRows", *blocks[0],
               *blocks[i]);
    assert(blocks[i]->cols() == cols);
    rows += blocks[i]->rows();
  }
  EnsureShape(out, rows, cols, /*zeroed=*/false);
  int r = 0;
  for (int i = 0; i < n; ++i) {
    const Matrix& b = *blocks[i];
    for (int br = 0; br < b.rows(); ++br) out->CopyRowFrom(b, br, r++);
  }
}

Matrix ConcatRows(const std::vector<Matrix>& blocks) {
  if (blocks.empty()) {
    CLFD_METRIC_COUNT("tensor.concat_rows.calls", 1);
    return Matrix();
  }
  BlockPtrs ptrs(blocks);
  Matrix out;
  ConcatRowsInto(ptrs.data, static_cast<int>(blocks.size()), &out);
  return out;
}

void SliceRowsInto(const Matrix& a, int begin, int end, Matrix* out) {
  CLFD_METRIC_COUNT("tensor.slice_rows.calls", 1);
  if (check::Enabled() && !(begin >= 0 && begin <= end && end <= a.rows())) {
    check::Fail("SliceRows: range [" + std::to_string(begin) + ", " +
                std::to_string(end) + ") out of bounds for " +
                ShapeStr(a));
  }
  assert(begin >= 0 && begin <= end && end <= a.rows());
  EnsureShape(out, end - begin, a.cols(), /*zeroed=*/false);
  for (int r = begin; r < end; ++r) out->CopyRowFrom(a, r, r - begin);
}

Matrix SliceRows(const Matrix& a, int begin, int end) {
  Matrix out;
  SliceRowsInto(a, begin, end, &out);
  return out;
}

void ConcatColsInto(const Matrix* const* blocks, int n, Matrix* out) {
  CLFD_METRIC_COUNT("tensor.concat_cols.calls", 1);
  if (n == 0) {
    EnsureShape(out, 0, 0, /*zeroed=*/false);
    return;
  }
  int rows = blocks[0]->rows();
  int cols = 0;
  for (int i = 0; i < n; ++i) {
    CheckShape(blocks[i]->rows() == rows, "ConcatCols", *blocks[0],
               *blocks[i]);
    assert(blocks[i]->rows() == rows);
    cols += blocks[i]->cols();
  }
  EnsureShape(out, rows, cols, /*zeroed=*/false);
  int c0 = 0;
  for (int i = 0; i < n; ++i) {
    const Matrix& b = *blocks[i];
    for (int r = 0; r < rows; ++r) {
      std::memcpy(out->row(r) + c0, b.row(r),
                  static_cast<size_t>(b.cols()) * sizeof(float));
    }
    c0 += b.cols();
  }
}

Matrix ConcatCols(const std::vector<Matrix>& blocks) {
  if (blocks.empty()) {
    CLFD_METRIC_COUNT("tensor.concat_cols.calls", 1);
    return Matrix();
  }
  BlockPtrs ptrs(blocks);
  Matrix out;
  ConcatColsInto(ptrs.data, static_cast<int>(blocks.size()), &out);
  return out;
}

void SliceColsInto(const Matrix& a, int begin, int end, Matrix* out) {
  CLFD_METRIC_COUNT("tensor.slice_cols.calls", 1);
  if (check::Enabled() && !(begin >= 0 && begin <= end && end <= a.cols())) {
    check::Fail("SliceCols: range [" + std::to_string(begin) + ", " +
                std::to_string(end) + ") out of bounds for " + ShapeStr(a));
  }
  assert(begin >= 0 && begin <= end && end <= a.cols());
  EnsureShape(out, a.rows(), end - begin, /*zeroed=*/false);
  for (int r = 0; r < a.rows(); ++r) {
    std::memcpy(out->row(r), a.row(r) + begin,
                static_cast<size_t>(end - begin) * sizeof(float));
  }
}

Matrix SliceCols(const Matrix& a, int begin, int end) {
  Matrix out;
  SliceColsInto(a, begin, end, &out);
  return out;
}

namespace {

// Per-row bodies of the fused LSTM kernels, shared by the serial and
// parallel dispatch paths like the matmul bodies above. Every scalar
// statement below mirrors one unfused tensor-op expression (one rounding
// per arithmetic op, no re-association), which is what makes the fused
// path bit-identical to the legacy tape — see the derivation in DESIGN.md
// §9 and the equality tests in tests/nn_test.cc.

void LstmGatesForwardRows(const Matrix& pre, const Matrix& hc_prev, Matrix* hc,
                          Matrix* acts, int r0, int r1) {
  const int h = pre.cols() / 4;
  for (int r = r0; r < r1; ++r) {
    const float* p = pre.row(r);
    const float* hcp = hc_prev.row(r);
    float* out = hc->row(r);
    float* act = acts->row(r);
    for (int j = 0; j < h; ++j) {
      float iv = 1.0f / (1.0f + std::exp(-p[j]));           // Sigmoid
      float fv = 1.0f / (1.0f + std::exp(-p[h + j]));       // Sigmoid
      float gv = std::tanh(p[2 * h + j]);                   // Tanh
      float ov = 1.0f / (1.0f + std::exp(-p[3 * h + j]));   // Sigmoid
      float t1 = fv * hcp[h + j];                           // Mul(f, c_prev)
      float t2 = iv * gv;                                   // Mul(i, g)
      float cv = t1 + t2;                                   // Add
      float tc = std::tanh(cv);                             // Tanh
      out[j] = ov * tc;                                     // Mul -> h_t
      out[h + j] = cv;                                      // c_t
      act[j] = iv;
      act[h + j] = fv;
      act[2 * h + j] = gv;
      act[3 * h + j] = ov;
      act[4 * h + j] = tc;
    }
  }
}

void LstmGatesBackwardRows(const Matrix& gout, const Matrix& acts,
                           const Matrix& hc_prev, Matrix* dpre,
                           Matrix* dhc_prev, int r0, int r1) {
  const int h = dpre->cols() / 4;
  for (int r = r0; r < r1; ++r) {
    const float* g = gout.row(r);
    const float* act = acts.row(r);
    const float* hcp = hc_prev.row(r);
    float* dp = dpre->row(r);
    float* dhp = dhc_prev != nullptr ? dhc_prev->row(r) : nullptr;
    for (int j = 0; j < h; ++j) {
      float iv = act[j], fv = act[h + j], gv = act[2 * h + j];
      float ov = act[3 * h + j], tc = act[4 * h + j];
      float dh = g[j];           // d loss / d h_t
      float dc_ext = g[h + j];   // d loss / d c_t from step t+1 (0 at t=T-1)
      float dov = dh * tc;                       // Mul backward, o side
      float dtc = dh * ov;                       // Mul backward, tanh side
      float dc = dc_ext + dtc * (1.0f - tc * tc);  // Tanh backward into c
      float div_ = dc * gv;                      // Mul(i, g) backward, i
      float dgv = dc * iv;                       // Mul(i, g) backward, g
      float dfv = dc * hcp[h + j];               // Mul(f, c_prev) backward, f
      if (dhp != nullptr) dhp[h + j] += dc * fv;  // ... and the c_prev side
      dp[j] += div_ * iv * (1.0f - iv);          // Sigmoid backward (i)
      dp[h + j] += dfv * fv * (1.0f - fv);       // Sigmoid backward (f)
      dp[2 * h + j] += dgv * (1.0f - gv * gv);   // Tanh backward (g)
      dp[3 * h + j] += dov * ov * (1.0f - ov);   // Sigmoid backward (o)
    }
  }
}

void MatMulTransposeBGateBlockedRows(const Matrix& g, const Matrix& w,
                                     Matrix* acc, int r0, int r1) {
  const int h = w.cols() / 4;
  for (int i = r0; i < r1; ++i) {
    const float* grow = g.row(i);
    float* arow = acc->row(i);
    for (int blk : kLstmGateBackwardOrder) {
      const int k0 = blk * h;
      for (int j = 0; j < w.rows(); ++j) {
        const float* wrow = w.row(j);
        float partial = 0.0f;
        for (int k = 0; k < h; ++k) partial += grow[k0 + k] * wrow[k0 + k];
        arow[j] += partial;
      }
    }
  }
}

void MatMulTransposeATimeBlockedRows(const Matrix& x, const Matrix& g,
                                     int block_rows, Matrix* acc, int r0,
                                     int r1) {
  const int n = g.cols();
  const int t_blocks = x.rows() / block_rows;
  std::vector<float> partial(n);
  for (int i = r0; i < r1; ++i) {
    float* arow = acc->row(i);
    for (int tb = t_blocks - 1; tb >= 0; --tb) {
      std::fill(partial.begin(), partial.end(), 0.0f);
      for (int k = tb * block_rows; k < (tb + 1) * block_rows; ++k) {
        float aki = x.at(k, i);
        if (aki == 0.0f) continue;
        const float* grow = g.row(k);
        for (int j = 0; j < n; ++j) partial[j] += aki * grow[j];
      }
      for (int j = 0; j < n; ++j) arow[j] += partial[j];
    }
  }
}

// Tiled acc += g * w^T per gate block: a kDotTile x kDotTile tile of
// independent fresh-partial chains (ascending k within the block), each
// finished by the scalar body's single rounded add into acc.
void MatMulTransposeBGateBlockedRowsTiled(const Matrix& g, const Matrix& w,
                                          Matrix* acc, int r0, int r1) {
  const int h = w.cols() / 4;
  const int m = w.rows();
  int i = r0;
  for (; i + kDotTile <= r1; i += kDotTile) {
    const float* g0 = g.row(i);
    const float* g1 = g.row(i + 1);
    const float* g2 = g.row(i + 2);
    const float* g3 = g.row(i + 3);
    float* o0 = acc->row(i);
    float* o1 = acc->row(i + 1);
    float* o2 = acc->row(i + 2);
    float* o3 = acc->row(i + 3);
    for (int blk : kLstmGateBackwardOrder) {
      const int k0 = blk * h;
      int j = 0;
      for (; j + kDotTile <= m; j += kDotTile) {
        const float* w0 = w.row(j) + k0;
        const float* w1 = w.row(j + 1) + k0;
        const float* w2 = w.row(j + 2) + k0;
        const float* w3 = w.row(j + 3) + k0;
        float p[kDotTile][kDotTile] = {};
        for (int k = 0; k < h; ++k) {
          const float gv0 = g0[k0 + k], gv1 = g1[k0 + k];
          const float gv2 = g2[k0 + k], gv3 = g3[k0 + k];
          const float wv0 = w0[k], wv1 = w1[k], wv2 = w2[k], wv3 = w3[k];
          p[0][0] += gv0 * wv0;
          p[0][1] += gv0 * wv1;
          p[0][2] += gv0 * wv2;
          p[0][3] += gv0 * wv3;
          p[1][0] += gv1 * wv0;
          p[1][1] += gv1 * wv1;
          p[1][2] += gv1 * wv2;
          p[1][3] += gv1 * wv3;
          p[2][0] += gv2 * wv0;
          p[2][1] += gv2 * wv1;
          p[2][2] += gv2 * wv2;
          p[2][3] += gv2 * wv3;
          p[3][0] += gv3 * wv0;
          p[3][1] += gv3 * wv1;
          p[3][2] += gv3 * wv2;
          p[3][3] += gv3 * wv3;
        }
        for (int s = 0; s < kDotTile; ++s) {
          o0[j + s] += p[0][s];
          o1[j + s] += p[1][s];
          o2[j + s] += p[2][s];
          o3[j + s] += p[3][s];
        }
      }
      // Column remainder: scalar per-element dot + add over [j, m).
      for (int rr = 0; rr < kDotTile; ++rr) {
        const float* grow = g.row(i + rr);
        float* arow = acc->row(i + rr);
        for (int jt = j; jt < m; ++jt) {
          const float* wrow = w.row(jt);
          float partial = 0.0f;
          for (int k = 0; k < h; ++k) partial += grow[k0 + k] * wrow[k0 + k];
          arow[jt] += partial;
        }
      }
    }
  }
  if (i < r1) MatMulTransposeBGateBlockedRows(g, w, acc, i, r1);
}

// Tiled acc += x^T * g per descending time block: the MatMul register tile
// over four acc rows (x columns — x.at(k, i..i+3) is contiguous in row k),
// with the scalar body's fresh per-block partials and block-end adds.
void MatMulTransposeATimeBlockedRowsTiled(const Matrix& x, const Matrix& g,
                                          int block_rows, Matrix* acc, int r0,
                                          int r1) {
  const int n = g.cols();
  const int t_blocks = x.rows() / block_rows;
  int i = r0;
  for (; i + kRowTile <= r1; i += kRowTile) {
    float* o0 = acc->row(i);
    float* o1 = acc->row(i + 1);
    float* o2 = acc->row(i + 2);
    float* o3 = acc->row(i + 3);
    for (int tb = t_blocks - 1; tb >= 0; --tb) {
      const int kbegin = tb * block_rows;
      const int kend = (tb + 1) * block_rows;
      int jj = 0;
      for (; jj + kColTile <= n; jj += kColTile) {
        float p0[kColTile] = {0.0f};
        float p1[kColTile] = {0.0f};
        float p2[kColTile] = {0.0f};
        float p3[kColTile] = {0.0f};
        for (int k = kbegin; k < kend; ++k) {
          const float* xk = x.row(k) + i;
          const float* grow = g.row(k) + jj;
          const float v0 = xk[0], v1 = xk[1], v2 = xk[2], v3 = xk[3];
          if (v0 != 0.0f && v1 != 0.0f && v2 != 0.0f && v3 != 0.0f) {
            for (int t = 0; t < kColTile; ++t) {
              const float gv = grow[t];
              p0[t] += v0 * gv;
              p1[t] += v1 * gv;
              p2[t] += v2 * gv;
              p3[t] += v3 * gv;
            }
          } else {
            if (v0 != 0.0f) {
              for (int t = 0; t < kColTile; ++t) p0[t] += v0 * grow[t];
            }
            if (v1 != 0.0f) {
              for (int t = 0; t < kColTile; ++t) p1[t] += v1 * grow[t];
            }
            if (v2 != 0.0f) {
              for (int t = 0; t < kColTile; ++t) p2[t] += v2 * grow[t];
            }
            if (v3 != 0.0f) {
              for (int t = 0; t < kColTile; ++t) p3[t] += v3 * grow[t];
            }
          }
        }
        // The scalar body adds the whole partial vector unconditionally at
        // block end (even all-zero partials), so no skip here.
        for (int t = 0; t < kColTile; ++t) {
          o0[jj + t] += p0[t];
          o1[jj + t] += p1[t];
          o2[jj + t] += p2[t];
          o3[jj + t] += p3[t];
        }
      }
      // Column remainder: per element, the same fresh ascending-k chain
      // (with the scalar body's zero-skip) followed by one add.
      for (int rr = 0; jj < n && rr < kRowTile; ++rr) {
        float* arow = acc->row(i + rr);
        for (int j = jj; j < n; ++j) {
          float partial = 0.0f;
          for (int k = kbegin; k < kend; ++k) {
            const float aki = x.at(k, i + rr);
            if (aki == 0.0f) continue;
            partial += aki * g.at(k, j);
          }
          arow[j] += partial;
        }
      }
    }
  }
  if (i < r1) MatMulTransposeATimeBlockedRows(x, g, block_rows, acc, i, r1);
}

}  // namespace

void LstmGatesForward(const Matrix& pre, const Matrix& hc_prev, Matrix* hc,
                      Matrix* acts) {
  const int h = pre.cols() / 4;
  CheckShape(pre.cols() == 4 * h && hc_prev.rows() == pre.rows() &&
                 hc_prev.cols() == 2 * h,
             "LstmGatesForward", pre, hc_prev);
  assert(pre.cols() % 4 == 0 && hc_prev.rows() == pre.rows() &&
         hc_prev.cols() == 2 * h);
  CLFD_METRIC_COUNT("tensor.lstm_gates.calls", 1);
  // Nominal cost: ~12 unfused elementwise ops over [B x H].
  const int64_t flops = int64_t{12} * pre.rows() * h;
  CLFD_METRIC_COUNT("tensor.lstm_gates.flops", flops);
  CLFD_PROF_SCOPE("LstmGatesForward");
  obs::prof::AddFlops(flops);
  // Reads pre [Bx4H] + hc_prev [Bx2H], writes hc [Bx2H] + acts [Bx5H].
  obs::prof::AddBytes(int64_t{4} * pre.rows() * (13 * h));
  // Both row bodies assign every hc/acts element, so reuse needs no zeroing.
  EnsureShape(hc, pre.rows(), 2 * h, /*zeroed=*/false);
  EnsureShape(acts, pre.rows(), 5 * h, /*zeroed=*/false);
  DispatchRowRange(pre.rows(), flops, [&](int lo, int hi) {
    LstmGatesForwardRows(pre, hc_prev, hc, acts, lo, hi);
  });
}

void LstmGatesBackward(const Matrix& gout, const Matrix& acts,
                       const Matrix& hc_prev, Matrix* dpre,
                       Matrix* dhc_prev) {
  const int h = dpre->cols() / 4;
  CheckShape(gout.rows() == dpre->rows() && gout.cols() == 2 * h &&
                 acts.rows() == gout.rows() && acts.cols() == 5 * h,
             "LstmGatesBackward", gout, acts);
  assert(gout.rows() == dpre->rows() && gout.cols() == 2 * h &&
         acts.cols() == 5 * h && hc_prev.SameShape(gout));
  assert(dhc_prev == nullptr || dhc_prev->SameShape(gout));
  CLFD_METRIC_COUNT("tensor.lstm_gates.calls", 1);
  const int64_t flops = int64_t{20} * gout.rows() * h;
  CLFD_METRIC_COUNT("tensor.lstm_gates.flops", flops);
  CLFD_PROF_SCOPE("LstmGatesBackward");
  obs::prof::AddFlops(flops);
  // Reads gout [Bx2H] + acts [Bx5H] + hc_prev [Bx2H], writes dpre [Bx4H]
  // and optionally dhc_prev [Bx2H].
  obs::prof::AddBytes(int64_t{4} * gout.rows() *
                      ((13 + (dhc_prev != nullptr ? 2 : 0)) * h));
  DispatchRowRange(gout.rows(), flops, [&](int lo, int hi) {
    LstmGatesBackwardRows(gout, acts, hc_prev, dpre, dhc_prev, lo, hi);
  });
}

void MatMulTransposeBGateBlockedAddInto(const Matrix& g, const Matrix& w,
                                        Matrix* acc) {
  CheckShape(g.cols() == w.cols() && w.cols() % 4 == 0, "MatMulTransposeBGateBlocked",
             g, w);
  assert(g.cols() == w.cols() && w.cols() % 4 == 0);
  assert(acc->rows() == g.rows() && acc->cols() == w.rows());
  CLFD_METRIC_COUNT("tensor.matmul_tb_blocked.calls", 1);
  const int64_t flops = int64_t{2} * g.rows() * g.cols() * w.rows();
  CLFD_METRIC_COUNT("tensor.matmul.flops", flops);
  CLFD_PROF_SCOPE("MatMulTBBlocked");
  obs::prof::AddFlops(flops);
  obs::prof::AddBytes(int64_t{4} * (g.size() + w.size() + acc->size()));
  DispatchRowRange(g.rows(), flops, [&](int lo, int hi) {
    MatMulTransposeBGateBlockedRowsTiled(g, w, acc, lo, hi);
  });
}

void MatMulTransposeATimeBlockedAddInto(const Matrix& x, const Matrix& g,
                                        int block_rows, Matrix* acc) {
  CheckShape(x.rows() == g.rows(), "MatMulTransposeATimeBlocked", x, g);
  assert(x.rows() == g.rows() && block_rows > 0 &&
         x.rows() % block_rows == 0);
  assert(acc->rows() == x.cols() && acc->cols() == g.cols());
  CLFD_METRIC_COUNT("tensor.matmul_ta_blocked.calls", 1);
  const int64_t flops = int64_t{2} * x.cols() * x.rows() * g.cols();
  CLFD_METRIC_COUNT("tensor.matmul.flops", flops);
  CLFD_PROF_SCOPE("MatMulTABlocked");
  obs::prof::AddFlops(flops);
  obs::prof::AddBytes(int64_t{4} * (x.size() + g.size() + acc->size()));
  DispatchRowRange(acc->rows(), flops, [&](int lo, int hi) {
    MatMulTransposeATimeBlockedRowsTiled(x, g, block_rows, acc, lo, hi);
  });
}

namespace reference {

Matrix MatMul(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  MatMulRows(a, b, &c, 0, c.rows());
  return c;
}

Matrix MatMulTransposeA(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix c(a.cols(), b.cols());
  MatMulTransposeARows(a, b, &c, 0, c.rows());
  return c;
}

Matrix MatMulTransposeB(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  Matrix c(a.rows(), b.rows());
  MatMulTransposeBRows(a, b, &c, 0, c.rows());
  return c;
}

void MatMulTransposeBGateBlockedAddInto(const Matrix& g, const Matrix& w,
                                        Matrix* acc) {
  assert(g.cols() == w.cols() && w.cols() % 4 == 0);
  assert(acc->rows() == g.rows() && acc->cols() == w.rows());
  MatMulTransposeBGateBlockedRows(g, w, acc, 0, acc->rows());
}

void MatMulTransposeATimeBlockedAddInto(const Matrix& x, const Matrix& g,
                                        int block_rows, Matrix* acc) {
  assert(x.rows() == g.rows() && block_rows > 0 &&
         x.rows() % block_rows == 0);
  assert(acc->rows() == x.cols() && acc->cols() == g.cols());
  MatMulTransposeATimeBlockedRows(x, g, block_rows, acc, 0, acc->rows());
}

}  // namespace reference

float RowNorm(const Matrix& a, int r) {
  const float* arow = a.row(r);
  double acc = 0.0;
  for (int c = 0; c < a.cols(); ++c) acc += arow[c] * arow[c];
  return static_cast<float>(std::sqrt(acc) + 1e-12);
}

float MaxAbsDiff(const Matrix& a, const Matrix& b) {
  if (!a.SameShape(b)) return std::numeric_limits<float>::infinity();
  float mx = 0.0f;
  for (int i = 0; i < a.size(); ++i) {
    mx = std::max(mx, std::abs(a[i] - b[i]));
  }
  return mx;
}

bool HasNonFinite(const Matrix& a) {
  for (int i = 0; i < a.size(); ++i) {
    if (!std::isfinite(a[i])) return true;
  }
  return false;
}

}  // namespace clfd
