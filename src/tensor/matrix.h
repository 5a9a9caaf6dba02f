#pragma once

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"

namespace clfd {

// Dense row-major float matrix.
//
// This is the numeric workhorse of the library: the autograd tape, the
// neural layers and the loss kernels all operate on Matrix values. The
// dimensions in this codebase are modest (embedding/hidden size 50, batch
// size ~100-120), so the kernels are straightforward loops; the matmul
// family additionally splits output rows across the global thread pool
// (src/parallel/) once a shape is large enough to amortize dispatch — see
// MatmulParallelThreshold below. Serial and parallel paths share the same
// per-row code, so results never depend on the thread count.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols, float fill = 0.0f);

  // Storage indirection (see tensor/arena.h): data_ points either into
  // heap_ (the default std::vector path) or into the thread's current
  // arena. Copies allocate from whatever the current context is; moves
  // carry the source's storage along (vector moves keep element addresses
  // stable, so data_ transfers verbatim for both backings).
  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  Matrix(Matrix&& other) noexcept
      : rows_(other.rows_), cols_(other.cols_), data_(other.data_),
        heap_(std::move(other.heap_)) {
    other.rows_ = other.cols_ = 0;
    other.data_ = nullptr;
  }
  Matrix& operator=(Matrix&& other) noexcept {
    if (this != &other) {
      rows_ = other.rows_;
      cols_ = other.cols_;
      data_ = other.data_;
      heap_ = std::move(other.heap_);
      other.rows_ = other.cols_ = 0;
      other.data_ = nullptr;
    }
    return *this;
  }
  ~Matrix() = default;

  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  // Xavier/Glorot uniform initialization: U(-s, s), s = sqrt(6/(in+out)).
  static Matrix Xavier(int rows, int cols, Rng* rng);
  // Elementwise N(0, stddev^2).
  static Matrix Randn(int rows, int cols, float stddev, Rng* rng);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  float& at(int r, int c) {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float at(int r, int c) const {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float& operator[](int i) { return data_[i]; }
  float operator[](int i) const { return data_[i]; }

  float* data() { return data_; }
  const float* data() const { return data_; }
  float* row(int r) { return data_ + static_cast<size_t>(r) * cols_; }
  const float* row(int r) const {
    return data_ + static_cast<size_t>(r) * cols_;
  }

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  // In-place mutators.
  void Fill(float value);
  void AddInPlace(const Matrix& other);           // this += other
  void AddScaled(const Matrix& other, float s);   // this += s * other
  void Scale(float s);                            // this *= s

  // Row r of this becomes a copy of row src_r of src.
  void CopyRowFrom(const Matrix& src, int src_r, int r);

  std::string DebugString(int max_rows = 6, int max_cols = 8) const;

 private:
  // Allocates size() floats from the current arena (if a scope is active)
  // or heap_, leaving the contents uninitialized; out of line so every
  // allocation funnels through the tensor.alloc.* metrics.
  void AllocateStorage();

  int rows_;
  int cols_;
  float* data_ = nullptr;
  std::vector<float> heap_;
};

// ---- Free-function kernels (allocate and return the result). ----
//
// Every value-returning kernel below is a thin wrapper over an in-place
// `*Into` variant further down: `X(args)` is exactly
// `{ Matrix c; XInto(args, &c); return c; }`. The Into forms are what every
// ag:: op forward calls: on a fresh tape node they allocate exactly like
// `X(args)`, and under the execution-plan replayer (src/plan) they
// recompute a captured graph's node values into its persistent buffers
// every step.

// The matmul kernels split their output rows across the global thread pool
// when the nominal flop count (2*M*K*N) reaches this threshold; below it
// they run serially. Both paths execute the *same* per-row code, so the
// result is bitwise identical either way — the threshold trades dispatch
// overhead against parallelism, never accuracy. The default comes from the
// CLFD_PARALLEL_MIN_FLOPS environment variable (128k flops when unset).
int64_t MatmulParallelThreshold();
void SetMatmulParallelThreshold(int64_t flops);

// Scoped override used by tests to force one kernel path: 0 forces the
// parallel path for every shape, a huge value forces the serial path.
class ScopedMatmulParallelThreshold {
 public:
  explicit ScopedMatmulParallelThreshold(int64_t flops)
      : saved_(MatmulParallelThreshold()) {
    SetMatmulParallelThreshold(flops);
  }
  ~ScopedMatmulParallelThreshold() { SetMatmulParallelThreshold(saved_); }
  ScopedMatmulParallelThreshold(const ScopedMatmulParallelThreshold&) = delete;
  ScopedMatmulParallelThreshold& operator=(
      const ScopedMatmulParallelThreshold&) = delete;

 private:
  int64_t saved_;
};

// C = A * B. Requires a.cols == b.rows.
Matrix MatMul(const Matrix& a, const Matrix& b);
// C = A^T * B. Requires a.rows == b.rows.
Matrix MatMulTransposeA(const Matrix& a, const Matrix& b);
// C = A * B^T. Requires a.cols == b.cols.
Matrix MatMulTransposeB(const Matrix& a, const Matrix& b);

Matrix Transpose(const Matrix& a);
Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix Mul(const Matrix& a, const Matrix& b);  // elementwise (Hadamard)
Matrix Div(const Matrix& a, const Matrix& b);  // elementwise
Matrix AddScalar(const Matrix& a, float s);
Matrix MulScalar(const Matrix& a, float s);

// Adds a [1 x C] row vector to every row of a [R x C] matrix.
Matrix AddRowBroadcast(const Matrix& a, const Matrix& row);

// Elementwise maps.
Matrix Exp(const Matrix& a);
Matrix Log(const Matrix& a);  // clamps input at 1e-12 to stay finite
Matrix Pow(const Matrix& a, float p);
Matrix Tanh(const Matrix& a);
Matrix Sigmoid(const Matrix& a);
Matrix Relu(const Matrix& a);
Matrix LeakyRelu(const Matrix& a, float slope);

// Reductions.
float SumAll(const Matrix& a);
float MeanAll(const Matrix& a);
Matrix SumRows(const Matrix& a);   // [R x C] -> [R x 1]
Matrix MeanRows(const Matrix& a);  // [R x C] -> [R x 1]

// Row-wise numerically stable softmax.
Matrix SoftmaxRows(const Matrix& a);

// Concatenates blocks vertically; all blocks must share the column count.
Matrix ConcatRows(const std::vector<Matrix>& blocks);
// Rows [begin, end) of a.
Matrix SliceRows(const Matrix& a, int begin, int end);

// Concatenates blocks horizontally; all blocks must share the row count.
Matrix ConcatCols(const std::vector<Matrix>& blocks);
// Columns [begin, end) of a.
Matrix SliceCols(const Matrix& a, int begin, int end);

// ---- Fused LSTM kernels (see nn/lstm.cc and DESIGN.md §9) ----
//
// The packed layout keeps the four gates in H-wide column blocks of one
// [.. x 4H] matrix, indexed i=0, f=1, g=2, o=3 like nn::LstmCell. Because
// the matmul kernels above accumulate every output element over k
// independently per *column*, packing columns changes no forward bit; the
// two kernels below reproduce the legacy backward's accumulation order so
// gradients are bit-identical too.

// The order in which the legacy per-gate backward ops deposit their
// contributions into a shared accumulator (reverse tape order of the
// unfused step: candidate, input, forget, output). The blocked backward
// kernels replay this order so fused == legacy holds bitwise.
inline constexpr int kLstmGateBackwardOrder[4] = {2, 0, 1, 3};

// Fused gate forward. pre [B x 4H] holds the packed preactivations,
// hc_prev [B x 2H] = [h_{t-1} | c_{t-1}]. Writes hc [B x 2H] = [h_t | c_t]
// and acts [B x 5H] = [i | f | g | o | tanh(c_t)], the values the backward
// needs. Scalar math matches the unfused Sigmoid/Tanh/Mul/Add ops exactly.
void LstmGatesForward(const Matrix& pre, const Matrix& hc_prev, Matrix* hc,
                      Matrix* acts);

// Fused gate backward. gout [B x 2H] is d(loss)/d(hc); adds d(loss)/d(pre)
// into *dpre [B x 4H] and, when dhc_prev is non-null, adds
// d(loss)/d(c_{t-1}) into its right half [B x 2H] (h_{t-1} feeds the step
// only through the recurrent matmul, so its left half is untouched).
void LstmGatesBackward(const Matrix& gout, const Matrix& acts,
                       const Matrix& hc_prev, Matrix* dpre, Matrix* dhc_prev);

// acc += g * w^T evaluated one H-wide gate block at a time in
// kLstmGateBackwardOrder (fresh per-block dot, then add), exactly like the
// four per-gate MatMulTransposeB + AddInPlace pairs of the legacy step.
// g [R x 4H], w [C x 4H], acc [R x C].
void MatMulTransposeBGateBlockedAddInto(const Matrix& g, const Matrix& w,
                                        Matrix* acc);

// acc += x^T * g accumulated per `block_rows`-row time block in DESCENDING
// block order (fresh per-block partial, then add), exactly like the
// per-step dWx MatMulTransposeA + AddInPlace pairs of the legacy unroll
// running in reverse time. x [T*B x K], g [T*B x N], acc [K x N].
void MatMulTransposeATimeBlockedAddInto(const Matrix& x, const Matrix& g,
                                        int block_rows, Matrix* acc);

// ---- Serial references for the five MatMul-family kernels ----
//
// Each runs the plain scalar row loop of its kernel over every row on the
// calling thread: no row dispatch, prof scope or kernel counter. The
// kernels above run register-tiled bodies that must match these bit for
// bit (NaN payloads aside; DESIGN.md §12), which tests/kernel_backend_test.cc
// checks at every width and pins with committed hashes.
namespace reference {
Matrix MatMul(const Matrix& a, const Matrix& b);
Matrix MatMulTransposeA(const Matrix& a, const Matrix& b);
Matrix MatMulTransposeB(const Matrix& a, const Matrix& b);
void MatMulTransposeBGateBlockedAddInto(const Matrix& g, const Matrix& w,
                                        Matrix* acc);
void MatMulTransposeATimeBlockedAddInto(const Matrix& x, const Matrix& g,
                                        int block_rows, Matrix* acc);
}  // namespace reference

// ---- In-place kernel variants (every ag:: op forward; DESIGN.md §15). ----
//
// Each `XInto(args, out)` runs the same shape checks, metrics and per-row
// kernel body as `X(args)` but writes the result into *out. When *out
// already has the target shape its storage is reused — no allocation, and
// for the overwrite-style kernels not even a clear; only the accumulating
// matmuls re-zero the buffer first. Otherwise *out is reallocated from the
// current storage context (arena scope or heap), which is exactly what the
// value-returning wrapper does on its fresh result. *out must not alias any
// input.

// Reuses *out when it is already [rows x cols] (clearing it to zero only
// when `zeroed` is set, for kernels that accumulate rather than assign);
// otherwise replaces it with a zero-filled [rows x cols] matrix.
void EnsureShape(Matrix* out, int rows, int cols, bool zeroed);

// *dst becomes a copy of src, reusing dst's storage when shapes match.
void CopyInto(const Matrix& src, Matrix* dst);

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* c);
void MatMulTransposeAInto(const Matrix& a, const Matrix& b, Matrix* c);
void MatMulTransposeBInto(const Matrix& a, const Matrix& b, Matrix* c);

void AddInto(const Matrix& a, const Matrix& b, Matrix* c);
void SubInto(const Matrix& a, const Matrix& b, Matrix* c);
void MulInto(const Matrix& a, const Matrix& b, Matrix* c);
void AddScalarInto(const Matrix& a, float s, Matrix* c);
void MulScalarInto(const Matrix& a, float s, Matrix* c);
void AddRowBroadcastInto(const Matrix& a, const Matrix& row_vec, Matrix* c);

void ExpInto(const Matrix& a, Matrix* c);
void LogInto(const Matrix& a, Matrix* c);
void PowInto(const Matrix& a, float p, Matrix* c);
void TanhInto(const Matrix& a, Matrix* c);
void SigmoidInto(const Matrix& a, Matrix* c);
void ReluInto(const Matrix& a, Matrix* c);
void LeakyReluInto(const Matrix& a, float slope, Matrix* c);

void SumRowsInto(const Matrix& a, Matrix* out);
void SoftmaxRowsInto(const Matrix& a, Matrix* out);

// Pointer-of-blocks forms so a replayed concat reads the parent node values
// directly instead of copying each block first (the vector overloads above
// wrap these).
void ConcatRowsInto(const Matrix* const* blocks, int n, Matrix* out);
void ConcatColsInto(const Matrix* const* blocks, int n, Matrix* out);
void SliceRowsInto(const Matrix& a, int begin, int end, Matrix* out);
void SliceColsInto(const Matrix& a, int begin, int end, Matrix* out);

// L2 norm of row r (with a small epsilon floor to avoid division by zero).
float RowNorm(const Matrix& a, int r);

// Maximum absolute elementwise difference; infinity when shapes differ.
float MaxAbsDiff(const Matrix& a, const Matrix& b);

// True if any element is NaN or infinite.
bool HasNonFinite(const Matrix& a);

// Runtime invariant hooks (common/check.h). No-ops while checks are
// disabled; when enabled, CheckFinite throws check::InvariantError if `a`
// holds a NaN/Inf and CheckShape throws when `ok` is false — both messages
// carry `op` as provenance plus the offending shapes/values. The autograd
// layer calls CheckFinite on every op output; the kernels here call
// CheckShape ahead of their asserts so misuse reports as a catchable error
// with context instead of an assert abort.
void CheckFinite(const Matrix& a, const char* op);
void CheckShape(bool ok, const char* op, const Matrix& a, const Matrix& b);

}  // namespace clfd

