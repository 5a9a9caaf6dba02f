#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "tensor/matrix.h"

namespace clfd {
namespace ag {

// One node in the dynamically built computation graph.
//
// A node owns its forward value and (lazily allocated) gradient buffer. The
// backward function of a node propagates `grad` into the gradients of its
// parents; nodes and their captured intermediates are freed automatically
// when the last Var handle referencing the graph goes out of scope.
class Node {
 public:
  Matrix value;
  Matrix grad;  // same shape as value once EnsureGrad() has run
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  // Propagates this node's grad into parents' grads. Null for leaves.
  std::function<void(Node*)> backward_fn;
  // Provenance + tape-misuse accounting for the invariant checker
  // (common/check.h): which op built this node, and how many times its
  // backward_fn has executed. A second execution means the same tape
  // section would double-propagate gradients — Backward called twice on one
  // root, or new ops built on a Var whose tape was already consumed — and
  // fails loudly when checks are enabled.
  const char* op = "leaf";
  int backward_runs = 0;
  // Last execution-plan capture that recorded this node (src/plan). Tags are
  // minted from a process-global monotonic counter, so a stale tag from a
  // dead plan can never collide with a live capture's. Written only while a
  // capture's hooks are installed on the owning thread; concurrent capture
  // streams never share input nodes (the sharded trainer gives each replica
  // its own parameters), so the field needs no synchronization.
  uint64_t plan_tag = 0;
  // Per-step auxiliary data some backwards need beyond parent/output values
  // (RowScaleConst's scale column, LstmGates' cached activations, the LSTM
  // input projection's input block, NormalizeRows' row norms). Stored on the
  // node rather than captured by value in the backward closure so a replayed
  // step (src/plan) can refresh it without rebuilding the closure.
  Matrix aux;

  void EnsureGrad() {
    if (!grad.SameShape(value)) grad = Matrix(value.rows(), value.cols());
  }
};

using NodePtr = std::shared_ptr<Node>;

// Lightweight value-semantic handle to a graph node. All autograd ops take
// and return Var by value; copying a Var aliases the underlying node.
class Var {
 public:
  Var() = default;
  explicit Var(NodePtr node) : node_(std::move(node)) {}

  bool defined() const { return node_ != nullptr; }
  const Matrix& value() const { return node_->value; }
  // Mutators operate on the shared node, so they are usable through const
  // handles (a Var is a reference, not a value).
  Matrix& mutable_value() const { return node_->value; }
  const Matrix& grad() const { return node_->grad; }
  Matrix& mutable_grad() const { return node_->grad; }
  bool requires_grad() const { return node_ && node_->requires_grad; }

  int rows() const { return node_->value.rows(); }
  int cols() const { return node_->value.cols(); }

  // By const reference: node() sits on the replay hot path (src/plan
  // validates every op input against the captured graph), where a by-value
  // return would cost two atomic refcount operations per parent per op.
  const NodePtr& node() const { return node_; }

 private:
  NodePtr node_;
};

// Leaf with no gradient (inputs, labels, masks).
Var Constant(Matrix value);
// Leaf that accumulates gradient (model parameters).
Var Param(Matrix value);

// Runs reverse-mode accumulation from `root` (typically a [1 x 1] scalar
// loss). Seeds d(root)/d(root) = 1 and traverses the graph in reverse
// topological order. Parameter gradients accumulate across calls until the
// optimizer clears them.
void Backward(const Var& root);

// Backward with an explicit upstream gradient: seeds d(loss)/d(root) +=
// seed (same shape as root's value) instead of 1. This is how a tape that
// was cut at `root` is resumed — the sharded training step backpropagates
// the loss through a small serial head, then feeds each shard's slice of
// the head-input gradient into that shard's own tape.
void BackwardWithGrad(const Var& root, const Matrix& seed);

// ---- Differentiable ops. Shapes follow the tensor/matrix.h kernels. ----

Var MatMul(const Var& a, const Var& b);
// a * b^T; used for similarity matrices (z z^T).
Var MatMulTransposeB(const Var& a, const Var& b);

Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);  // elementwise
Var AddScalar(const Var& a, float s);
Var Scale(const Var& a, float s);
// Adds a [1 x C] bias row to every row of a.
Var AddRowBroadcast(const Var& a, const Var& bias);
// Scales row r of a by the constant col[r] (no gradient through col).
// Used for sequence masking and confidence weighting.
Var RowScaleConst(const Var& a, const Matrix& col);

Var Exp(const Var& a);
Var Log(const Var& a);        // input clamped at 1e-12 in forward & backward
Var Pow(const Var& a, float p);
Var Tanh(const Var& a);
Var Sigmoid(const Var& a);
Var Relu(const Var& a);
Var LeakyRelu(const Var& a, float slope);

// Row-wise softmax (stable); used by classifier heads & attention.
Var SoftmaxRows(const Var& a);

// Reductions to [1 x 1] / per-row.
Var SumAll(const Var& a);
Var MeanAll(const Var& a);
Var SumRows(const Var& a);  // [R x C] -> [R x 1]

Var ConcatRows(const std::vector<Var>& blocks);
Var SliceRows(const Var& a, int begin, int end);

// Columns [begin, end); the LSTM reads h out of its [h | c] state with it.
Var SliceCols(const Var& a, int begin, int end);

// ---- Fused LSTM ops (the nn/lstm.cc fused path; DESIGN.md §9). ----
// Each is bit-equivalent to the unfused subgraph it replaces: forwards use
// the same column-independent matmul kernels, backwards replay the legacy
// tape's accumulation order (gate blocks in kLstmGateBackwardOrder, time
// blocks descending).

// x * w for a packed 4-gate weight w [K x 4H]. Forward is one MatMul; the
// backward into x runs one H-wide gate block at a time in the legacy
// order, and the backward into w is a standard MatMulTransposeA (its
// column blocks are independent, so packing cannot change them).
Var LstmPackedMatMul(const Var& x, const Var& w);

// xcat * w, where xcat is the [T*B x K] row-concatenation of a layer's T
// constant input steps. One call amortizes the whole layer's input
// projection into a matmul big enough for the parallel kernels; only
// usable when the inputs carry no gradient (they are raw data, not a
// parent), which holds for layer 0's embedded steps. The backward into w
// accumulates per B-row time block in descending order, matching the
// legacy per-step accumulation.
Var LstmInputProjection(Matrix xcat, const Var& w, int block_rows);

// Fused LSTM cell update replacing ~12 elementwise tape nodes: pre
// [B x 4H] holds the packed gate preactivations, hc_prev [B x 2H] the
// previous [h | c]. Returns [B x 2H] = [h_t | c_t]; take h_t with
// SliceCols. h_{t-1} feeds the step only through the recurrent matmul, so
// only the c half of hc_prev receives gradient from this op.
Var LstmGates(const Var& pre, const Var& hc_prev);

// L2-normalizes every row; the backbone of cosine-similarity losses.
Var NormalizeRows(const Var& a);

}  // namespace ag
}  // namespace clfd

