#pragma once

#include <vector>

#include "autograd/var.h"

namespace clfd {
namespace ag {

// Interception points that let an execution-plan engine (src/plan) observe
// or replace the dynamic tape (DESIGN.md §15).
//
// Every op builder in var.cc ends in one MakeOp(), which calls OnOp()
// before building anything; the one leaf builder behind Constant and Param
// calls OnLeaf(). A hook that returns true has satisfied the call from a
// previously captured plan (replay): the builder returns the plan's node
// and constructs nothing. A hook that returns false lets the dynamic
// builder run: MakeOp fills a fresh node through OpDesc::forward, and the
// builder reports the node through OnNodeCreated() so a capturing hook can
// pair it with the OpDesc it saw in OnOp(). Backward() consults
// OnBackward() the same way, and the dynamic engine reports its execution
// order through OnBackwardOrder().
//
// Hooks are installed per *thread* (SetTapeHooks), because the sharded
// trainer runs one independent capture/replay stream per shard worker. The
// cost when no hook is installed is a single thread-local load and branch
// per op.

// Per-call payload for an op's forward body: the op's scalar arguments
// plus pointers to this call's auxiliary matrices (RowScaleConst's scale
// column, LstmInputProjection's input block). The aux pointers are valid
// only during the builder call; `aux_move` may be moved from by the forward
// body.
struct OpCall {
  float f0 = 0.0f;
  int i0 = 0;
  int i1 = 0;
  const Matrix* aux_copy = nullptr;
  Matrix* aux_move = nullptr;
};

// Computes `out`'s value (and `out->aux` where the op uses it) from the
// parent nodes. One function per op kind, defined in var.cc next to its
// builder; it is the op's only forward body: MakeOp runs it on a fresh node
// and the replayer on the plan's node, so a dynamic and a replayed step run
// the same kernel calls.
using PlanForwardFn = void (*)(Node* out, Node* const* parents,
                               int num_parents, const OpCall& call);

// Everything a plan needs to record (capture) or validate (replay) one op
// call. `op` is the same static provenance string stored in Node::op, so
// kind comparison is cheap. `inputs` is an array of *pointers* to the
// builder's Var arguments — pointers rather than copies so a replayed op
// pays zero shared_ptr refcount traffic — and is only valid for the
// duration of the builder call.
struct OpDesc {
  const char* op = nullptr;
  PlanForwardFn forward = nullptr;
  const Var* const* inputs = nullptr;
  int num_inputs = 0;
  OpCall call;
};

class TapeHooks {
 public:
  virtual ~TapeHooks() = default;

  // Op builder entry. Return true to satisfy the call from a plan (replay;
  // *out receives the plan's node), false to let the dynamic builder run.
  virtual bool OnOp(const OpDesc& desc, Var* out) = 0;

  // Leaf builder entry (ag::Constant / ag::Param). Return true to bind
  // *value into the plan's leaf slot (the matrix may be moved from) and
  // hand back the slot through *out.
  virtual bool OnLeaf(const char* op, Matrix* value, bool requires_grad,
                      Var* out) = 0;

  // Reports a node the dynamic builder just created. For interior nodes
  // this pairs with the immediately preceding OnOp() that returned false;
  // for leaves, with the preceding OnLeaf().
  virtual void OnNodeCreated(const NodePtr& node) = 0;

  // Backward entry. `seed` is null for plain Backward(). Return true to
  // run a planned backward instead of the dynamic engine.
  virtual bool OnBackward(const Var& root, const Matrix* seed) = 0;

  // Reports the dynamic engine's post-order (leaf-to-root) execution
  // sequence so a capture can replay the exact same accumulation order.
  virtual void OnBackwardOrder(const Var& root, const Matrix* seed,
                               const std::vector<Node*>& post_order) = 0;
};

// Installs `hooks` for the current thread (nullptr uninstalls) and returns
// the previously installed value so scopes can nest.
TapeHooks* SetTapeHooks(TapeHooks* hooks);
TapeHooks* CurrentTapeHooks();

// Ends every op forward, dynamic or replayed: the `op.nan` fault probe on
// out->value, then (checks on) its finite check with out->op as provenance.
// MakeOp and the replayer both call it after OpDesc::forward, so fault
// injection and the watchdog see the same op boundary in either mode.
void FinishForward(Node* out);

}  // namespace ag
}  // namespace clfd
