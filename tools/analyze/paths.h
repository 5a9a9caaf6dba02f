#pragma once

// Path scoping for the analyzer's rules, which key applicability off
// repo-relative paths. "Infrastructure" is the code that legitimately owns
// threads, clocks, mutable process state, and stderr.

#include <string>

namespace clfd {
namespace analyze {

bool IsHeaderPath(const std::string& path);

// The observability layer, the thread pool, the seeded RNG wrapper (the
// one place std::mt19937_64 may appear), the invariant checker's enable
// latch, the fault-injection registry, and the tensor arena (its dispatch
// switch and thread-local scope pointer are mutable globals by design —
// see src/tensor/arena.cc).
bool IsInfraAllowlisted(const std::string& path);

// The only src/ files allowed to name the tape-interception protocol
// (autograd/tape_hooks.h: TapeHooks, SetTapeHooks, Capturer/Replayer,
// ...): the autograd layer that defines and drives the hooks, and
// src/plan, which implements them. Everything else goes through the
// Planner facade — a trainer that installed hooks directly could replay a
// graph the plan engine never validated.
bool IsPlanProtocolAllowlisted(const std::string& path);

// The trainer capture sites: the only src/ files outside src/plan allowed
// to use the Planner facade (Planner, MakeKey, ExecutionPlan, ...). Plan
// capture is a training-loop decision — one Planner per phase, keyed by
// step shape — not something ops, layers, or losses may do ad hoc.
bool IsPlanCaptureSite(const std::string& path);

}  // namespace analyze
}  // namespace clfd
