#include "common/check.h"

#include <atomic>

namespace clfd {
namespace check {

namespace {

constexpr bool kDefaultEnabled =
#ifdef CLFD_CHECK
    true;
#else
    false;
#endif

// The one mutable global of the invariant layer: the enable latch. Relaxed
// ordering suffices — the flag only gates diagnostics, never data flow.
std::atomic<bool> g_enabled{kDefaultEnabled};

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

void Fail(const std::string& message) {
  throw InvariantError("clfd invariant violation: " + message);
}

}  // namespace check
}  // namespace clfd
