#include "common/fault.h"

#include <atomic>

namespace clfd {
namespace fault {

namespace {

// Armed/disarmed latch for the whole process. Acquire/release ordering so
// a probe that observes the pointer also observes the fully constructed
// injector behind it.
std::atomic<Injector*> g_injector{nullptr};

}  // namespace

void SetInjector(Injector* injector) {
  g_injector.store(injector, std::memory_order_release);
}

bool Armed() {
  return g_injector.load(std::memory_order_acquire) != nullptr;
}

bool At(const char* site) {
  Injector* injector = g_injector.load(std::memory_order_acquire);
  if (injector == nullptr) return false;
  return injector->At(site);
}

}  // namespace fault
}  // namespace clfd
