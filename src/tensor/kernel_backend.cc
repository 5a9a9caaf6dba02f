#include "tensor/kernel_backend.h"

#include <atomic>

#include "obs/prof.h"

namespace clfd {

namespace {

// -1 = not yet read; the first read installs the blocked default and
// stamps the report annotation. Deliberate mutable global: a dispatch
// *selector*, not numeric state — every backend produces bitwise-identical
// results (tests/kernel_backend_test.cc), so its value can never change
// what is computed, only which compiled body computes it. Same idiom as
// g_matmul_threshold in matrix.cc.
// clfd-lint: allow(concurrency-mutable-global) clfd-analyze: allow(semantic-mutable-global)
std::atomic<int> g_kernel_backend{-1};

void Annotate(KernelBackend b) {
  obs::prof::SetReportAnnotation("kernel_backend", KernelBackendName(b));
}

}  // namespace

const char* KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar: return "scalar";
    case KernelBackend::kBlocked: return "blocked";
  }
  return "scalar";
}

const std::array<KernelBackend, 2>& AllKernelBackends() {
  static const std::array<KernelBackend, 2> all = {KernelBackend::kScalar,
                                                   KernelBackend::kBlocked};
  return all;
}

KernelBackend CurrentKernelBackend() {
  int v = g_kernel_backend.load(std::memory_order_relaxed);
  if (v < 0) {
    v = static_cast<int>(KernelBackend::kBlocked);
    g_kernel_backend.store(v, std::memory_order_relaxed);
    Annotate(KernelBackend::kBlocked);
  }
  return static_cast<KernelBackend>(v);
}

void SetKernelBackend(KernelBackend backend) {
  g_kernel_backend.store(static_cast<int>(backend),
                         std::memory_order_relaxed);
  Annotate(backend);
}

}  // namespace clfd
