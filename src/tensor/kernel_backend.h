#pragma once

#include <array>

namespace clfd {

// Which compiled bodies the MatMul-family kernels in matrix.cc dispatch to.
// Both backends are bitwise-interchangeable: every output element is
// accumulated over k in the same ascending order with one rounded add per
// term (and the same zero-skip control flow), so switching backends — like
// switching thread widths — can never change a single result bit. The
// equivalence suite in tests/kernel_backend_test.cc enforces this against
// the scalar oracle for every kernel and pins the output bits to committed
// hashes; DESIGN.md §12 gives the argument.
//
//   scalar   the original per-row loops (the test oracle; also the
//            fallback for row remainders inside the blocked bodies, except
//            MatMul's, which run a one-row tile)
//   blocked  register-tiled (4x8 output tile) + L1-blocked over k; the
//            process default
enum class KernelBackend : int {
  kScalar = 0,
  kBlocked = 1,
};

// Active backend: blocked unless a ScopedKernelBackend overrides it. One
// relaxed atomic load on the hot path, same idiom as
// MatmulParallelThreshold.
KernelBackend CurrentKernelBackend();

// Process-wide override, the primitive under ScopedKernelBackend. Also
// stamps the obs report annotation so profiles and rooflines are
// attributed to the backend that produced them.
void SetKernelBackend(KernelBackend backend);

// "scalar" / "blocked".
const char* KernelBackendName(KernelBackend backend);

// All backends, scalar first — test sweeps iterate this so every
// equivalence/grad-check suite compares the tiled bodies to the oracle.
const std::array<KernelBackend, 2>& AllKernelBackends();

// Test helper: force a backend for a lexical scope, restoring the previous
// selection on exit. Not thread-safe (flips the process-wide selector);
// use from single-threaded test bodies only, like
// ScopedMatmulParallelThreshold.
class ScopedKernelBackend {
 public:
  explicit ScopedKernelBackend(KernelBackend backend)
      : saved_(CurrentKernelBackend()) {
    SetKernelBackend(backend);
  }
  ~ScopedKernelBackend() { SetKernelBackend(saved_); }
  ScopedKernelBackend(const ScopedKernelBackend&) = delete;
  ScopedKernelBackend& operator=(const ScopedKernelBackend&) = delete;

 private:
  KernelBackend saved_;
};

}  // namespace clfd
