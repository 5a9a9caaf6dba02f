#pragma once

namespace clfd {

// The MatMul-family kernels in matrix.cc have one compiled body each, the
// register-tiled one (DESIGN.md §12). This header serves only e2ebench's
// settings record, which stamps KernelBackendName(CurrentKernelBackend())
// into every result as "kernel_backend"; it goes when that field does (see
// the e2ebench dead-weight list in ROADMAP.md). Nothing under src/, tools/,
// tests/, bench/ or examples/ includes it.
enum class KernelBackend : int { kBlocked };

inline KernelBackend CurrentKernelBackend() { return KernelBackend::kBlocked; }

inline const char* KernelBackendName(KernelBackend) { return "blocked"; }

}  // namespace clfd
