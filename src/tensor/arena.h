#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace clfd {
namespace arena {

// Bump allocator backing autograd-tape intermediates.
//
// A training step builds a few thousand small Matrix values (forward
// activations, gradients, kernel temporaries) that all die together when
// the step's tape is dropped. Serving them from a per-step arena replaces
// thousands of heap malloc/free pairs with pointer bumps into a handful of
// chunks that are recycled across steps (after the first step or two the
// arena stops growing and allocation is just an offset add).
//
// Concurrency contract: an Arena has NO internal locking. Each arena must
// be used by one logical stream of work at a time. Every training step
// runs in the arenas of its plan::Planner, one Planner per tape stream
// (the classifier trainer's; each shard replica's and the loss head's in
// the sharded trainer), and code that plans nothing (dataset encoding,
// scoring) owns its own arena. The handoff between the sharded trainer's
// forward and backward ParallelFor regions is ordered by the pool's join,
// which establishes the needed happens-before.
//
// Lifetime contract: memory handed out by Allocate() stays valid until the
// next Reset() of the same arena — NOT until the ScopedArena closes. A
// step therefore Reset()s its arena at the *start* of the step (the
// Planner does so for every training step), so values produced inside the
// previous scope (e.g. the loss scalar that the caller reads after
// backward) remain readable until the next step begins. Nothing allocated
// inside a step may be kept across the next Reset(); when runtime checks
// are enabled (common/check.h), Reset() poisons the recycled region with
// quiet NaNs so any Matrix that escaped its step is caught by the very
// next CheckFinite that touches it.
//
// Chunks are never zero-filled: a new chunk is left uninitialized, so only
// the pages a step actually uses become resident. Under checks a new chunk
// is NaN-filled instead, so a read before a write trips CheckFinite just
// as a read of recycled memory does.
class Arena {
 public:
  // Initial chunk capacity in floats. Further chunks double until
  // kMaxChunkFloats.
  explicit Arena(size_t initial_floats = 1 << 18);
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns an *uninitialized* block of `count` floats (16-float
  // granularity so consecutive blocks do not share a cache line pair);
  // Matrix fills or memcpys over it. Never returns nullptr for count > 0.
  float* Allocate(size_t count);

  // Reclaims everything allocated since the last Reset. O(chunks); under
  // check::Enabled() also NaN-poisons the recycled region (see above).
  void Reset();

  size_t floats_in_use() const;
  size_t floats_reserved() const;
  int64_t chunk_count() const { return static_cast<int64_t>(chunks_.size()); }

  // Allocation cursor: identifies the exact point the next Allocate() will
  // serve from. Because the arena is a deterministic bump allocator (chunk
  // capacities depend only on creation order), two steps that start from
  // Reset() and perform the same allocation sequence observe the same
  // cursor at every point — the determinism property the arena and plan
  // tests lock down by comparing end-of-step cursors across steps.
  struct Mark {
    size_t chunk = 0;
    size_t used = 0;
    bool operator==(const Mark& other) const {
      return chunk == other.chunk && used == other.used;
    }
    bool operator!=(const Mark& other) const { return !(*this == other); }
  };
  Mark Position() const {
    Mark m;
    m.chunk = active_;
    m.used = chunks_.empty() ? 0 : chunks_[active_].used;
    return m;
  }

 private:
  struct Chunk {
    std::unique_ptr<float[]> data;
    size_t capacity = 0;
    size_t used = 0;
  };

  static constexpr size_t kMaxChunkFloats = size_t{1} << 24;  // 64 MiB

  std::vector<Chunk> chunks_;
  size_t active_ = 0;  // chunks_[active_] is the one being bumped
  size_t next_capacity_;
};

// Always true: Matrix storage comes from the innermost ScopedArena, and
// from the heap outside one. Kept only for the end-to-end benchmark's
// settings record.
inline bool Enabled() { return true; }

// The arena newly constructed Matrix storage is served from, if any.
// Thread-local: each worker thread (and the main thread) sees only the
// scope it opened. Returns nullptr when no scope is active — callers fall
// back to the heap.
Arena* Current();

// Routes Matrix storage allocated on this thread to `a` for the lifetime
// of the scope. Does NOT reset the arena — steps call Reset() explicitly
// at their start so the previous step's outputs stay readable (see the
// lifetime contract above). Scopes nest; the previous target is restored
// on destruction.
class ScopedArena {
 public:
  explicit ScopedArena(Arena* a);
  ~ScopedArena();
  ScopedArena(const ScopedArena&) = delete;
  ScopedArena& operator=(const ScopedArena&) = delete;

 private:
  Arena* saved_;
};

}  // namespace arena
}  // namespace clfd
