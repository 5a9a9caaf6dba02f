#include "tensor/arena.h"

#include <algorithm>
#include <limits>
#include <new>

#include "common/check.h"
#include "common/fault.h"

namespace clfd {
namespace arena {

namespace {

constexpr size_t kBlockFloats = 16;  // 64-byte granularity

// Under check::Enabled(), fresh and recycled chunk memory reads as this.
constexpr float kPoison = std::numeric_limits<float>::quiet_NaN();

size_t RoundUp(size_t n) {
  return (n + kBlockFloats - 1) / kBlockFloats * kBlockFloats;
}

// The active arena of *this* thread. Thread-local by design: the sharded
// trainer opens a different shard's arena on every worker, and a worker
// must never see another worker's scope.
thread_local Arena* t_current = nullptr;

}  // namespace

Arena::Arena(size_t initial_floats)
    : next_capacity_(std::max(RoundUp(initial_floats), kBlockFloats)) {}

float* Arena::Allocate(size_t count) {
  // Fault probe: rehearses allocation failure at the bump-allocator
  // boundary (the watchdog treats bad_alloc as a recoverable batch event).
  if (fault::At("arena.alloc")) throw std::bad_alloc();
  size_t need = RoundUp(std::max<size_t>(count, 1));
  while (active_ < chunks_.size()) {
    Chunk& c = chunks_[active_];
    if (c.capacity - c.used >= need) {
      float* p = c.data.get() + c.used;
      c.used += need;
      return p;
    }
    ++active_;
  }
  size_t cap = std::max(next_capacity_, need);
  next_capacity_ = std::min(cap * 2, kMaxChunkFloats);
  // Left uninitialized: zero-filling would make the chunk's never-used tail
  // resident. Under checks it reads NaN instead, like recycled memory.
  auto data = std::make_unique_for_overwrite<float[]>(cap);
  if (check::Enabled()) std::fill(data.get(), data.get() + cap, kPoison);
  chunks_.push_back(Chunk{std::move(data), cap, need});
  active_ = chunks_.size() - 1;
  return chunks_.back().data.get();
}

void Arena::Reset() {
  if (check::Enabled()) {
    // Poison the recycled region so a Matrix that escaped its step reads
    // as NaN and fails the next CheckFinite with clear provenance.
    for (Chunk& c : chunks_) {
      std::fill(c.data.get(), c.data.get() + c.used, kPoison);
    }
  }
  for (Chunk& c : chunks_) c.used = 0;
  active_ = 0;
}

size_t Arena::floats_in_use() const {
  size_t total = 0;
  for (const Chunk& c : chunks_) total += c.used;
  return total;
}

size_t Arena::floats_reserved() const {
  size_t total = 0;
  for (const Chunk& c : chunks_) total += c.capacity;
  return total;
}

Arena* Current() { return t_current; }

ScopedArena::ScopedArena(Arena* a) : saved_(t_current) { t_current = a; }

ScopedArena::~ScopedArena() { t_current = saved_; }

}  // namespace arena
}  // namespace clfd
