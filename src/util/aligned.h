// Cache-line-aligned storage helpers for the multi-context simulation
// engine: per-worker lane-state arenas and per-shard statistic slots are
// allocated on 64-byte boundaries so two workers never share a cache
// line (false sharing turns an embarrassingly parallel stat update into
// a coherence ping-pong).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

namespace fpgasim {

/// Size of one cache line / the arena shard alignment, in bytes.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Minimal std::allocator drop-in that over-aligns every allocation.
template <typename T, std::size_t Align = kCacheLineBytes>
struct AlignedAllocator {
  using value_type = T;
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "alignment must be a power of two covering alignof(T)");

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{Align}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Align});
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };
  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) { return true; }
};

/// Vector whose buffer starts on a cache-line boundary.
template <typename T>
using CacheAlignedVector = std::vector<T, AlignedAllocator<T>>;

/// Rounds an element count up so the next section of an arena starts on a
/// cache-line boundary (elements of size `elem_bytes`).
inline constexpr std::size_t align_elems(std::size_t count, std::size_t elem_bytes) {
  const std::size_t per_line = kCacheLineBytes / elem_bytes;
  return (count + per_line - 1) / per_line * per_line;
}

/// Zero-filled, cache-line-aligned byte block for large, sparsely written
/// state. calloc hands large blocks out as fresh anonymous mappings, so
/// pages nobody writes cost neither fill time nor resident memory; the
/// block is over-allocated by one line and the pointer rounded up to it.
class ZeroedBuffer {
 public:
  explicit ZeroedBuffer(std::size_t bytes)
      : raw_(std::calloc(bytes + kCacheLineBytes, 1)) {
    if (raw_ == nullptr) throw std::bad_alloc();
  }
  ~ZeroedBuffer() { std::free(raw_); }
  ZeroedBuffer(const ZeroedBuffer&) = delete;
  ZeroedBuffer& operator=(const ZeroedBuffer&) = delete;

  template <typename T>
  T* as() const {
    const auto p = reinterpret_cast<std::uintptr_t>(raw_);
    return reinterpret_cast<T*>((p + kCacheLineBytes - 1) & ~(kCacheLineBytes - 1));
  }

 private:
  void* raw_;
};

}  // namespace fpgasim
