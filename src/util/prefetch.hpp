// Best-effort cache-prefetch hints for the million-task hot paths. A
// hint, never a semantic effect: wrong or late prefetches only cost a
// few cycles, so callers may speculate freely (e.g. on the next entry
// of a work queue that might not be consumed).
#pragma once

#include <cstddef>

namespace hetflow::util {

/// Prefetches the cache line containing `addr` for reading. No-op on
/// compilers without the builtin.
inline void prefetch_read(const void* addr) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, 0, 3);
#else
  (void)addr;
#endif
}

/// Prefetches the cache line containing `addr` with intent to write.
inline void prefetch_write(const void* addr) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, 1, 3);
#else
  (void)addr;
#endif
}

/// Prefetches every line of [addr, addr + bytes) for reading.
inline void prefetch_range_read(const void* addr, std::size_t bytes) noexcept {
  const char* p = static_cast<const char*>(addr);
  for (std::size_t off = 0; off < bytes; off += 64) {
    prefetch_read(p + off);
  }
}

}  // namespace hetflow::util
