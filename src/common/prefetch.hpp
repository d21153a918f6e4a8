// Cache-prefetch hint for batched probes.
//
// The KV bulk loader hashes a block of keys and issues every home-slot
// prefetch before the first insert, overlapping the memory latency
// instead of paying it serially.
// Purely advisory: a no-op compiles away on toolchains without the
// builtin, and correctness never depends on it.
#pragma once

namespace netclone {

inline void prefetch_read(const void* address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/3);
#else
  (void)address;
#endif
}

}  // namespace netclone
