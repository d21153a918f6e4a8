#include "kv/store.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/prefetch.hpp"

namespace netclone::kv {
namespace {

/// Writes the canonical key of `index` into out[0, kMaxKeyBytes).
void write_key(std::uint64_t index, char* out) {
  NETCLONE_CHECK(index <= kMaxKeyIndex,
                 "object index too large for a 16-byte key");
  out[0] = 'k';
  for (std::size_t pos = kMaxKeyBytes - 1; pos > 0; --pos) {
    out[pos] = static_cast<char>('0' + index % 10);
    index /= 10;
  }
}

/// Values of objects first..first+N-1 into out[0..N). Each value is a
/// chain of 64 dependent mix64 steps; running N chains side by side lets
/// the CPU overlap them instead of waiting on one.
template <std::size_t N>
void write_values(std::uint64_t first, char (*out)[kMaxValueBytes]) {
  std::array<std::uint64_t, N> state;
  for (std::size_t j = 0; j < N; ++j) {
    state[j] = mix64(first + j + 1);
  }
  for (std::size_t b = 0; b < kMaxValueBytes; ++b) {
    for (std::size_t j = 0; j < N; ++j) {
      state[j] = mix64(state[j]);
      // Printable bytes keep pcap dumps and debugging output readable.
      out[j][b] = static_cast<char>('a' + state[j] % 26);
    }
  }
}

}  // namespace

KvStore::KvStore(std::size_t capacity_hint) {
  NETCLONE_CHECK(capacity_hint > 0, "store capacity must be positive");
  const std::size_t capacity = std::bit_ceil(capacity_hint * 2);
  slots_.resize(capacity);
  mask_ = capacity - 1;
}

std::size_t KvStore::slot_of(std::string_view key) const {
  return static_cast<std::size_t>(fnv1a(key)) & mask_;
}

std::optional<std::size_t> KvStore::probe(std::string_view key,
                                          std::size_t home) const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const std::size_t idx = (home + i) & mask_;
    const Slot& slot = slots_[idx];
    if (!slot.occupied) {
      return idx;
    }
    if (slot.key_len == key.size() &&
        std::memcmp(slot.key, key.data(), key.size()) == 0) {
      return idx;
    }
  }
  return std::nullopt;
}

bool KvStore::set(std::string_view key, std::string_view value) {
  if (key.empty() || key.size() > kMaxKeyBytes ||
      value.size() > kMaxValueBytes) {
    return false;
  }
  return store_at(probe(key), key, value);
}

bool KvStore::store_at(std::optional<std::size_t> idx, std::string_view key,
                       std::string_view value) {
  if (!idx) {
    return false;
  }
  Slot& slot = slots_[*idx];
  if (!slot.occupied) {
    // Keep the load factor at or below 1/2 so probe chains stay short.
    if ((size_ + 1) * 2 > slots_.size()) {
      return false;
    }
    slot.occupied = true;
    slot.key_len = static_cast<std::uint8_t>(key.size());
    std::memcpy(slot.key, key.data(), key.size());
    ++size_;
  }
  slot.value_len = static_cast<std::uint8_t>(value.size());
  std::memcpy(slot.value, value.data(), value.size());
  return true;
}

std::optional<std::string_view> KvStore::get(std::string_view key) const {
  if (key.empty() || key.size() > kMaxKeyBytes) {
    return std::nullopt;
  }
  const auto idx = probe(key);
  if (!idx || !slots_[*idx].occupied) {
    return std::nullopt;
  }
  const Slot& slot = slots_[*idx];
  return std::string_view{slot.value, slot.value_len};
}

std::uint64_t KvStore::scan_digest(std::string_view start_key,
                                   std::size_t count) const {
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  std::size_t visited = 0;
  const std::size_t start = slot_of(start_key);
  for (std::size_t i = 0; i < slots_.size() && visited < count; ++i) {
    const Slot& slot = slots_[(start + i) & mask_];
    if (!slot.occupied) {
      continue;
    }
    for (std::uint8_t b = 0; b < slot.value_len; ++b) {
      digest ^= static_cast<std::uint8_t>(slot.value[b]);
      digest *= 0x100000001B3ULL;
    }
    ++visited;
  }
  return digest;
}

IndexKey::IndexKey(std::uint64_t index) { write_key(index, bytes_.data()); }

std::string key_for_index(std::uint64_t index) {
  return std::string{IndexKey{index}.view()};
}

std::string value_for_index(std::uint64_t index) {
  char value[1][kMaxValueBytes];
  write_values<1>(index, value);
  return std::string{value[0], kMaxValueBytes};
}

void populate(KvStore& store, std::size_t count) {
  // Bulk load in blocks: format the block's keys, hash them and prefetch
  // their home slots, generate the values while those loads are in
  // flight, then insert in index order with one probe per key. The table
  // is byte for byte the one a per-object set() loop builds.
  constexpr std::size_t kBlock = 16;
  char keys[kBlock][kMaxKeyBytes];
  char values[kBlock][kMaxValueBytes];
  std::size_t homes[kBlock];
  for (std::uint64_t base = 0; base < count; base += kBlock) {
    const std::size_t n = std::min<std::uint64_t>(kBlock, count - base);
    for (std::size_t j = 0; j < n; ++j) {
      write_key(base + j, keys[j]);
      homes[j] = store.slot_of({keys[j], kMaxKeyBytes});
      prefetch_read(&store.slots_[homes[j]]);
    }
    write_values<kBlock>(base, values);
    for (std::size_t j = 0; j < n; ++j) {
      const std::string_view key{keys[j], kMaxKeyBytes};
      const bool ok =
          store.store_at(store.probe(key, homes[j]), key,
                         {values[j], kMaxValueBytes});
      NETCLONE_CHECK(ok, "store population failed (capacity too small)");
    }
  }
}

}  // namespace netclone::kv
