// In-memory key-value store: the Redis / Memcached stand-in (§5.5).
//
// An open-addressing hash table with linear probing and inline fixed-size
// slots (16-byte keys, 64-byte values — the MICA-style object sizes the
// paper evaluates with). Lookups do real hashing and probing over a
// contiguous slot array; the service-time model converts operations into
// simulated time, so the store provides correctness and workload structure
// while the clock stays deterministic.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace netclone::kv {

inline constexpr std::size_t kMaxKeyBytes = 16;
inline constexpr std::size_t kMaxValueBytes = 64;
/// Largest object index with a canonical key: 'k' plus 15 decimal digits.
inline constexpr std::uint64_t kMaxKeyIndex = 999'999'999'999'999ULL;

class KvStore {
 public:
  /// Creates a store able to hold at least `capacity_hint` objects at a
  /// load factor <= 0.5 (capacity is rounded up to a power of two).
  explicit KvStore(std::size_t capacity_hint);

  /// Inserts or overwrites. Returns false when inserting would push the
  /// load factor above 1/2 or the key/value exceeds the fixed slot size.
  bool set(std::string_view key, std::string_view value);

  /// Point lookup; the returned view is valid until the next set().
  [[nodiscard]] std::optional<std::string_view> get(
      std::string_view key) const;

  [[nodiscard]] bool contains(std::string_view key) const {
    return get(key).has_value();
  }

  /// Range-read emulation for SCAN: starting at `start_key`'s slot, visits
  /// up to `count` occupied slots in table order and folds their values
  /// into a 64-bit digest (the paper's SCAN reads 100 objects and the
  /// response stays single-packet).
  [[nodiscard]] std::uint64_t scan_digest(std::string_view start_key,
                                          std::size_t count) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    bool occupied = false;
    std::uint8_t key_len = 0;
    std::uint8_t value_len = 0;
    char key[kMaxKeyBytes] = {};
    char value[kMaxValueBytes] = {};
  };

  friend void populate(KvStore& store, std::size_t count);

  [[nodiscard]] std::size_t slot_of(std::string_view key) const;
  /// Index of the key's slot, or of the first free slot in the probe
  /// sequence starting at `home`; nullopt when the table is full.
  [[nodiscard]] std::optional<std::size_t> probe(std::string_view key,
                                                 std::size_t home) const;
  [[nodiscard]] std::optional<std::size_t> probe(std::string_view key) const {
    return probe(key, slot_of(key));
  }
  /// Writes key/value into the probed slot `idx`; the load-factor bound
  /// applies only when that slot is free (a new key).
  bool store_at(std::optional<std::size_t> idx, std::string_view key,
                std::string_view value);

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Canonical key of object index i: 16 bytes, zero-padded decimal
/// ("k000000000001234"), held inline so request paths format keys without
/// allocating. Clients and servers derive keys identically. Throws
/// CheckFailure for indices above kMaxKeyIndex, whose keys would not fit.
class IndexKey {
 public:
  explicit IndexKey(std::uint64_t index);

  [[nodiscard]] std::string_view view() const {
    return {bytes_.data(), bytes_.size()};
  }

 private:
  std::array<char, kMaxKeyBytes> bytes_;
};

/// IndexKey as a string.
[[nodiscard]] std::string key_for_index(std::uint64_t index);

/// Deterministic 64-byte value for object index i.
[[nodiscard]] std::string value_for_index(std::uint64_t index);

/// Fills the store with objects 0..count-1, inserted in index order: the
/// resulting table is exactly that of set(key_for_index(i),
/// value_for_index(i)) for i = 0..count-1.
void populate(KvStore& store, std::size_t count);

}  // namespace netclone::kv
