// Data-plane resources available to a PISA switch program.
//
//   * ExactMatchTable — SRAM exact-match table, populated by the control
//     plane, looked up (once per pass) by the data plane.
//   * RegisterArray / RegisterScalar — stateful memory updated at line rate
//     through a single read-modify-write ALU operation per pass.
//   * HashUnit — CRC hash computation (Tofino's hash engines).
//   * RandomUnit — the ASIC's per-packet PRNG (used by RackSched's
//     power-of-two-choices sampling).
//
// Everything on the data-plane path is header-inline: a resource access in
// a release build is the operation itself (a flat-table probe, a register
// read-modify-write) with no dispatch and — when the per-pass legality
// checks are compiled out — no bookkeeping. See pipeline.hpp for the
// check policy.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "pisa/pipeline.hpp"

namespace netclone::pisa {

/// Exact-match match-action table. Keys are 64-bit (wider keys are hashed
/// down by the caller); values are small action-data structs. Backed by a
/// flat open-addressing table presized by the control plane (`capacity`),
/// so a data-plane lookup is a mix64 probe into one contiguous array and
/// the data plane never observes a rehash.
template <typename Value>
class ExactMatchTable final : public StageResource {
 public:
  ExactMatchTable(Pipeline& pipeline, std::string name, std::size_t stage,
                  std::size_t capacity, std::size_t key_bytes,
                  std::size_t value_bytes)
      : StageResource(pipeline, std::move(name), stage),
        capacity_(capacity),
        key_bytes_(key_bytes),
        value_bytes_(value_bytes),
        entries_(capacity) {}

  // -- control plane (no pass required; models runtime entry updates) -----

  void insert(std::uint64_t key, Value value) {
    NETCLONE_CHECK(
        entries_.size() < capacity_ || entries_.find(key) != nullptr,
        "table capacity exceeded: " + name());
    entries_.insert_or_assign(key, std::move(value));
  }

  void erase(std::uint64_t key) { entries_.erase(key); }
  void clear_entries() { entries_.clear(); }
  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }

  // -- data plane ----------------------------------------------------------

  /// Single lookup per pass; returns nullptr on miss. The pointer is
  /// stable until the next control-plane mutation.
  [[nodiscard]] const Value* find(PipelinePass& pass, std::uint64_t key) {
    record_access(pass);
    return entries_.find(key);
  }

  /// Single lookup per pass; returns nullopt on miss (value copy).
  [[nodiscard]] std::optional<Value> lookup(PipelinePass& pass,
                                            std::uint64_t key) {
    const Value* value = find(pass, key);
    if (value == nullptr) {
      return std::nullopt;
    }
    return *value;
  }

  [[nodiscard]] std::size_t sram_bytes() const override {
    return capacity_ * (key_bytes_ + value_bytes_);
  }
  [[nodiscard]] bool is_soft_state() const override { return false; }
  void reset() override {}  // control-plane state survives failures

 private:
  std::size_t capacity_;
  std::size_t key_bytes_;
  std::size_t value_bytes_;
  FlatMap64<Value> entries_;
};

/// Stateful register array. The only data-plane operation is `execute`,
/// mirroring a Tofino RegisterAction: one indexed read-modify-write whose
/// lambda body must be a simple ALU-expressible update. The index bounds
/// check stays on in every build (memory safety); the single-access check
/// follows the pipeline check policy.
template <typename T>
class RegisterArray final : public StageResource {
 public:
  RegisterArray(Pipeline& pipeline, std::string name, std::size_t stage,
                std::size_t size, T initial = T{})
      : StageResource(pipeline, std::move(name), stage),
        initial_(initial),
        cells_(size, initial) {}

  /// Runs `action(cell)` on cells_[index]; whatever it returns flows back
  /// to the packet (the RegisterAction "output"). Exactly one call per pass.
  template <typename Action>
  auto execute(PipelinePass& pass, std::size_t index, Action&& action) {
    record_access(pass);
    NETCLONE_CHECK(index < cells_.size(),
                   "register index out of range: " + name());
    return action(cells_[index]);
  }

  /// Convenience read-only RegisterAction.
  [[nodiscard]] T read(PipelinePass& pass, std::size_t index) {
    return execute(pass, index, [](T& cell) { return cell; });
  }

  /// Convenience write-only RegisterAction.
  void write(PipelinePass& pass, std::size_t index, T value) {
    execute(pass, index, [value](T& cell) {
      cell = value;
      return value;
    });
  }

  /// Control-plane / test peek: NOT a data-plane access.
  [[nodiscard]] T peek(std::size_t index) const { return cells_.at(index); }

  /// Control-plane / fault-injection write: NOT a data-plane access.
  /// Used to plant corrupted soft state (e.g. a stale filter fingerprint)
  /// without consuming a pipeline pass.
  void poke_write(std::size_t index, T value) {
    NETCLONE_CHECK(index < cells_.size(),
                   "register index out of range: " + name());
    cells_[index] = value;
  }

  [[nodiscard]] std::size_t size() const { return cells_.size(); }
  [[nodiscard]] std::size_t sram_bytes() const override {
    return cells_.size() * sizeof(T);
  }
  [[nodiscard]] bool is_soft_state() const override { return true; }
  void reset() override {
    std::fill(cells_.begin(), cells_.end(), initial_);
  }

 private:
  T initial_;
  std::vector<T> cells_;
};

/// A single stateful register (e.g. NetClone's global SEQ counter).
template <typename T>
class RegisterScalar final : public StageResource {
 public:
  RegisterScalar(Pipeline& pipeline, std::string name, std::size_t stage,
                 T initial = T{})
      : StageResource(pipeline, std::move(name), stage),
        initial_(initial),
        cell_(initial) {}

  template <typename Action>
  auto execute(PipelinePass& pass, Action&& action) {
    record_access(pass);
    return action(cell_);
  }

  [[nodiscard]] T peek() const { return cell_; }

  [[nodiscard]] std::size_t sram_bytes() const override { return sizeof(T); }
  [[nodiscard]] bool is_soft_state() const override { return true; }
  void reset() override { cell_ = initial_; }

 private:
  T initial_;
  T cell_;
};

/// CRC hash engine. Stateless, so it may be used any number of times per
/// pass, but it still occupies a stage's hash-unit budget (audited).
class HashUnit final : public StageResource {
 public:
  HashUnit(Pipeline& pipeline, std::string name, std::size_t stage)
      : StageResource(pipeline, std::move(name), stage) {}

  /// CRC32 of a 32-bit input reduced modulo `buckets`.
  [[nodiscard]] std::uint32_t hash32(PipelinePass& pass, std::uint32_t value,
                                     std::uint32_t buckets) {
    record_access_stateless(pass);
    NETCLONE_CHECK(buckets > 0, "hash modulus must be positive");
    return crc32_u32(value) % buckets;
  }

  [[nodiscard]] std::size_t sram_bytes() const override { return 0; }
  [[nodiscard]] bool is_soft_state() const override { return false; }
  void reset() override {}
};

/// Per-packet hardware randomness.
class RandomUnit final : public StageResource {
 public:
  RandomUnit(Pipeline& pipeline, std::string name, std::size_t stage,
             std::uint64_t seed)
      : StageResource(pipeline, std::move(name), stage), rng_(seed) {}

  /// Uniform value in [0, bound).
  [[nodiscard]] std::uint32_t next_below(PipelinePass& pass,
                                         std::uint32_t bound) {
    record_access_stateless(pass);
    return static_cast<std::uint32_t>(rng_.next_below(bound));
  }

  [[nodiscard]] std::size_t sram_bytes() const override { return 0; }
  [[nodiscard]] bool is_soft_state() const override { return false; }
  void reset() override {}

 private:
  Rng rng_;
};

}  // namespace netclone::pisa
