// KV store layer bench: bulk population and the request-path lookups of
// the paper's Redis/Memcached store (§5.5: 1M objects, 16 B keys, 64 B
// values, Zipf-0.99 reads).
//
//   * populate: kv::populate(1M) — the batched, prefetched, single-probe
//     bulk load — against the per-object loop it replaced, reimplemented
//     here verbatim (snprintf key, heap strings, one serial value chain,
//     and a contains() probe ahead of set()'s own probe). Both must build
//     the same table; the run stops if they do not.
//   * GET / SCAN(100): nanoseconds per operation on Zipf-0.99 keys, key
//     formatting included, as a KvService would issue them.
//   * kv_table_digest: a fold of SCAN(100) digests from five start keys
//     of the 1M-object table. It is exact on any machine and moves with
//     any change to hashing, slot layout or insertion order.
//
// Populate times are the median of 5 interleaved fast/legacy trials.
// Results land in BENCH_kv_store.json.
//
// Usage: bench_kv_store [output.json]   (default: BENCH_kv_store.json)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "kv/store.hpp"
#include "kv/zipf.hpp"

using namespace netclone;

namespace {

constexpr std::size_t kObjects = 1000000;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ---------------------------------------------------------------------------
// The per-object population loop, kept for comparison. Mirrors
// kv::populate, key_for_index and value_for_index before the bulk loader;
// the contains() call reproduces the membership probe the old set() ran
// before its insertion probe.
std::string legacy_key_for_index(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "k%015llu",
                static_cast<unsigned long long>(index));
  return std::string{buf, kv::kMaxKeyBytes};
}

std::string legacy_value_for_index(std::uint64_t index) {
  std::string value;
  value.reserve(kv::kMaxValueBytes);
  std::uint64_t state = mix64(index + 1);
  while (value.size() < kv::kMaxValueBytes) {
    state = mix64(state);
    value.push_back(static_cast<char>('a' + state % 26));
  }
  return value;
}

void legacy_populate(kv::KvStore& store, std::size_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string key = legacy_key_for_index(i);
    const bool present = store.contains(key);
    const bool ok = store.set(key, legacy_value_for_index(i));
    NETCLONE_CHECK(ok && !present,
                   "store population failed (capacity too small)");
  }
}
// ---------------------------------------------------------------------------

std::uint64_t table_digest(const kv::KvStore& store) {
  std::uint64_t fold = 0;
  for (const std::uint64_t i : {0U, 1U, 9973U, 54321U, 99999U}) {
    fold = mix64(fold ^ store.scan_digest(kv::key_for_index(i), 100));
  }
  return fold;
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

std::vector<std::uint64_t> zipf_keys(std::size_t n) {
  const kv::ZipfGenerator zipf{kObjects, 0.99};
  Rng rng{7};
  std::vector<std::uint64_t> keys(n);
  for (auto& key : keys) {
    key = zipf.sample(rng);
  }
  return keys;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : std::string("BENCH_kv_store.json");

  constexpr int kTrials = 5;
  std::vector<double> fast_s;
  std::vector<double> legacy_s;
  std::uint64_t fast_digest = 0;
  std::uint64_t legacy_digest = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    {
      kv::KvStore store{kObjects};
      const auto start = std::chrono::steady_clock::now();
      kv::populate(store, kObjects);
      fast_s.push_back(seconds_since(start));
      fast_digest = table_digest(store);
    }
    {
      kv::KvStore store{kObjects};
      const auto start = std::chrono::steady_clock::now();
      legacy_populate(store, kObjects);
      legacy_s.push_back(seconds_since(start));
      legacy_digest = table_digest(store);
    }
  }
  NETCLONE_CHECK(fast_digest == legacy_digest,
                 "bulk load and per-object loop built different tables");

  kv::KvStore store{kObjects};
  kv::populate(store, kObjects);

  const std::vector<std::uint64_t> get_keys = zipf_keys(1000000);
  std::uint64_t sink = 0;
  auto start = std::chrono::steady_clock::now();
  for (const std::uint64_t key : get_keys) {
    sink += store.get(kv::IndexKey{key}.view())->size();
  }
  const double get_ns = seconds_since(start) * 1e9 /
                        static_cast<double>(get_keys.size());

  const std::vector<std::uint64_t> scan_keys = zipf_keys(20000);
  start = std::chrono::steady_clock::now();
  for (const std::uint64_t key : scan_keys) {
    sink ^= store.scan_digest(kv::IndexKey{key}.view(), 100);
  }
  const double scan_ns = seconds_since(start) * 1e9 /
                         static_cast<double>(scan_keys.size());

  std::printf("KV store layer, %zu objects (16 B keys, 64 B values)\n",
              kObjects);
  std::printf("  populate      fast %.3f s   legacy %.3f s   (%.2fx)\n",
              median(fast_s), median(legacy_s),
              median(legacy_s) / median(fast_s));
  std::printf("  GET (Zipf)    %.0f ns/op\n", get_ns);
  std::printf("  SCAN(100)     %.0f ns/op\n", scan_ns);
  std::printf("  table digest  %llu   (sink %llu)\n",
              static_cast<unsigned long long>(fast_digest),
              static_cast<unsigned long long>(sink));

  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"kv_store\",\n  \"unit\": \"seconds\""
       << ",\n  \"kv_populate_seconds_fast\": " << median(fast_s)
       << ",\n  \"kv_populate_seconds_legacy\": " << median(legacy_s)
       << ",\n  \"kv_get_zipf_ns\": " << get_ns
       << ",\n  \"kv_scan100_ns\": " << scan_ns
       << ",\n  \"kv_table_digest\": " << fast_digest << "\n}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
