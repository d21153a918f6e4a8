#include "kv/store.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace netclone::kv {
namespace {

/// Folds SCAN(100) digests from five start keys spread over the table:
/// any change to slot layout, hashing or insertion order moves it.
std::uint64_t scan_fold(const KvStore& store) {
  std::uint64_t fold = 0;
  for (const std::uint64_t i : {0U, 1U, 9973U, 54321U, 99999U}) {
    fold = mix64(fold ^ store.scan_digest(key_for_index(i), 100));
  }
  return fold;
}

TEST(KvStore, SetAndGet) {
  KvStore store{16};
  EXPECT_TRUE(store.set("hello", "world"));
  const auto v = store.get("hello");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "world");
  EXPECT_EQ(store.size(), 1U);
}

TEST(KvStore, MissingKeyIsNullopt) {
  KvStore store{16};
  EXPECT_FALSE(store.get("nope").has_value());
  EXPECT_FALSE(store.contains("nope"));
}

TEST(KvStore, OverwriteKeepsSize) {
  KvStore store{16};
  EXPECT_TRUE(store.set("k", "v1"));
  EXPECT_TRUE(store.set("k", "v2"));
  EXPECT_EQ(store.size(), 1U);
  EXPECT_EQ(*store.get("k"), "v2");
}

TEST(KvStore, RejectsOversizedKeysAndValues) {
  KvStore store{16};
  EXPECT_FALSE(store.set(std::string(17, 'k'), "v"));
  EXPECT_FALSE(store.set("k", std::string(65, 'v')));
  EXPECT_FALSE(store.set("", "v"));
  EXPECT_TRUE(store.set(std::string(16, 'k'), std::string(64, 'v')));
}

TEST(KvStore, SetAtLoadFactorBoundLeavesTableUnchanged) {
  KvStore store{1000};  // capacity 2048: the bound is 1024 objects
  populate(store, 1024);
  ASSERT_EQ(store.size(), 1024U);
  const std::uint64_t before = store.scan_digest(key_for_index(0), 1024);
  // Committed constant: the table the per-object set() loop builds.
  EXPECT_EQ(before, 0xE284FEDF42B4B9AEULL);
  EXPECT_FALSE(store.set(key_for_index(1024), value_for_index(1024)));
  EXPECT_FALSE(store.contains(key_for_index(1024)));
  EXPECT_EQ(store.size(), 1024U);
  EXPECT_EQ(store.scan_digest(key_for_index(0), 1024), before);
  // Overwriting an existing key at the bound still succeeds.
  EXPECT_TRUE(store.set(key_for_index(7), value_for_index(8)));
  EXPECT_EQ(store.size(), 1024U);
  EXPECT_EQ(*store.get(key_for_index(7)), value_for_index(8));
}

TEST(KvStore, LoadFactorBoundEnforced) {
  KvStore store{4};  // capacity rounds to 8; max 4 objects
  EXPECT_EQ(store.capacity(), 8U);
  int inserted = 0;
  for (int i = 0; i < 10; ++i) {
    inserted += store.set("key" + std::to_string(i), "v") ? 1 : 0;
  }
  EXPECT_EQ(inserted, 4);
  EXPECT_EQ(store.size(), 4U);
  // Existing keys still updatable at the bound.
  EXPECT_TRUE(store.set("key0", "v2"));
}

TEST(KvStore, ProbeChainsSurviveCollisions) {
  KvStore store{64};
  // Insert enough keys that linear probing wraps and chains.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(store.set(key_for_index(static_cast<std::uint64_t>(i)),
                          value_for_index(static_cast<std::uint64_t>(i))));
  }
  for (int i = 0; i < 60; ++i) {
    const auto v = store.get(key_for_index(static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, value_for_index(static_cast<std::uint64_t>(i)));
  }
}

TEST(KvStore, ScanDigestDeterministicAndSensitive) {
  KvStore store{256};
  populate(store, 128);
  const std::uint64_t d1 = store.scan_digest(key_for_index(5), 100);
  const std::uint64_t d2 = store.scan_digest(key_for_index(5), 100);
  EXPECT_EQ(d1, d2);
  const std::uint64_t d3 = store.scan_digest(key_for_index(6), 100);
  EXPECT_NE(d1, d3);  // different start -> different objects folded
  const std::uint64_t d4 = store.scan_digest(key_for_index(5), 50);
  EXPECT_NE(d1, d4);  // different count
}

TEST(KvStore, ScanOnEmptyStore) {
  KvStore store{16};
  // No occupied slots: digest is the FNV offset basis, and no crash.
  EXPECT_EQ(store.scan_digest("whatever", 100), 0xCBF29CE484222325ULL);
}

TEST(KeyValueHelpers, Shapes) {
  const std::string key = key_for_index(1234);
  EXPECT_EQ(key.size(), kMaxKeyBytes);
  EXPECT_EQ(key, "k000000000001234");
  const std::string value = value_for_index(1234);
  EXPECT_EQ(value.size(), kMaxValueBytes);
  EXPECT_EQ(value, value_for_index(1234));
  EXPECT_NE(value, value_for_index(1235));
}

TEST(KeyValueHelpers, KeyMatchesPrintfForm) {
  for (const std::uint64_t i : {std::uint64_t{0}, std::uint64_t{9},
                               std::uint64_t{10}, std::uint64_t{1234},
                               std::uint64_t{999999}, kMaxKeyIndex}) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "k%015llu",
                  static_cast<unsigned long long>(i));
    EXPECT_EQ(key_for_index(i), std::string(buf)) << i;
    EXPECT_EQ(IndexKey{i}.view(), std::string(buf)) << i;
  }
  EXPECT_EQ(kMaxKeyIndex, 999'999'999'999'999ULL);
}

TEST(KeyValueHelpers, IndexWithoutSixteenByteKeyRejected) {
  // "k%015llu" of 10^15 has 17 bytes; truncating it to 16 would alias
  // 10^14's key, so such indices have no key at all.
  EXPECT_THROW((void)key_for_index(kMaxKeyIndex + 1), CheckFailure);
  EXPECT_THROW(IndexKey{kMaxKeyIndex + 1}, CheckFailure);
  EXPECT_THROW(IndexKey{~0ULL}, CheckFailure);
}

TEST(KvStore, PopulatedTableMatchesCommittedLayout) {
  // Recorded from the per-object set(key_for_index(i), value_for_index(i))
  // loop that predates the bulk loader. The bulk loader must rebuild the
  // same table byte for byte: same slots, same order.
  KvStore store{100000};
  populate(store, 100000);
  EXPECT_EQ(store.capacity(), 262144U);
  EXPECT_EQ(store.size(), 100000U);
  EXPECT_EQ(scan_fold(store), 0x011BEC6EE52F1884ULL);
  EXPECT_EQ(store.scan_digest(key_for_index(0), 100000),
            0x4E01BB795720B23FULL);

  // A plain set() loop still builds the very same table.
  KvStore reference{100000};
  for (std::uint64_t i = 0; i < 100000; ++i) {
    ASSERT_TRUE(reference.set(key_for_index(i), value_for_index(i)));
  }
  EXPECT_EQ(scan_fold(reference), scan_fold(store));
  EXPECT_EQ(reference.scan_digest(key_for_index(0), 100000),
            store.scan_digest(key_for_index(0), 100000));
}

TEST(KvStore, PopulateHandlesPartialBlocksAndOverwrites) {
  // Counts that are not a multiple of the load block, on a store that
  // already holds some of the objects with other values.
  for (const std::size_t count : {1U, 15U, 17U, 100U}) {
    KvStore store{256};
    ASSERT_TRUE(store.set(key_for_index(0), "stale"));
    ASSERT_TRUE(store.set("other", "x"));
    populate(store, count);
    EXPECT_EQ(store.size(), count + 1) << count;
    for (std::uint64_t i = 0; i < count; ++i) {
      EXPECT_EQ(*store.get(key_for_index(i)), value_for_index(i)) << i;
    }
    EXPECT_FALSE(store.contains(key_for_index(count)));
  }
}

TEST(KvStore, PopulateBeyondCapacityRejected) {
  KvStore store{8};  // capacity 16: at most 8 objects
  EXPECT_THROW(populate(store, 9), CheckFailure);
  EXPECT_EQ(store.size(), 8U);
}

TEST(KvStore, PopulateMatchesPaperScale) {
  // 100k objects (1M in the benches, shrunk here for test speed): every
  // object retrievable with the right value.
  KvStore store{100000};
  populate(store, 100000);
  EXPECT_EQ(store.size(), 100000U);
  for (std::uint64_t i = 0; i < 100000; i += 9973) {
    const auto v = store.get(key_for_index(i));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, value_for_index(i));
  }
}

TEST(KvStore, ZeroCapacityRejected) {
  EXPECT_THROW(KvStore{0}, CheckFailure);
}

}  // namespace
}  // namespace netclone::kv
