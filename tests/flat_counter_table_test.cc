#include "core/flat_counter_table.h"

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/jaccard.h"
#include "core/tagset.h"

namespace corrtrack {
namespace {

TagSet RandomTagSet(std::mt19937& rng, int max_tags, TagId max_tag) {
  std::uniform_int_distribution<int> len(1, max_tags);
  std::uniform_int_distribution<TagId> tag(0, max_tag);
  std::vector<TagId> raw;
  for (int i = len(rng); i > 0; --i) raw.push_back(tag(rng));
  return TagSet(raw);
}

TEST(PackedTagKey, PaddingIsCanonical) {
  const PackedTagKey a = TagSet({1, 2, 3}).PackKey();
  PackedTagKey b = TagSet({1, 2, 3, 4}).PackKey();
  EXPECT_NE(a, b);
  // Shrinking b back to 3 tags must restore equality only when the padding
  // is reset — exactly what ForEachSubsetKey maintains between subsets.
  b.tags[3] = kInvalidTag;
  b.size = 3;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(PackedTagKey, RoundTripsThroughTagSet) {
  const TagSet s({7, 11, 90000, 4000000000u});
  EXPECT_EQ(TagSet::FromPackedKey(s.PackKey()), s);
}

TEST(PackedTagKey, HashNeverZero) {
  EXPECT_NE(PackedTagKey().Hash(), 0u);
  EXPECT_NE(TagSet({0}).PackKey().Hash(), 0u);
}

TEST(FlatCounterTable, IncrementAndFind) {
  FlatCounterTable table;
  const PackedTagKey a = TagSet({1, 2}).PackKey();
  const PackedTagKey b = TagSet({1}).PackKey();
  EXPECT_EQ(table.Find(a), 0u);
  table.Increment(a);
  table.Increment(a, 4);
  table.Increment(b);
  EXPECT_EQ(table.Find(a), 5u);
  EXPECT_EQ(table.Find(b), 1u);
  EXPECT_EQ(table.Find(TagSet({2}).PackKey()), 0u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(FlatCounterTable, SlotAccessAgreesWithFind) {
  FlatCounterTable table;
  std::vector<PackedTagKey> keys;
  std::mt19937 rng(17);
  for (int i = 0; i < 300; ++i) {
    keys.push_back(RandomTagSet(rng, 6, 40).PackKey());
  }
  std::vector<size_t> slots(keys.size(), 0);
  table.FindSlots(keys.data(), keys.size(), slots.data());  // Empty table.
  for (const size_t slot : slots) EXPECT_EQ(slot, FlatCounterTable::kNoSlot);

  for (size_t i = 0; i < keys.size(); i += 2) table.Increment(keys[i], i + 1);
  table.FindSlots(keys.data(), keys.size(), slots.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    const size_t slot = table.FindSlot(keys[i]);
    ASSERT_EQ(slots[i], slot) << i;
    if (table.Find(keys[i]) == 0) {
      EXPECT_EQ(slot, FlatCounterTable::kNoSlot);
      continue;
    }
    ASSERT_NE(slot, FlatCounterTable::kNoSlot);
    ASSERT_LT(slot, table.capacity());
    EXPECT_TRUE(table.Occupied(slot));
    EXPECT_EQ(table.KeyAt(slot), keys[i]);
    EXPECT_EQ(table.CountAt(slot), table.Find(keys[i]));
  }
}

TEST(FlatCounterTable, GrowthUnderLoadFactorPressure) {
  // Thousands of distinct keys force repeated rehashes past the 3/4 load
  // factor; every counter must survive each growth intact.
  FlatCounterTable table;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    table.Increment(TagSet({static_cast<TagId>(i)}).PackKey(),
                    static_cast<uint64_t>(i) + 1);
  }
  EXPECT_EQ(table.size(), static_cast<size_t>(n));
  EXPECT_GE(table.capacity(), static_cast<size_t>(n));
  // Power-of-two capacity with load factor <= 3/4.
  EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
  EXPECT_LE(table.size() * 4, table.capacity() * 3);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(table.Find(TagSet({static_cast<TagId>(i)}).PackKey()),
              static_cast<uint64_t>(i) + 1);
  }
}

TEST(FlatCounterTable, CollisionChainsResolve) {
  // A dense keyspace over few tags maximises probe-chain pressure in a
  // small table: all 2-subsets of 64 tags plus their singletons.
  FlatCounterTable table;
  std::unordered_map<TagSet, uint64_t, TagSetHash> oracle;
  for (TagId a = 0; a < 64; ++a) {
    for (TagId b = a; b < 64; ++b) {
      const TagSet s = a == b ? TagSet({a}) : TagSet({a, b});
      table.Increment(s.PackKey(), a + b + 1);
      oracle[s] += a + b + 1;
    }
  }
  EXPECT_EQ(table.size(), oracle.size());
  for (const auto& [tags, count] : oracle) {
    EXPECT_EQ(table.Find(tags.PackKey()), count) << tags.ToString();
  }
}

TEST(FlatCounterTable, ResetClearsButKeepsCapacity) {
  FlatCounterTable table;
  for (TagId t = 0; t < 1000; ++t) table.Increment(TagSet({t}).PackKey());
  const size_t capacity = table.capacity();
  EXPECT_GT(capacity, 0u);
  table.Reset();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), capacity);
  EXPECT_EQ(table.Find(TagSet({5}).PackKey()), 0u);
  // The table is fully usable after Reset.
  table.Increment(TagSet({5}).PackKey(), 9);
  EXPECT_EQ(table.Find(TagSet({5}).PackKey()), 9u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlatCounterTable, ForEachVisitsEveryCounterOnce) {
  FlatCounterTable table;
  for (TagId t = 0; t < 500; ++t) {
    table.Increment(TagSet({t, t + 1000}).PackKey(), t + 1);
  }
  std::unordered_map<TagSet, uint64_t, TagSetHash> seen;
  table.ForEach([&](const PackedTagKey& key, uint64_t count) {
    const auto [it, inserted] = seen.emplace(TagSet::FromPackedKey(key), count);
    EXPECT_TRUE(inserted) << "duplicate visit: " << it->first.ToString();
  });
  EXPECT_EQ(seen.size(), 500u);
  for (TagId t = 0; t < 500; ++t) {
    EXPECT_EQ(seen.at(TagSet({t, t + 1000})), t + 1);
  }
}

TEST(FlatCounterTable, DifferentialParityWithUnorderedMapOracle) {
  // 10k mixed operations (weighted increments, point lookups, resets)
  // against a std::unordered_map oracle: counts must stay bit-identical
  // throughout, and full-table sweeps must agree at checkpoints.
  std::mt19937 rng(20140622);
  std::uniform_int_distribution<int> op(0, 99);
  std::uniform_int_distribution<uint64_t> delta(1, 1000);
  FlatCounterTable table;
  std::unordered_map<TagSet, uint64_t, TagSetHash> oracle;
  for (int step = 0; step < 10000; ++step) {
    const int o = op(rng);
    if (o < 70) {
      const TagSet tags = RandomTagSet(rng, kMaxTagsPerDocument, 60);
      const uint64_t d = delta(rng);
      table.Increment(tags.PackKey(), d);
      oracle[tags] += d;
    } else if (o < 99) {
      const TagSet tags = RandomTagSet(rng, kMaxTagsPerDocument, 60);
      const auto it = oracle.find(tags);
      ASSERT_EQ(table.Find(tags.PackKey()),
                it == oracle.end() ? 0u : it->second)
          << tags.ToString();
    } else {
      table.Reset();
      oracle.clear();
    }
    if (step % 1000 == 999) {
      ASSERT_EQ(table.size(), oracle.size());
      size_t visited = 0;
      table.ForEach([&](const PackedTagKey& key, uint64_t count) {
        ++visited;
        const auto it = oracle.find(TagSet::FromPackedKey(key));
        ASSERT_NE(it, oracle.end());
        ASSERT_EQ(count, it->second);
      });
      ASSERT_EQ(visited, oracle.size());
    }
  }
}

TEST(SubsetCounterTable, DifferentialParityWithMapBaseline) {
  // End-to-end parity of the flat-table SubsetCounterTable against the
  // seed's unordered_map formulation: Observe random documents through
  // both, then compare every counter the baseline holds.
  std::mt19937 rng(42);
  SubsetCounterTable table;
  std::unordered_map<TagSet, uint64_t, TagSetHash> baseline;
  for (int doc = 0; doc < 2000; ++doc) {
    const TagSet tags = RandomTagSet(rng, 8, 40);
    table.Observe(tags);
    tags.ForEachSubset([&](const TagSet& subset) { ++baseline[subset]; });
  }
  EXPECT_EQ(table.num_counters(), baseline.size());
  for (const auto& [tags, count] : baseline) {
    EXPECT_EQ(table.Count(tags), count) << tags.ToString();
  }
}

// ---------------------------------------------------------------------------
// FlatTagSetMap
// ---------------------------------------------------------------------------

TEST(FlatTagSetMap, BasicMapOperations) {
  FlatTagSetMap<int> map;
  EXPECT_TRUE(map.empty());
  map[TagSet({1, 2})] = 5;
  map[TagSet({3})] = 7;
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at(TagSet({1, 2})), 5);
  EXPECT_EQ(map.count(TagSet({3})), 1u);
  EXPECT_EQ(map.count(TagSet({9})), 0u);
  EXPECT_EQ(map.find(TagSet({9})), map.end());
  const auto [it, inserted] = map.emplace(TagSet({1, 2}), 99);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(it->second, 5);
  EXPECT_EQ(map.erase(TagSet({1, 2})), 1u);
  EXPECT_EQ(map.erase(TagSet({1, 2})), 0u);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.count(TagSet({3})), 1u);
}

TEST(FlatTagSetMap, IterationIsInsertionOrdered) {
  FlatTagSetMap<int> map;
  map[TagSet({5})] = 0;
  map[TagSet({1})] = 1;
  map[TagSet({3, 4})] = 2;
  std::vector<TagSet> order;
  for (const auto& [tags, value] : map) order.push_back(tags);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], TagSet({5}));
  EXPECT_EQ(order[1], TagSet({1}));
  EXPECT_EQ(order[2], TagSet({3, 4}));
}

TEST(FlatTagSetMap, EmplaceMovingTheValueContainingTheKeyIsSafe) {
  // The Tracker emplaces estimates as emplace(e.tags, std::move(e)); the
  // key must be captured before the value is consumed.
  FlatTagSetMap<JaccardEstimate> map;
  JaccardEstimate e;
  e.tags = TagSet({1, 2, 3});
  e.coefficient = 0.5;
  map.emplace(e.tags, std::move(e));
  ASSERT_EQ(map.size(), 1u);
  EXPECT_EQ(map.begin()->first, TagSet({1, 2, 3}));
  EXPECT_DOUBLE_EQ(map.at(TagSet({1, 2, 3})).coefficient, 0.5);
}

TEST(FlatTagSetMap, AcceptsTagsetsBeyondPackedCapacity) {
  // Unlike FlatCounterTable, the map has no 16-tag limit (the Merger feeds
  // it partition fragments of arbitrary size).
  std::vector<TagId> raw;
  for (TagId t = 0; t < 100; ++t) raw.push_back(t * 3);
  FlatTagSetMap<int> map;
  map[TagSet(raw)] = 77;
  EXPECT_EQ(map.at(TagSet(raw)), 77);
}

TEST(FlatTagSetMap, DifferentialParityWithUnorderedMapOracle) {
  // 10k mixed operations including erases (the single-addition verdict path
  // of the Disseminator) against an unordered_map oracle.
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> op(0, 99);
  FlatTagSetMap<int> map;
  std::unordered_map<TagSet, int, TagSetHash> oracle;
  for (int step = 0; step < 10000; ++step) {
    const TagSet tags = RandomTagSet(rng, 6, 25);
    const int o = op(rng);
    if (o < 50) {
      ++map[tags];
      ++oracle[tags];
    } else if (o < 75) {
      const auto it = oracle.find(tags);
      const auto mit = map.find(tags);
      if (it == oracle.end()) {
        ASSERT_EQ(mit, map.end());
      } else {
        ASSERT_NE(mit, map.end());
        ASSERT_EQ(mit->second, it->second);
      }
    } else if (o < 95) {
      ASSERT_EQ(map.erase(tags), oracle.erase(tags));
    } else {
      ASSERT_EQ(map.size(), oracle.size());
      for (const auto& [key, value] : map) {
        const auto it = oracle.find(key);
        ASSERT_NE(it, oracle.end()) << key.ToString();
        ASSERT_EQ(value, it->second);
      }
    }
  }
  ASSERT_EQ(map.size(), oracle.size());
}

}  // namespace
}  // namespace corrtrack
