#include "core/flat_counter_table.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/jaccard.h"
#include "core/period_table.h"
#include "core/tagset.h"
#include "ops/tracker_op.h"

namespace corrtrack {
namespace {

TagSet RandomTagSet(std::mt19937& rng, int max_tags, TagId max_tag) {
  std::uniform_int_distribution<int> len(1, max_tags);
  std::uniform_int_distribution<TagId> tag(0, max_tag);
  std::vector<TagId> raw;
  for (int i = len(rng); i > 0; --i) raw.push_back(tag(rng));
  return TagSet(raw);
}

/// Counter of `tags` in `table`.
uint64_t FindSet(const FlatCounterTable& table, const TagSet& tags) {
  return table.Find(tags.begin(), tags.size());
}

void IncrementSet(FlatCounterTable* table, const TagSet& tags,
                  uint64_t delta = 1) {
  table->Increment(tags.begin(), tags.size(), delta);
}

TagSet TagSetAt(const FlatCounterTable& table, FlatCounterTable::Entry entry) {
  const TagId* tags = table.TagsAt(entry);
  return TagSet::FromSorted(tags, tags + table.SizeAt(entry));
}

TEST(FlatCounterTable, PrefixSpansAreDistinctKeys) {
  // {1,2,3} is a prefix of {1,2,3,4}: the spans share their first three
  // tags and differ only in length, which key equality must see.
  FlatCounterTable table;
  const TagSet a({1, 2, 3});
  const TagSet b({1, 2, 3, 4});
  EXPECT_NE(HashTagSpan(a.begin(), a.size()), HashTagSpan(b.begin(), b.size()));
  IncrementSet(&table, b);
  EXPECT_EQ(FindSet(table, a), 0u);
  IncrementSet(&table, a, 2);
  EXPECT_EQ(FindSet(table, a), 2u);
  EXPECT_EQ(FindSet(table, b), 1u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(FlatCounterTable, KeyRoundTripsThroughTheArena) {
  FlatCounterTable table;
  const TagSet s({7, 11, 90000, 4000000000u});
  IncrementSet(&table, s);
  const FlatCounterTable::Entry entry = table.FindEntry(s.begin(), s.size());
  ASSERT_EQ(entry, 0u);
  EXPECT_EQ(TagSetAt(table, entry), s);
}

TEST(FlatCounterTable, SpanHashNeverZero) {
  const TagId zero = 0;
  EXPECT_NE(HashTagSpan(nullptr, 0), 0u);
  EXPECT_NE(HashTagSpan(&zero, 1), 0u);
}

TEST(FlatCounterTable, IncrementAndFind) {
  FlatCounterTable table;
  const TagSet a({1, 2});
  const TagSet b({1});
  EXPECT_EQ(FindSet(table, a), 0u);
  IncrementSet(&table, a);
  IncrementSet(&table, a, 4);
  IncrementSet(&table, b);
  EXPECT_EQ(FindSet(table, a), 5u);
  EXPECT_EQ(FindSet(table, b), 1u);
  EXPECT_EQ(FindSet(table, TagSet({2})), 0u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(FlatCounterTable, EntryAccessAgreesWithFind) {
  FlatCounterTable table;
  std::vector<TagSet> keys;
  std::mt19937 rng(17);
  for (int i = 0; i < 300; ++i) keys.push_back(RandomTagSet(rng, 6, 40));
  for (const TagSet& key : keys) {  // Empty table.
    EXPECT_EQ(table.FindEntry(key.begin(), key.size()),
              FlatCounterTable::kNoEntry);
  }

  // Entries are numbered in insertion order.
  std::vector<TagSet> inserted;
  for (size_t i = 0; i < keys.size(); i += 2) {
    if (FindSet(table, keys[i]) == 0) inserted.push_back(keys[i]);
    IncrementSet(&table, keys[i], i + 1);
  }
  ASSERT_EQ(table.size(), inserted.size());
  for (size_t e = 0; e < inserted.size(); ++e) {
    EXPECT_EQ(TagSetAt(table, static_cast<FlatCounterTable::Entry>(e)),
              inserted[e]);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    const TagSet& key = keys[i];
    const FlatCounterTable::Entry entry =
        table.FindEntry(key.begin(), key.size());
    ASSERT_EQ(table.FindEntry(key.begin(), key.size(),
                              HashTagSpan(key.begin(), key.size())),
              entry)
        << i;
    if (FindSet(table, key) == 0) {
      EXPECT_EQ(entry, FlatCounterTable::kNoEntry);
      continue;
    }
    ASSERT_LT(entry, table.size());
    EXPECT_EQ(TagSetAt(table, entry), key);
    EXPECT_EQ(table.CountAt(entry), FindSet(table, key));
  }
}

TEST(FlatCounterTable, GrowthUnderLoadFactorPressure) {
  // Thousands of distinct keys force repeated rehashes past the 3/4 load
  // factor; every counter must survive each growth intact.
  FlatCounterTable table;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    IncrementSet(&table, TagSet({static_cast<TagId>(i)}),
                 static_cast<uint64_t>(i) + 1);
  }
  EXPECT_EQ(table.size(), static_cast<size_t>(n));
  EXPECT_GE(table.capacity(), static_cast<size_t>(n));
  // Power-of-two capacity with load factor <= 3/4.
  EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
  EXPECT_LE(table.size() * 4, table.capacity() * 3);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(FindSet(table, TagSet({static_cast<TagId>(i)})),
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
      IncrementSet(&table, s, a + b + 1);
      oracle[s] += a + b + 1;
    }
  }
  EXPECT_EQ(table.size(), oracle.size());
  for (const auto& [tags, count] : oracle) {
    EXPECT_EQ(FindSet(table, tags), count) << tags.ToString();
  }
}

TEST(FlatCounterTable, ResetClearsButKeepsCapacity) {
  FlatCounterTable table;
  for (TagId t = 0; t < 1000; ++t) IncrementSet(&table, TagSet({t}));
  const size_t capacity = table.capacity();
  EXPECT_GT(capacity, 0u);
  table.Reset();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), capacity);
  for (TagId t = 0; t < 1000; ++t) EXPECT_EQ(FindSet(table, TagSet({t})), 0u);
  EXPECT_EQ(FindSet(table, TagSet({5})), 0u);
  // The table is fully usable after Reset.
  IncrementSet(&table, TagSet({5}), 9);
  EXPECT_EQ(FindSet(table, TagSet({5})), 9u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlatCounterTable, ForEachVisitsEveryCounterOnceInInsertionOrder) {
  FlatCounterTable table;
  for (TagId t = 0; t < 500; ++t) {
    IncrementSet(&table, TagSet({t, t + 1000}), t + 1);
  }
  std::vector<TagSet> order;
  std::unordered_map<TagSet, uint64_t, TagSetHash> seen;
  table.ForEach([&](const TagId* tags, size_t n, uint64_t count) {
    const TagSet key = TagSet::FromSorted(tags, tags + n);
    order.push_back(key);
    const auto [it, inserted] = seen.emplace(key, count);
    EXPECT_TRUE(inserted) << "duplicate visit: " << it->first.ToString();
  });
  ASSERT_EQ(seen.size(), 500u);
  for (TagId t = 0; t < 500; ++t) {
    EXPECT_EQ(order[t], TagSet({t, t + 1000}));
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
      IncrementSet(&table, tags, d);
      oracle[tags] += d;
    } else if (o < 99) {
      const TagSet tags = RandomTagSet(rng, kMaxTagsPerDocument, 60);
      const auto it = oracle.find(tags);
      ASSERT_EQ(FindSet(table, tags), it == oracle.end() ? 0u : it->second)
          << tags.ToString();
    } else {
      table.Reset();
      oracle.clear();
    }
    if (step % 1000 == 999) {
      ASSERT_EQ(table.size(), oracle.size());
      size_t visited = 0;
      table.ForEach([&](const TagId* tags, size_t n, uint64_t count) {
        ++visited;
        const auto it = oracle.find(TagSet::FromSorted(tags, tags + n));
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

/// Eq. 2 over the oracle's counters: the union count of `tags`.
int64_t OracleUnion(
    const std::unordered_map<TagSet, uint64_t, TagSetHash>& oracle,
    const TagSet& tags) {
  int64_t union_count = 0;
  tags.ForEachSubset([&](const TagSet& subset) {
    const auto it = oracle.find(subset);
    const int64_t term =
        it == oracle.end() ? 0 : static_cast<int64_t>(it->second);
    union_count += subset.size() % 2 == 1 ? term : -term;
  });
  return union_count;
}

void ExpectSameReport(const std::vector<JaccardEstimate>& a,
                      const std::vector<JaccardEstimate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].tags, b[i].tags) << i;
    ASSERT_EQ(a[i].intersection_count, b[i].intersection_count) << i;
    ASSERT_EQ(a[i].union_count, b[i].union_count) << i;
    ASSERT_EQ(a[i].coefficient, b[i].coefficient) << i;
  }
}

TEST(SubsetCounterTable, MultiPeriodDifferentialWithOracle) {
  // One table reused over eight periods (Observe, checks, Reset), against
  // an unordered_map oracle of every subset's count. Documents hold 1..16
  // tags; the 16-tag one, in the middle of period 3, adds 2^16 - 1 counters
  // at once, more than any earlier period held, so the table grows in the
  // middle of a period. Each period's counters,
  // exported and added to a fresh table, must report the same bits.
  std::mt19937 rng(2503);
  std::uniform_int_distribution<int> size_pick(1, 6);
  SubsetCounterTable table;
  for (int period = 0; period < 8; ++period) {
    std::unordered_map<TagSet, uint64_t, TagSetHash> oracle;
    std::vector<TagSet> docs;
    for (int doc = 0; doc < 400; ++doc) {
      docs.push_back(RandomTagSet(rng, size_pick(rng), 30));
    }
    if (period == 3) {
      std::vector<TagId> wide;
      for (TagId t = 0; t < 16; ++t) wide.push_back(100 + 3 * t);
      docs.insert(docs.begin() + 200, TagSet(wide));
    }
    for (int k = 7; k < kMaxTagsPerDocument; k += 3) {
      docs.push_back(RandomTagSet(rng, k, 200));
    }
    size_t grown_at = 0;
    for (size_t d = 0; d < docs.size(); ++d) {
      const size_t before = table.num_counters();
      table.Observe(docs[d]);
      docs[d].ForEachSubset([&](const TagSet& subset) { ++oracle[subset]; });
      if (period == 3 && table.num_counters() > before + 60000) grown_at = d;
    }
    if (period == 3) EXPECT_EQ(grown_at, 200u);
    ASSERT_EQ(table.num_counters(), oracle.size()) << period;

    // Counters and their export, against the oracle.
    std::vector<std::pair<TagSet, uint64_t>> expected(oracle.begin(),
                                                      oracle.end());
    std::sort(expected.begin(), expected.end());
    const auto exported = table.ExportCounters();
    ASSERT_EQ(exported, expected) << period;

    // The report, against the oracle for sets small enough to sum, and
    // against a table rebuilt from the export for all of them.
    const std::vector<JaccardEstimate> report = table.ReportAll();
    size_t tracked = 0;
    for (const auto& [tags, count] : expected) tracked += tags.size() >= 2;
    ASSERT_EQ(report.size(), tracked) << period;
    for (const JaccardEstimate& e : report) {
      ASSERT_EQ(e.intersection_count, oracle.at(e.tags));
      if (e.tags.size() <= 6) {
        ASSERT_EQ(static_cast<int64_t>(e.union_count),
                  OracleUnion(oracle, e.tags))
            << e.tags.ToString();
      }
    }
    SubsetCounterTable rebuilt;
    for (const auto& [tags, count] : exported) rebuilt.Add(tags, count);
    EXPECT_TRUE(rebuilt.Consistent());
    ExpectSameReport(rebuilt.ReportAll(), report);
    ExpectSameReport(rebuilt.ReportAll(/*min_support=*/2),
                     table.ReportAll(/*min_support=*/2));

    table.Reset();
    EXPECT_EQ(table.num_counters(), 0u);
    EXPECT_TRUE(table.ReportAll().empty());
    EXPECT_TRUE(table.ExportCounters().empty());
  }
}

TEST(SubsetCounterTable, InconsistentCountersAreNotConsistent) {
  // {1,2} seen 5 times but {1} and {2} once each: the union count of
  // {1,2} would be 1 + 1 - 5 < 5. No document stream produces this.
  SubsetCounterTable table;
  table.Add(TagSet({1, 2}), 5);
  table.Add(TagSet({1}), 1);
  table.Add(TagSet({2}), 1);
  EXPECT_FALSE(table.Consistent());
  table.Add(TagSet({1}), 4);
  table.Add(TagSet({2}), 4);
  EXPECT_TRUE(table.Consistent());
  EXPECT_EQ(table.ReportAll().size(), 1u);
  // A counter beyond int64_t cannot be a document count.
  table.Add(TagSet({1, 2}), uint64_t{1} << 63);
  EXPECT_FALSE(table.Consistent());
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
  // emplace(e.tags, std::move(e)) with a value that holds its own key: the
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

// ---------------------------------------------------------------------------
// PeriodTable
// ---------------------------------------------------------------------------

/// A pool of distinct tagsets of 2..16 tags, about half of them past
/// TagSet's 8 inline tags.
std::vector<TagSet> TagSetPool(std::mt19937& rng, size_t n) {
  std::uniform_int_distribution<size_t> len(2, 16);
  std::uniform_int_distribution<TagId> tag(0, 60);
  std::vector<TagSet> pool;
  while (pool.size() < n) {
    std::vector<TagId> raw;
    const size_t want = len(rng);
    while (TagSet(raw).size() < want) raw.push_back(tag(rng));
    const TagSet tags(raw);
    if (std::find(pool.begin(), pool.end(), tags) == pool.end()) {
      pool.push_back(tags);
    }
  }
  return pool;
}

/// One Calculator report drawn from `pool`: tagsets repeat across reports
/// and may repeat within one; CN ties are frequent. The coefficient is
/// arbitrary bits, which max-CN must keep as reported.
std::vector<JaccardEstimate> RandomReport(std::mt19937& rng,
                                          const std::vector<TagSet>& pool) {
  std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
  std::uniform_int_distribution<size_t> len(1, 120);
  std::uniform_int_distribution<uint64_t> count(1, 40);
  std::uniform_real_distribution<double> coefficient(0.0, 1.0);
  std::vector<JaccardEstimate> report(len(rng));
  for (JaccardEstimate& e : report) {
    e.tags = pool[pick(rng)];
    e.intersection_count = count(rng);
    e.union_count = e.intersection_count + count(rng);
    e.coefficient = coefficient(rng);
  }
  return report;
}

void ExpectSameEstimate(const JaccardEstimate& got,
                        const JaccardEstimate& want) {
  ASSERT_EQ(got.tags, want.tags);
  ASSERT_EQ(got.intersection_count, want.intersection_count)
      << want.tags.ToString();
  ASSERT_EQ(got.union_count, want.union_count) << want.tags.ToString();
  ASSERT_EQ(std::bit_cast<uint64_t>(got.coefficient),
            std::bit_cast<uint64_t>(want.coefficient))
      << want.tags.ToString();
}

/// The oracle's entries in tagset order, bit for bit, and iteration
/// strictly ascending.
void ExpectSameEntries(const PeriodTable& table,
                       const FlatTagSetMap<JaccardEstimate>& oracle) {
  ASSERT_EQ(table.size(), oracle.size());
  TagSet previous;  // Empty: below every set of the table.
  for (const auto& [tags, got] : table) {
    ASSERT_LT(previous, tags);
    const auto want = oracle.find(tags);
    ASSERT_NE(want, oracle.end()) << tags.ToString();
    ExpectSameEstimate(got, want->second);
    previous = tags;
  }
}

/// A report in one of the shapes a period can be handed: as drawn
/// (unsorted, a tagset possibly twice), sorted with its duplicates kept in
/// arrival order, or sorted and unique (every report ReportAll builds).
std::vector<JaccardEstimate> ShapedReport(std::mt19937& rng,
                                          const std::vector<TagSet>& pool,
                                          int shape) {
  std::vector<JaccardEstimate> report = RandomReport(rng, pool);
  if (shape == 0) return report;
  const auto by_tags = [](const JaccardEstimate& a, const JaccardEstimate& b) {
    return a.tags < b.tags;
  };
  std::stable_sort(report.begin(), report.end(), by_tags);
  if (shape == 2) {
    report.erase(std::unique(report.begin(), report.end(),
                             [](const JaccardEstimate& a,
                                const JaccardEstimate& b) {
                               return a.tags == b.tags;
                             }),
                 report.end());
  }
  return report;
}

TEST(PeriodTable, DifferentialWithFlatTagSetMapOracle) {
  // Random reports under each merge policy, into the table and into the
  // map the Tracker kept before (emplace, else MergeEstimate, one estimate
  // at a time in arrival order): after every report the same entries with
  // the same bits, iterated in tagset order, and lookups of present and
  // absent sets agree. Reports come unsorted, sorted with a tagset twice,
  // and sorted and unique. Merge leaves in the report exactly what one
  // merge per estimate changed, in arrival order, each with the value it
  // settled on then.
  std::mt19937 rng(2707);
  const std::vector<TagSet> pool = TagSetPool(rng, 400);
  for (const EstimateMerge policy :
       {EstimateMerge::kMaxCN, EstimateMerge::kAdditive}) {
    size_t repeats = 0;  // Tagsets a report holds twice.
    for (int period = 0; period < 6; ++period) {
      PeriodTable table;
      FlatTagSetMap<JaccardEstimate> oracle;
      size_t merged = 0;
      size_t unchanged = 0;
      for (int r = 0; r < 12; ++r) {
        std::vector<JaccardEstimate> report =
            ShapedReport(rng, pool, (period + r) % 3);
        std::vector<JaccardEstimate> want_changed;
        FlatTagSetMap<int> seen;
        for (JaccardEstimate e : report) {
          if (++seen[e.tags] == 2) ++repeats;
          auto [it, inserted] = oracle.emplace(e.tags, e);
          if (!inserted) {
            if (!MergeEstimate(&it->second, e, policy)) {
              ++unchanged;
              continue;
            }
            ++merged;
            e = it->second;
          }
          want_changed.push_back(e);
        }
        table.Merge(&report, policy);
        ASSERT_EQ(report.size(), want_changed.size());
        for (size_t i = 0; i < report.size(); ++i) {
          ExpectSameEstimate(report[i], want_changed[i]);
        }
        ExpectSameEntries(table, oracle);
      }
      EXPECT_GT(merged, 100u);
      EXPECT_EQ(unchanged > 0, policy == EstimateMerge::kMaxCN);
      for (const TagSet& tags : pool) {
        ASSERT_EQ(table.count(tags), oracle.count(tags));
        const auto want = oracle.find(tags);
        const auto got = table.find(tags);
        if (want == oracle.end()) {
          ASSERT_EQ(got, table.end());
          continue;
        }
        ASSERT_NE(got, table.end());
        EXPECT_EQ(got->first, tags);
        ExpectSameEstimate(got->second, want->second);
        ExpectSameEstimate(table.at(tags), want->second);
      }
      std::vector<JaccardEstimate> appended;
      table.AppendTo(&appended);
      ASSERT_EQ(appended.size(), table.size());
      auto want = table.begin();
      for (const JaccardEstimate& got : appended) {
        ExpectSameEstimate(got, want->second);
        ++want;
      }
    }
    EXPECT_GT(repeats, 10u);
  }
}

/// Drops every emission: the Tracker emits nothing.
class DropEmitter : public stream::Emitter<ops::Message> {
 public:
  void Emit(ops::Message) override {}
  void EmitDirect(int, ops::Message) override {}
  Timestamp now() const override { return 0; }
};

TEST(PeriodTable, TrackerStateRoundTripIsIdentical) {
  // Reports over five periods into a Tracker, exported and restored into a
  // fresh one under each merge policy: the same period maps in the same
  // order, bit for bit, and the restored Tracker exports the same state.
  std::mt19937 rng(2708);
  const std::vector<TagSet> pool = TagSetPool(rng, 300);
  for (const EstimateMerge policy :
       {EstimateMerge::kMaxCN, EstimateMerge::kAdditive}) {
    ops::TrackerBolt tracker(/*sink=*/nullptr, policy);
    DropEmitter emitter;
    for (int r = 0; r < 40; ++r) {
      ops::JaccardReport report;
      report.calculator = r % 5;
      report.epoch = static_cast<Epoch>(r / 10);
      report.period_end = 1000 * (1 + r / 8);
      report.estimates = RandomReport(rng, pool);
      stream::Envelope<ops::Message> env;
      env.set_payload(ops::Message(std::move(report)));
      tracker.Execute(env, emitter);
    }
    ops::TrackerState state;
    tracker.ExportState(&state);
    ops::TrackerBolt restored(/*sink=*/nullptr, policy);
    restored.RestoreState(state);
    EXPECT_EQ(restored.reports_received(), 40u);
    EXPECT_EQ(restored.latest_epoch(), 3u);
    ASSERT_EQ(restored.periods().size(), 5u);
    auto got = restored.periods().begin();
    for (const auto& [period_end, want] : tracker.periods()) {
      ASSERT_EQ(got->first, period_end);
      ASSERT_EQ(got->second.size(), want.size());
      auto got_entry = got->second.begin();
      for (const auto& [tags, estimate] : want) {
        const auto [got_tags, got_estimate] = *got_entry;
        ASSERT_EQ(got_tags, tags);
        ExpectSameEstimate(got_estimate, estimate);
        ++got_entry;
      }
      ++got;
    }
    ops::TrackerState again;
    restored.ExportState(&again);
    ASSERT_EQ(again.periods.size(), state.periods.size());
    for (const auto& [period_end, estimates] : state.periods) {
      const std::vector<JaccardEstimate>& other = again.periods.at(period_end);
      ASSERT_EQ(other.size(), estimates.size());
      for (size_t i = 0; i < estimates.size(); ++i) {
        ExpectSameEstimate(other[i], estimates[i]);
      }
    }
  }
}

}  // namespace
}  // namespace corrtrack
