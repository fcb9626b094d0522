#include "core/jaccard.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/document.h"

namespace corrtrack {
namespace {

TEST(SubsetCounterTable, ObserveCountsAllSubsets) {
  SubsetCounterTable table;
  table.Observe(TagSet({1, 2}));
  EXPECT_EQ(table.Count(TagSet({1})), 1u);
  EXPECT_EQ(table.Count(TagSet({2})), 1u);
  EXPECT_EQ(table.Count(TagSet({1, 2})), 1u);
  EXPECT_EQ(table.Count(TagSet({3})), 0u);
  EXPECT_EQ(table.num_counters(), 3u);
}

TEST(SubsetCounterTable, PaperExampleSection3) {
  // §3: J({munich,beer}) over the Figure 1 documents.
  // 0=munich 1=beer: co-occur in 10 docs; munich in 13, beer in 14.
  SubsetCounterTable table;
  for (int i = 0; i < 10; ++i) table.Observe(TagSet({0, 1, 2}));
  for (int i = 0; i < 4; ++i) table.Observe(TagSet({1, 3}));
  for (int i = 0; i < 3; ++i) table.Observe(TagSet({0, 4}));
  table.Observe(TagSet({5, 2}));

  const auto j = table.Compute(TagSet({0, 1}));
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->intersection_count, 10u);
  EXPECT_EQ(j->union_count, 17u);  // 13 + 14 - 10.
  EXPECT_NEAR(j->coefficient, 10.0 / 17.0, 1e-12);
}

TEST(SubsetCounterTable, TripleViaInclusionExclusion) {
  SubsetCounterTable table;
  // 5 docs {a,b,c}; 3 docs {a,b}; 2 docs {c}.
  for (int i = 0; i < 5; ++i) table.Observe(TagSet({1, 2, 3}));
  for (int i = 0; i < 3; ++i) table.Observe(TagSet({1, 2}));
  for (int i = 0; i < 2; ++i) table.Observe(TagSet({3}));
  const auto j = table.Compute(TagSet({1, 2, 3}));
  ASSERT_TRUE(j.has_value());
  // Union: |a|=8, |b|=8, |c|=7; |ab|=8, |ac|=5, |bc|=5; |abc|=5
  // => 8+8+7-8-5-5+5 = 10.
  EXPECT_EQ(j->union_count, 10u);
  EXPECT_NEAR(j->coefficient, 0.5, 1e-12);
}

TEST(SubsetCounterTable, ComputeUnknownReturnsNullopt) {
  SubsetCounterTable table;
  table.Observe(TagSet({1}));
  table.Observe(TagSet({2}));
  // 1 and 2 never co-occurred: no counter for {1,2}.
  EXPECT_FALSE(table.Compute(TagSet({1, 2})).has_value());
  EXPECT_FALSE(table.Compute(TagSet({9})).has_value());
}

TEST(SubsetCounterTable, SingletonJaccardIsOne) {
  SubsetCounterTable table;
  for (int i = 0; i < 7; ++i) table.Observe(TagSet({4}));
  const auto j = table.Compute(TagSet({4}));
  ASSERT_TRUE(j.has_value());
  EXPECT_DOUBLE_EQ(j->coefficient, 1.0);
  EXPECT_EQ(j->union_count, 7u);
}

TEST(SubsetCounterTable, ReportAllSkipsSingletonsAndLowSupport) {
  SubsetCounterTable table;
  for (int i = 0; i < 5; ++i) table.Observe(TagSet({1, 2}));
  table.Observe(TagSet({3, 4}));
  const auto all = table.ReportAll();
  EXPECT_EQ(all.size(), 2u);  // {1,2} and {3,4}; singletons excluded.
  const auto filtered = table.ReportAll(/*min_support=*/3);
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_EQ(filtered[0].tags, TagSet({1, 2}));
}

TEST(SubsetCounterTable, ReportAllDeterministicOrder) {
  SubsetCounterTable table;
  table.Observe(TagSet({5, 6}));
  table.Observe(TagSet({1, 2}));
  table.Observe(TagSet({3, 4}));
  const auto all = table.ReportAll();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].tags, TagSet({1, 2}));
  EXPECT_EQ(all[1].tags, TagSet({3, 4}));
  EXPECT_EQ(all[2].tags, TagSet({5, 6}));
}

TEST(SubsetCounterTable, ResetClearsCounters) {
  SubsetCounterTable table;
  table.Observe(TagSet({1, 2}));
  table.Reset();
  EXPECT_EQ(table.num_counters(), 0u);
  EXPECT_EQ(table.Count(TagSet({1})), 0u);
}

/// Brute-force Jaccard from raw documents, per Eq. 1.
double ReferenceJaccard(const std::vector<TagSet>& docs, const TagSet& s,
                        uint64_t* inter_out, uint64_t* union_out) {
  uint64_t inter = 0;
  uint64_t uni = 0;
  for (const TagSet& d : docs) {
    bool all = true;
    bool any = false;
    for (TagId t : s) {
      if (d.Contains(t)) {
        any = true;
      } else {
        all = false;
      }
    }
    if (all) ++inter;
    if (any) ++uni;
  }
  *inter_out = inter;
  *union_out = uni;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
}

// Property: for random streams, every reported coefficient equals the
// Eq. 1 definition computed directly over the documents.
class JaccardPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(JaccardPropertyTest, MatchesDefinitionOnRandomStreams) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 31337);
  std::uniform_int_distribution<TagId> tag(0, 14);
  std::uniform_int_distribution<int> len(1, 6);
  std::vector<TagSet> docs;
  SubsetCounterTable table;
  for (int i = 0; i < 500; ++i) {
    std::vector<TagId> tags;
    for (int j = len(rng); j > 0; --j) tags.push_back(tag(rng));
    const TagSet s(tags);
    docs.push_back(s);
    table.Observe(s);
  }
  const auto estimates = table.ReportAll();
  ASSERT_FALSE(estimates.empty());
  for (const JaccardEstimate& e : estimates) {
    uint64_t inter = 0;
    uint64_t uni = 0;
    const double expected = ReferenceJaccard(docs, e.tags, &inter, &uni);
    ASSERT_EQ(e.intersection_count, inter) << e.tags.ToString();
    ASSERT_EQ(e.union_count, uni) << e.tags.ToString();
    ASSERT_NEAR(e.coefficient, expected, 1e-12) << e.tags.ToString();
  }
  // And the reported set is exactly the co-occurring tagsets of size >= 2.
  std::set<TagSet> reported;
  for (const auto& e : estimates) reported.insert(e.tags);
  for (const TagSet& d : docs) {
    d.ForEachSubset(
        [&](const TagSet& sub) { EXPECT_TRUE(reported.count(sub)); },
        /*min_size=*/2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JaccardPropertyTest, ::testing::Range(1, 7));

/// Bit equality of the reported coefficient, not closeness: the lattice pass
/// and Compute must produce the same double.
bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Seeded notifications of up to `k` tags from a vocabulary of 2k ids that
/// mixes small ids with ids near kInvalidTag (the top of the packed sort
/// prefix). The first notification has exactly k tags, so every k gets a
/// full k-tag lattice; fewer notifications at larger k keep the 2^k subsets
/// of each one affordable.
std::vector<TagSet> RandomNotifications(int k, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<TagId> vocabulary;
  for (int i = 0; i < k; ++i) {
    vocabulary.push_back(static_cast<TagId>(7 * i));
    vocabulary.push_back(kInvalidTag - 1 - static_cast<TagId>(5 * i));
  }
  const int num_docs = k <= 8 ? 200 : (k <= 12 ? 20 : 5);
  std::uniform_int_distribution<int> size(1, k);
  std::vector<TagSet> docs;
  for (int d = 0; d < num_docs; ++d) {
    std::shuffle(vocabulary.begin(), vocabulary.end(), rng);
    const int n = d == 0 ? k : size(rng);
    docs.emplace_back(std::vector<TagId>(vocabulary.begin(),
                                         vocabulary.begin() + n));
  }
  return docs;
}

TEST(SubsetCounterTableDifferential, ReportAllMatchesComputeAndBruteForce) {
  for (int k = 1; k <= 16; ++k) {
    for (const uint64_t min_support : {0u, 1u, 3u}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " min_support=" + std::to_string(min_support));
      const std::vector<TagSet> docs =
          RandomNotifications(k, static_cast<unsigned>(100 * k + min_support));
      SubsetCounterTable table;
      for (const TagSet& d : docs) table.Observe(d);

      // Brute force over the raw notifications: every co-occurring set of
      // two or more tags with its intersection count, in TagSet order.
      std::map<TagSet, uint64_t> expected;
      for (const TagSet& d : docs) {
        d.ForEachSubset([&](const TagSet& sub) { ++expected[sub]; },
                        /*min_size=*/2);
      }
      std::erase_if(expected,
                    [&](const auto& e) { return e.second <= min_support; });

      const std::vector<JaccardEstimate> reported = table.ReportAll(min_support);
      ASSERT_EQ(reported.size(), expected.size());
      auto want = expected.begin();
      for (const JaccardEstimate& e : reported) {
        ASSERT_EQ(e.tags, want->first) << e.tags.ToString();
        ASSERT_EQ(e.intersection_count, want->second) << e.tags.ToString();
        uint64_t inter = 0;
        uint64_t uni = 0;
        ReferenceJaccard(docs, e.tags, &inter, &uni);
        ASSERT_EQ(e.union_count, uni) << e.tags.ToString();
        ASSERT_TRUE(SameBits(e.coefficient, static_cast<double>(inter) /
                                                 static_cast<double>(uni)))
            << e.tags.ToString();
        if (k <= 12) {
          const std::optional<JaccardEstimate> oracle = table.Compute(e.tags);
          ASSERT_TRUE(oracle.has_value()) << e.tags.ToString();
          ASSERT_EQ(e.union_count, oracle->union_count) << e.tags.ToString();
          ASSERT_TRUE(SameBits(e.coefficient, oracle->coefficient))
              << e.tags.ToString();
        }
        ++want;
      }
    }
  }
}

TEST(SubsetCounterTableDifferential, TableRebuiltByAddReportsTheSame) {
  // The handoff/restore shape: a table built by Add from exported counters,
  // and a table summing two tables' exports (the elastic install: residual
  // counters plus the new owner's own), report exactly what direct counting
  // reports.
  for (int k : {3, 6, 10}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const std::vector<TagSet> first = RandomNotifications(k, 7 + k);
    const std::vector<TagSet> second = RandomNotifications(k, 70 + k);
    SubsetCounterTable a;
    SubsetCounterTable b;
    SubsetCounterTable both;
    for (const TagSet& d : first) a.Observe(d);
    for (const TagSet& d : second) b.Observe(d);
    for (const TagSet& d : first) both.Observe(d);
    for (const TagSet& d : second) both.Observe(d);

    SubsetCounterTable restored;
    for (const auto& [tags, count] : a.ExportCounters()) {
      restored.Add(tags, count);
    }
    SubsetCounterTable merged;
    for (const auto& [tags, count] : a.ExportCounters()) merged.Add(tags, count);
    for (const auto& [tags, count] : b.ExportCounters()) merged.Add(tags, count);

    const auto expect_same_reports = [](const SubsetCounterTable& want,
                                        const SubsetCounterTable& got,
                                        uint64_t min_support) {
      const auto w = want.ReportAll(min_support);
      const auto g = got.ReportAll(min_support);
      ASSERT_EQ(w.size(), g.size());
      for (size_t i = 0; i < w.size(); ++i) {
        ASSERT_EQ(w[i].tags, g[i].tags);
        ASSERT_EQ(w[i].intersection_count, g[i].intersection_count);
        ASSERT_EQ(w[i].union_count, g[i].union_count);
        ASSERT_TRUE(SameBits(w[i].coefficient, g[i].coefficient));
      }
    };
    for (const uint64_t min_support : {0u, 1u}) {
      expect_same_reports(a, restored, min_support);
      expect_same_reports(both, merged, min_support);
    }
    EXPECT_EQ(restored.ExportCounters(), a.ExportCounters());
    EXPECT_EQ(merged.ExportCounters(), both.ExportCounters());
  }
}

TEST(SubsetCounterTableDifferential, ReportAfterResetMatchesFreshTable) {
  // A Calculator reports, resets and refills one table every period, and
  // ReportAll keeps its scratch across calls: a period of small sets after
  // one of large sets must report exactly what a fresh table reports.
  SubsetCounterTable reused;
  for (const int k : {10, 3, 6, 2}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const std::vector<TagSet> docs =
        RandomNotifications(k, static_cast<unsigned>(900 + k));
    SubsetCounterTable fresh;
    reused.Reset();
    for (const TagSet& d : docs) {
      reused.Observe(d);
      fresh.Observe(d);
    }
    const std::vector<JaccardEstimate> got = reused.ReportAll();
    const std::vector<JaccardEstimate> want = fresh.ReportAll();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].tags, want[i].tags);
      ASSERT_EQ(got[i].intersection_count, want[i].intersection_count);
      ASSERT_EQ(got[i].union_count, want[i].union_count);
      ASSERT_TRUE(SameBits(got[i].coefficient, want[i].coefficient));
    }
    EXPECT_EQ(reused.ExportCounters(), fresh.ExportCounters());
  }
}

TEST(SubsetCounterTableDifferential, AddedCountersWithoutSubsetsMatchCompute) {
  // Add does not create subsets, so a lattice may find holes (counter 0),
  // exactly as Compute's probes do.
  SubsetCounterTable table;
  table.Add(TagSet({1, 2, 3}), 5);
  table.Add(TagSet({1}), 9);
  table.Add(TagSet({2}), 6);
  table.Add(TagSet({3, 4}), 2);
  table.Add(TagSet({3}), 4);
  table.Add(TagSet({4}), 3);
  const auto reported = table.ReportAll();
  ASSERT_EQ(reported.size(), 2u);
  for (const JaccardEstimate& e : reported) {
    const auto oracle = table.Compute(e.tags);
    ASSERT_TRUE(oracle.has_value());
    EXPECT_EQ(e.union_count, oracle->union_count) << e.tags.ToString();
    EXPECT_TRUE(SameBits(e.coefficient, oracle->coefficient));
  }
  EXPECT_EQ(reported[0].tags, TagSet({1, 2, 3}));
  EXPECT_EQ(reported[0].union_count, 9u + 6u + 4u + 5u);
}

TEST(SubsetCounterTable, ReportAllOrdersPrefixesFirst) {
  // TagSet::operator< puts a set before its extensions: {1,2} < {1,2,3} <
  // {1,3}. The packed prefix of {1,2} and {1,2,3} ties, so this pins the
  // full-key tie break.
  SubsetCounterTable table;
  table.Observe(TagSet({1, 2, 3}));
  table.Observe(TagSet({1, 2, 4, kInvalidTag - 1}));
  table.Observe(TagSet({0, 9}));
  std::vector<TagSet> order;
  for (const JaccardEstimate& e : table.ReportAll()) order.push_back(e.tags);
  const std::vector<TagSet> expected = {
      TagSet({0, 9}),
      TagSet({1, 2}),
      TagSet({1, 2, 3}),
      TagSet({1, 2, 4}),
      TagSet({1, 2, 4, kInvalidTag - 1}),
      TagSet({1, 2, kInvalidTag - 1}),
      TagSet({1, 3}),
      TagSet({1, 4}),
      TagSet({1, 4, kInvalidTag - 1}),
      TagSet({1, kInvalidTag - 1}),
      TagSet({2, 3}),
      TagSet({2, 4}),
      TagSet({2, 4, kInvalidTag - 1}),
      TagSet({2, kInvalidTag - 1}),
      TagSet({4, kInvalidTag - 1}),
  };
  EXPECT_EQ(order, expected);
}

TEST(SubsetCounterTable, ExportCountersKeepsTagSetOrder) {
  // Checkpoint and handoff bytes are the export in this order: every
  // counter, singletons included, sorted by TagSet::operator< — the order
  // of a std::map keyed by TagSet.
  for (int k : {2, 5, 9, 14}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const std::vector<TagSet> docs = RandomNotifications(k, 31 + k);
    SubsetCounterTable table;
    std::map<TagSet, uint64_t> expected;
    for (const TagSet& d : docs) {
      table.Observe(d);
      d.ForEachSubset([&](const TagSet& sub) { ++expected[sub]; });
    }
    const std::vector<std::pair<TagSet, uint64_t>> in_map_order(
        expected.begin(), expected.end());
    EXPECT_EQ(table.ExportCounters(), in_map_order);
  }
  SubsetCounterTable table;
  table.Observe(TagSet({0, 5}));
  table.Observe(TagSet({5, 6, 7}));
  const std::vector<std::pair<TagSet, uint64_t>> expected = {
      {TagSet({0}), 1},    {TagSet({0, 5}), 1},    {TagSet({5}), 2},
      {TagSet({5, 6}), 1}, {TagSet({5, 6, 7}), 1}, {TagSet({5, 7}), 1},
      {TagSet({6}), 1},    {TagSet({6, 7}), 1},    {TagSet({7}), 1},
  };
  EXPECT_EQ(table.ExportCounters(), expected);
}

}  // namespace
}  // namespace corrtrack
