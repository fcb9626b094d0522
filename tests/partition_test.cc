#include "core/partition.h"

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cooccurrence.h"

namespace corrtrack {
namespace {

TEST(PartitionSet, AddAndLookup) {
  PartitionSet ps(3);
  ps.AddTag(0, 10);
  ps.AddTag(1, 10);
  ps.AddTag(2, 20);
  EXPECT_TRUE(ps.PartitionContains(0, 10));
  EXPECT_TRUE(ps.PartitionContains(1, 10));
  EXPECT_FALSE(ps.PartitionContains(2, 10));
  const auto& with10 = ps.PartitionsWithTag(10);
  ASSERT_EQ(with10.size(), 2u);
  EXPECT_EQ(with10[0], 0u);
  EXPECT_EQ(with10[1], 1u);
  EXPECT_TRUE(ps.PartitionsWithTag(999).empty());
}

TEST(PartitionSet, AddTagIsIdempotent) {
  PartitionSet ps(2);
  ps.AddTag(0, 5);
  ps.AddTag(0, 5);
  EXPECT_EQ(ps.PartitionsWithTag(5).size(), 1u);
  EXPECT_EQ(ps.TotalReplication(), 1u);
}

TEST(PartitionSet, IndexStaysSortedRegardlessOfInsertOrder) {
  PartitionSet ps(4);
  ps.AddTag(3, 7);
  ps.AddTag(0, 7);
  ps.AddTag(2, 7);
  const auto& list = ps.PartitionsWithTag(7);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], 0u);
  EXPECT_EQ(list[1], 2u);
  EXPECT_EQ(list[2], 3u);
}

TEST(PartitionSet, CoveringPartition) {
  PartitionSet ps(2);
  ps.AddTags(0, TagSet({1, 2, 3}));
  ps.AddTags(1, TagSet({2, 3}));
  EXPECT_EQ(ps.CoveringPartition(TagSet({1, 2})), 0);
  EXPECT_EQ(ps.CoveringPartition(TagSet({2, 3})), 0);  // Smallest id wins.
  EXPECT_EQ(ps.CoveringPartition(TagSet({3})), 0);
  EXPECT_FALSE(ps.CoveringPartition(TagSet({1, 4})).has_value());
  EXPECT_FALSE(ps.CoveringPartition(TagSet()).has_value());
}

TEST(PartitionSet, RouteComputesPerPartitionSubsets) {
  // The §6.2 example: s = {a,b,c}; C1 holds {a,b,c}, C2 holds {a,c}.
  PartitionSet ps(3);
  ps.AddTags(0, TagSet({1, 2, 3}));
  ps.AddTags(1, TagSet({1, 3}));
  std::vector<RoutedSubset> routed;
  const int n = ps.Route(TagSet({1, 2, 3}), &routed);
  EXPECT_EQ(n, 2);
  ASSERT_EQ(routed.size(), 2u);
  EXPECT_EQ(routed[0].partition, 0);
  EXPECT_EQ(routed[0].tags, TagSet({1, 2, 3}));
  EXPECT_EQ(routed[1].partition, 1);
  EXPECT_EQ(routed[1].tags, TagSet({1, 3}));
}

TEST(PartitionSet, RouteUnknownTags) {
  PartitionSet ps(2);
  ps.AddTags(0, TagSet({1}));
  std::vector<RoutedSubset> routed;
  EXPECT_EQ(ps.Route(TagSet({5, 6}), &routed), 0);
  EXPECT_TRUE(routed.empty());
  EXPECT_EQ(ps.Route(TagSet({1, 5}), &routed), 1);
  ASSERT_EQ(routed.size(), 1u);
  EXPECT_EQ(routed[0].tags, TagSet({1}));
}

TEST(PartitionSet, ForEachTouchedPartitionAgreesWithRoute) {
  PartitionSet ps(4);
  ps.AddTags(0, TagSet({1, 2}));
  ps.AddTags(1, TagSet({2, 3}));
  ps.AddTags(3, TagSet({4}));
  for (const TagSet& probe :
       {TagSet({1}), TagSet({2}), TagSet({2, 4}), TagSet({9}),
        TagSet({1, 2, 3, 4})}) {
    std::vector<RoutedSubset> routed;
    const int via_route = ps.Route(probe, &routed);
    int count = 0;
    std::set<int> touched;
    const int via_fast = ps.ForEachTouchedPartition(probe, [&](int p) {
      ++count;
      touched.insert(p);
    });
    EXPECT_EQ(via_route, via_fast);
    EXPECT_EQ(count, via_fast);
    std::set<int> expected;
    for (const auto& r : routed) expected.insert(r.partition);
    EXPECT_EQ(touched, expected);
  }
}

/// Route's reference: for each partition in id order, the document's tags
/// found in partition(p), kept when non-empty.
std::vector<RoutedSubset> BruteForceRoute(const PartitionSet& ps,
                                          const TagSet& tags) {
  std::vector<RoutedSubset> expected;
  for (int p = 0; p < ps.num_partitions(); ++p) {
    std::vector<TagId> held;
    for (TagId t : tags) {
      if (ps.partition(p).count(t) > 0) held.push_back(t);
    }
    if (!held.empty()) expected.push_back({p, TagSet(held)});
  }
  return expected;
}

TEST(PartitionSet, RouteMatchesBruteForceOnRandomPartitions) {
  // DS-like sets put each tag in one partition; SCL-like sets replicate
  // tags into up to four. Documents draw 1..16 distinct tags from a
  // universe a little larger than the assigned tags, so some are unknown.
  std::mt19937_64 rng(20);
  for (int round = 0; round < 60; ++round) {
    const bool overlapping = round % 2 == 1;
    const int k = std::uniform_int_distribution<int>(
        1, PartitionSet::kMaxPartitions)(rng);
    const TagId universe = std::uniform_int_distribution<TagId>(8, 300)(rng);
    SCOPED_TRACE("round=" + std::to_string(round) + " k=" +
                 std::to_string(k) + " universe=" + std::to_string(universe));
    PartitionSet ps(k);
    std::uniform_int_distribution<int> pick_partition(0, k - 1);
    for (TagId t = 0; t < universe - universe / 8; ++t) {
      const int copies =
          overlapping ? std::uniform_int_distribution<int>(1, 4)(rng) : 1;
      for (int c = 0; c < copies; ++c) ps.AddTag(pick_partition(rng), t);
    }
    if (!overlapping) EXPECT_TRUE(ps.IsDisjoint());
    std::uniform_int_distribution<TagId> pick_tag(0, universe - 1);
    std::vector<RoutedSubset> routed;
    for (int doc = 0; doc < 200; ++doc) {
      const size_t want = std::min<size_t>(
          std::uniform_int_distribution<size_t>(
              1, static_cast<size_t>(kMaxTagsPerDocument))(rng),
          universe);
      std::set<TagId> drawn;
      while (drawn.size() < want) drawn.insert(pick_tag(rng));
      const TagSet tags(std::vector<TagId>(drawn.begin(), drawn.end()));
      // Seeded with the wrong answer: Route must overwrite it.
      bool covered = !ps.CoveringPartition(tags).has_value();
      const int n = ps.Route(tags, &routed, &covered);
      const std::vector<RoutedSubset> expected = BruteForceRoute(ps, tags);
      ASSERT_EQ(n, static_cast<int>(expected.size())) << tags.ToString();
      ASSERT_EQ(routed.size(), expected.size()) << tags.ToString();
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(routed[i].partition, expected[i].partition);
        EXPECT_EQ(routed[i].tags, expected[i].tags)
            << routed[i].tags.ToString() << " vs "
            << expected[i].tags.ToString();
      }
      EXPECT_EQ(covered, ps.CoveringPartition(tags).has_value())
          << tags.ToString();
      // The count-only call agrees without materialising subsets.
      bool covered_count_only = false;
      EXPECT_EQ(ps.Route(tags, nullptr, &covered_count_only), n);
      EXPECT_EQ(covered_count_only, covered);
    }
  }
}

TEST(PartitionSetDeathTest, RoutingRejectsMoreThan64Partitions) {
  PartitionSet ps(PartitionSet::kMaxPartitions + 1);
  ps.AddTag(PartitionSet::kMaxPartitions, 7);
  std::vector<RoutedSubset> routed;
  EXPECT_DEATH(ps.Route(TagSet({7}), &routed), "kMaxPartitions");
  EXPECT_DEATH(ps.ForEachTouchedPartition(TagSet({7}), [](int) {}),
               "kMaxPartitions");
}

TEST(PartitionSet, LoadsAndReplication) {
  PartitionSet ps(2);
  ps.AddTags(0, TagSet({1, 2}));
  ps.AddTags(1, TagSet({2, 3}));
  ps.AddLoad(0, 10);
  ps.AddLoad(1, 4);
  ps.AddLoad(1, 2);
  EXPECT_EQ(ps.load(0), 10u);
  EXPECT_EQ(ps.load(1), 6u);
  EXPECT_EQ(ps.TotalReplication(), 4u);  // 1,3 once; 2 twice.
  EXPECT_EQ(ps.NumDistinctTags(), 3u);
  EXPECT_FALSE(ps.IsDisjoint());
}

TEST(PartitionSet, DisjointDetection) {
  PartitionSet ps(2);
  ps.AddTags(0, TagSet({1, 2}));
  ps.AddTags(1, TagSet({3}));
  EXPECT_TRUE(ps.IsDisjoint());
}

TEST(PartitionSet, OverlapSize) {
  PartitionSet ps(2);
  ps.AddTags(0, TagSet({1, 2, 3}));
  EXPECT_EQ(ps.OverlapSize(0, TagSet({2, 3, 4})), 2u);
  EXPECT_EQ(ps.OverlapSize(1, TagSet({2, 3, 4})), 0u);
}

TEST(EvaluatePartitionQuality, PaperSection3Example) {
  // §3's two partitions over the Figure 1 data:
  //   pr1 = {munich(0), beer(1), soccer(2), oktoberfest(4), beach(6),
  //          sunny(7), friday(8)}
  //   pr2 = {beer(1), pizza(3), bavaria(5), soccer(2)}
  std::vector<std::pair<TagSet, uint64_t>> weighted;
  weighted.emplace_back(TagSet({0, 1, 2}), 10);
  weighted.emplace_back(TagSet({1, 3}), 4);
  weighted.emplace_back(TagSet({0, 4}), 3);
  weighted.emplace_back(TagSet({5, 2}), 1);
  weighted.emplace_back(TagSet({6, 7}), 2);
  weighted.emplace_back(TagSet({8, 7}), 1);
  const auto snap =
      CooccurrenceSnapshot::FromWeightedTagsets(std::move(weighted));

  PartitionSet ps(2);
  ps.AddTags(0, TagSet({0, 1, 2, 4, 6, 7, 8}));
  ps.AddTags(1, TagSet({1, 2, 3, 5}));

  const PartitionQuality q = EvaluatePartitionQuality(snap, ps);
  // Every tagset is covered by some partition.
  EXPECT_DOUBLE_EQ(q.coverage, 1.0);
  // Notifications: pr1 gets {012}x10 {14}... compute: pr1 receives tagsets
  // containing any of its tags: all but {beer,pizza}? beer(1) is in pr1 too
  // => all 6 tagsets -> 21 docs. pr2: tagsets with 1,2,3,5: {012}=10,
  // {13}=4, {52}=1 -> 15 docs. Total notified docs = 21 (all).
  // avg communication = (21 + 15) / 21.
  EXPECT_NEAR(q.avg_communication, 36.0 / 21.0, 1e-12);
  // §3: "the node assigned pr1 will have a load of 58% and the node
  // assigned pr2 the remaining 42%".
  EXPECT_NEAR(q.max_load, 21.0 / 36.0, 1e-12);
  EXPECT_NEAR(q.max_load, 0.58, 0.01);
}

TEST(EvaluatePartitionQuality, UncoveredTagsetsLowerCoverage) {
  std::vector<std::pair<TagSet, uint64_t>> weighted;
  weighted.emplace_back(TagSet({1, 2}), 1);
  weighted.emplace_back(TagSet({3, 4}), 1);
  const auto snap =
      CooccurrenceSnapshot::FromWeightedTagsets(std::move(weighted));
  PartitionSet ps(2);
  ps.AddTags(0, TagSet({1, 2}));
  ps.AddTags(1, TagSet({3}));  // {3,4} not covered.
  const PartitionQuality q = EvaluatePartitionQuality(snap, ps);
  EXPECT_DOUBLE_EQ(q.coverage, 0.5);
}

}  // namespace
}  // namespace corrtrack
