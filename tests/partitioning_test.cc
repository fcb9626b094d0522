#include "core/partitioning.h"

#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cooccurrence.h"
#include "core/ds_algorithm.h"
#include "core/scc_algorithm.h"
#include "core/scl_algorithm.h"
#include "core/set_cover_phase1.h"
#include "core/stats.h"

namespace corrtrack {
namespace {

CooccurrenceSnapshot Figure1Snapshot() {
  // Tags: 0=munich 1=beer 2=soccer 3=pizza 4=oktoberfest 5=bavaria 6=beach
  // 7=sunny 8=friday.
  std::vector<std::pair<TagSet, uint64_t>> weighted;
  weighted.emplace_back(TagSet({0, 1, 2}), 10);
  weighted.emplace_back(TagSet({1, 3}), 4);
  weighted.emplace_back(TagSet({0, 4}), 3);
  weighted.emplace_back(TagSet({5, 2}), 1);
  weighted.emplace_back(TagSet({6, 7}), 2);
  weighted.emplace_back(TagSet({8, 7}), 1);
  return CooccurrenceSnapshot::FromWeightedTagsets(std::move(weighted));
}

CooccurrenceSnapshot RandomSnapshot(int seed, int num_tags, int num_tagsets) {
  std::mt19937 rng(static_cast<unsigned>(seed) * 997);
  std::uniform_int_distribution<TagId> tag(0, static_cast<TagId>(num_tags));
  std::uniform_int_distribution<int> len(1, 5);
  std::uniform_int_distribution<uint64_t> count(1, 20);
  std::vector<std::pair<TagSet, uint64_t>> weighted;
  for (int i = 0; i < num_tagsets; ++i) {
    std::vector<TagId> tags;
    for (int j = len(rng); j > 0; --j) tags.push_back(tag(rng));
    weighted.emplace_back(TagSet(tags), count(rng));
  }
  return CooccurrenceSnapshot::FromWeightedTagsets(std::move(weighted));
}

/// The coverage requirement of §1.1: ∀ s_i ∃ pr_j : s_i ⊆ pr_j.
void ExpectCoverage(const CooccurrenceSnapshot& snap,
                    const PartitionSet& ps) {
  for (const TagsetStats& stats : snap.tagsets()) {
    EXPECT_TRUE(ps.CoveringPartition(stats.tags).has_value())
        << "uncovered tagset " << stats.tags.ToString();
  }
}

TEST(AlgorithmFactory, NamesAndKinds) {
  for (AlgorithmKind kind : AllAlgorithms()) {
    const auto algorithm = MakeAlgorithm(kind);
    EXPECT_EQ(algorithm->kind(), kind);
    EXPECT_EQ(algorithm->name(), AlgorithmName(kind));
  }
  EXPECT_EQ(AlgorithmName(AlgorithmKind::kDS), "DS");
  EXPECT_EQ(AlgorithmName(AlgorithmKind::kSCC), "SCC");
  EXPECT_EQ(AlgorithmName(AlgorithmKind::kSCL), "SCL");
  EXPECT_EQ(AlgorithmName(AlgorithmKind::kSCI), "SCI");
}

TEST(DsAlgorithm, Figure1TwoPartitions) {
  const auto snap = Figure1Snapshot();
  const PartitionSet ps =
      DsAlgorithm().CreatePartitions(snap, 2, /*seed=*/0);
  ExpectCoverage(snap, ps);
  // DS keeps components whole: zero replication.
  EXPECT_TRUE(ps.IsDisjoint());
  // The big component (load 18) opens partition 0; the small one (3) opens
  // partition 1.
  EXPECT_EQ(ps.load(0), 18u);
  EXPECT_EQ(ps.load(1), 3u);
  EXPECT_EQ(ps.partition(0).size(), 6u);
  EXPECT_EQ(ps.partition(1).size(), 3u);
}

TEST(DsAlgorithm, BinPacksLeastLoadedFirst) {
  // Components with loads 10, 9, 5, 4, 1 into k=2:
  // 10 -> p0, 9 -> p1, 5 -> p1(14 vs 10 -> p1? no: least is p1? p0=10,p1=9
  // so 5 -> p1 => p1=14; 4 -> p0 => 14; 1 -> either (tie, lowest id p0).
  std::vector<std::pair<TagSet, uint64_t>> weighted;
  weighted.emplace_back(TagSet({0, 1}), 10);
  weighted.emplace_back(TagSet({2, 3}), 9);
  weighted.emplace_back(TagSet({4, 5}), 5);
  weighted.emplace_back(TagSet({6, 7}), 4);
  weighted.emplace_back(TagSet({8, 9}), 1);
  const auto snap =
      CooccurrenceSnapshot::FromWeightedTagsets(std::move(weighted));
  const PartitionSet ps =
      DsAlgorithm().CreatePartitions(snap, 2, /*seed=*/0);
  EXPECT_TRUE(ps.IsDisjoint());
  EXPECT_EQ(ps.load(0), 15u);  // 10 + 4 + 1.
  EXPECT_EQ(ps.load(1), 14u);  // 9 + 5.
}

TEST(DsAlgorithm, FewerComponentsThanPartitions) {
  std::vector<std::pair<TagSet, uint64_t>> weighted;
  weighted.emplace_back(TagSet({0, 1}), 5);
  const auto snap =
      CooccurrenceSnapshot::FromWeightedTagsets(std::move(weighted));
  const PartitionSet ps =
      DsAlgorithm().CreatePartitions(snap, 4, /*seed=*/0);
  ExpectCoverage(snap, ps);
  EXPECT_EQ(ps.partition(0).size(), 2u);
  for (int p = 1; p < 4; ++p) EXPECT_TRUE(ps.partition(p).empty());
}

TEST(DsAlgorithm, ProposeFragmentsAreTheComponents) {
  const auto snap = Figure1Snapshot();
  const auto fragments =
      DsAlgorithm().ProposeFragments(snap, /*k=*/2, /*seed=*/0);
  ASSERT_EQ(fragments.size(), 2u);
  EXPECT_EQ(fragments[0].tags.size(), 6u);
  EXPECT_EQ(fragments[0].load, 18u);
  EXPECT_EQ(fragments[1].tags.size(), 3u);
  EXPECT_EQ(fragments[1].load, 3u);
}

TEST(SetCoverPhase1, CommunicationCostPrefersUncovered) {
  // Tagsets: {1,2,3} biggest; then cost favours disjoint ones.
  std::vector<std::pair<TagSet, uint64_t>> weighted;
  weighted.emplace_back(TagSet({1, 2, 3}), 5);
  weighted.emplace_back(TagSet({3, 4}), 9);
  weighted.emplace_back(TagSet({5, 6}), 2);
  const auto snap =
      CooccurrenceSnapshot::FromWeightedTagsets(std::move(weighted));
  const Phase1Result result =
      RunSetCoverPhase1(snap, 2, Phase1Cost::kCommunication);
  // Iteration 1: all costs 0, max new coverage -> {1,2,3}.
  EXPECT_TRUE(result.partitions.PartitionContains(0, 1));
  // Iteration 2: {3,4} has cost 1, {5,6} cost 0 -> {5,6} despite being
  // less popular.
  EXPECT_TRUE(result.partitions.PartitionContains(1, 5));
  EXPECT_TRUE(result.partitions.PartitionContains(1, 6));
  EXPECT_EQ(result.covered.size(), 5u);
}

TEST(SetCoverPhase1, ZeroCostIsPlainMaxCoverage) {
  std::vector<std::pair<TagSet, uint64_t>> weighted;
  weighted.emplace_back(TagSet({1, 2}), 1);
  weighted.emplace_back(TagSet({3, 4, 5}), 1);
  weighted.emplace_back(TagSet({5, 6, 7, 8}), 1);
  const auto snap =
      CooccurrenceSnapshot::FromWeightedTagsets(std::move(weighted));
  const Phase1Result result = RunSetCoverPhase1(snap, 2, Phase1Cost::kZero);
  // Largest first: {5,6,7,8}. Second iteration: {1,2} and {3,4,5} both add
  // two new tags; the tie breaks to the earlier tagset {1,2}.
  EXPECT_TRUE(result.partitions.PartitionContains(0, 5));
  EXPECT_TRUE(result.partitions.PartitionContains(0, 8));
  EXPECT_TRUE(result.partitions.PartitionContains(1, 1));
  EXPECT_TRUE(result.partitions.PartitionContains(1, 2));
}

TEST(SetCoverPhase1, FewerTagsetsThanK) {
  std::vector<std::pair<TagSet, uint64_t>> weighted;
  weighted.emplace_back(TagSet({1}), 1);
  const auto snap =
      CooccurrenceSnapshot::FromWeightedTagsets(std::move(weighted));
  const Phase1Result result = RunSetCoverPhase1(snap, 5, Phase1Cost::kZero);
  EXPECT_EQ(result.partitions.num_partitions(), 5);
  EXPECT_TRUE(result.assigned[0]);
  EXPECT_TRUE(result.partitions.partition(1).empty());
}

// Shared invariants for all four algorithms on random workloads.
struct AlgoCase {
  AlgorithmKind kind;
  int k;
  int seed;
};

class AllAlgorithmsInvariantTest : public ::testing::TestWithParam<AlgoCase> {
};

TEST_P(AllAlgorithmsInvariantTest, CoverageAndTagConservation) {
  const AlgoCase param = GetParam();
  const auto snap = RandomSnapshot(param.seed, 60, 200);
  const auto algorithm = MakeAlgorithm(param.kind);
  const PartitionSet ps =
      algorithm->CreatePartitions(snap, param.k, /*seed=*/77);
  EXPECT_EQ(ps.num_partitions(), param.k);
  // Requirement 1 of §1.1: every co-occurring tagset fully assigned
  // somewhere.
  ExpectCoverage(snap, ps);
  // Every observed tag is assigned at least once, and no phantom tags.
  EXPECT_EQ(ps.NumDistinctTags(), snap.num_tags());
  for (TagId t : snap.tags()) {
    EXPECT_FALSE(ps.PartitionsWithTag(t).empty());
  }
  // DS additionally guarantees zero replication.
  if (param.kind == AlgorithmKind::kDS) {
    EXPECT_TRUE(ps.IsDisjoint());
  }
}

TEST_P(AllAlgorithmsInvariantTest, DeterministicGivenSeed) {
  const AlgoCase param = GetParam();
  const auto snap = RandomSnapshot(param.seed, 60, 200);
  const auto algorithm = MakeAlgorithm(param.kind);
  const PartitionSet a = algorithm->CreatePartitions(snap, param.k, 42);
  const PartitionSet b = algorithm->CreatePartitions(snap, param.k, 42);
  for (int p = 0; p < param.k; ++p) {
    EXPECT_EQ(a.SortedTags(p), b.SortedTags(p));
    EXPECT_EQ(a.load(p), b.load(p));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AllAlgorithmsInvariantTest,
    ::testing::Values(
        AlgoCase{AlgorithmKind::kDS, 2, 1}, AlgoCase{AlgorithmKind::kDS, 5, 2},
        AlgoCase{AlgorithmKind::kDS, 10, 3},
        AlgoCase{AlgorithmKind::kSCC, 2, 1},
        AlgoCase{AlgorithmKind::kSCC, 5, 2},
        AlgoCase{AlgorithmKind::kSCC, 10, 3},
        AlgoCase{AlgorithmKind::kSCL, 2, 1},
        AlgoCase{AlgorithmKind::kSCL, 5, 2},
        AlgoCase{AlgorithmKind::kSCL, 10, 3},
        AlgoCase{AlgorithmKind::kSCI, 2, 1},
        AlgoCase{AlgorithmKind::kSCI, 5, 2},
        AlgoCase{AlgorithmKind::kSCI, 10, 3}));

// The lazy-heap fast paths must produce exactly the partitions of the
// verbatim quadratic implementations (Algorithms 3 and 4).
class LazyHeapEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(LazyHeapEquivalenceTest, SccMatchesNaive) {
  const auto snap = RandomSnapshot(GetParam(), 80, 300);
  const PartitionSet fast =
      SccAlgorithm(/*use_lazy_heap=*/true).CreatePartitions(snap, 7, 0);
  const PartitionSet naive =
      SccAlgorithm(/*use_lazy_heap=*/false).CreatePartitions(snap, 7, 0);
  for (int p = 0; p < 7; ++p) {
    ASSERT_EQ(fast.SortedTags(p), naive.SortedTags(p)) << "partition " << p;
    ASSERT_EQ(fast.load(p), naive.load(p));
  }
}

TEST_P(LazyHeapEquivalenceTest, SclMatchesNaive) {
  const auto snap = RandomSnapshot(GetParam() + 100, 80, 300);
  const PartitionSet fast =
      SclAlgorithm(/*use_lazy_heap=*/true).CreatePartitions(snap, 7, 0);
  const PartitionSet naive =
      SclAlgorithm(/*use_lazy_heap=*/false).CreatePartitions(snap, 7, 0);
  for (int p = 0; p < 7; ++p) {
    ASSERT_EQ(fast.SortedTags(p), naive.SortedTags(p)) << "partition " << p;
    ASSERT_EQ(fast.load(p), naive.load(p));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazyHeapEquivalenceTest,
                         ::testing::Range(1, 11));

TEST(SclAlgorithm, BalancesLoadBetterThanScc) {
  // Load balance is SCL's objective: across random snapshots its Gini over
  // partition loads should not exceed SCC's on average (the paper's
  // Figure 4 ordering).
  double scl_gini = 0;
  double scc_gini = 0;
  for (int seed = 1; seed <= 5; ++seed) {
    const auto snap = RandomSnapshot(seed, 100, 400);
    const PartitionSet scl =
        SclAlgorithm().CreatePartitions(snap, 8, 0);
    const PartitionSet scc =
        SccAlgorithm().CreatePartitions(snap, 8, 0);
    scl_gini += GiniCoefficient(scl.loads());
    scc_gini += GiniCoefficient(scc.loads());
  }
  EXPECT_LE(scl_gini, scc_gini);
}

TEST(DsAlgorithm, LowestCommunicationOnSharedWorkload) {
  // DS has zero replication by construction; the set-cover algorithms
  // replicate. Figure 3's ordering at the algorithmic level.
  const auto snap = RandomSnapshot(3, 100, 400);
  const auto ds = DsAlgorithm().CreatePartitions(snap, 8, 0);
  const auto q_ds = EvaluatePartitionQuality(snap, ds);
  EXPECT_DOUBLE_EQ(q_ds.avg_communication, 1.0);
  for (AlgorithmKind kind :
       {AlgorithmKind::kSCC, AlgorithmKind::kSCL, AlgorithmKind::kSCI}) {
    const auto ps = MakeAlgorithm(kind)->CreatePartitions(snap, 8, 0);
    const auto q = EvaluatePartitionQuality(snap, ps);
    EXPECT_GE(q.avg_communication, 1.0) << AlgorithmName(kind);
  }
}

TEST(SingleAdditionTarget, OverlapFirstForCommAlgorithms) {
  PartitionSet ps(3);
  ps.AddTags(0, TagSet({1, 2}));
  ps.AddTags(1, TagSet({3}));
  ps.AddTags(2, TagSet({4, 5, 6}));
  ps.AddLoad(0, 100);
  ps.AddLoad(1, 1);
  ps.AddLoad(2, 50);
  // {1,2,7} overlaps partition 0 the most; DS/SCC/SCI pick it despite its
  // high load.
  for (AlgorithmKind kind :
       {AlgorithmKind::kDS, AlgorithmKind::kSCC, AlgorithmKind::kSCI}) {
    EXPECT_EQ(MakeAlgorithm(kind)->ChooseSingleAdditionTarget(
                  ps, TagSet({1, 2, 7})),
              0)
        << AlgorithmName(kind);
  }
  // SCL picks the least-loaded partition (1).
  EXPECT_EQ(MakeAlgorithm(AlgorithmKind::kSCL)
                ->ChooseSingleAdditionTarget(ps, TagSet({1, 2, 7})),
            1);
}

TEST(SingleAdditionTarget, TieBreaks) {
  PartitionSet ps(2);
  ps.AddTags(0, TagSet({1}));
  ps.AddTags(1, TagSet({2}));
  ps.AddLoad(0, 10);
  ps.AddLoad(1, 5);
  // {1,2}: overlap 1 with both -> least load (partition 1).
  EXPECT_EQ(MakeAlgorithm(AlgorithmKind::kDS)
                ->ChooseSingleAdditionTarget(ps, TagSet({1, 2})),
            1);
  // SCL: loads differ -> least load; overlap only breaks load ties.
  ps.AddLoad(1, 5);  // Now equal loads.
  ps.AddTag(1, 3);
  EXPECT_EQ(MakeAlgorithm(AlgorithmKind::kSCL)
                ->ChooseSingleAdditionTarget(ps, TagSet({2, 3})),
            1);
}

TEST(DsSplitAlgorithm, SplitsOversizedComponent) {
  // One dominant component (load 90 of 100) and a small one.
  std::vector<std::pair<TagSet, uint64_t>> weighted;
  for (TagId t = 0; t < 30; ++t) {
    weighted.emplace_back(TagSet({t, static_cast<TagId>(t + 1)}), 3);
  }
  weighted.emplace_back(TagSet({100, 101}), 10);
  const auto snap =
      CooccurrenceSnapshot::FromWeightedTagsets(std::move(weighted));
  const PartitionSet plain =
      DsAlgorithm().CreatePartitions(snap, 4, 0);
  const PartitionSet split =
      DsSplitAlgorithm(/*max_component_share=*/0.3)
          .CreatePartitions(snap, 4, 0);
  // Plain DS cannot balance: the giant chain's partition receives 90 % of
  // the traffic. The splitting variant spreads it, lowering the worst
  // partition's actual load share.
  const PartitionQuality plain_q = EvaluatePartitionQuality(snap, plain);
  const PartitionQuality split_q = EvaluatePartitionQuality(snap, split);
  EXPECT_GT(plain_q.max_load, 0.85);
  EXPECT_LT(split_q.max_load, plain_q.max_load);
  ExpectCoverage(snap, split);
}

TEST(DsSplitAlgorithm, NoSplitWhenBalanced) {
  const auto snap = Figure1Snapshot();
  const PartitionSet plain = DsAlgorithm().CreatePartitions(snap, 2, 0);
  const PartitionSet split =
      DsSplitAlgorithm(/*max_component_share=*/0.99)
          .CreatePartitions(snap, 2, 0);
  for (int p = 0; p < 2; ++p) {
    EXPECT_EQ(plain.SortedTags(p), split.SortedTags(p));
  }
}

TEST(ElasticTargetK, CostIsConvexWithMinimumAtSqrt) {
  ElasticPolicy policy;
  policy.partition_overhead_load = 100;
  // L = 10000, overhead = 100 -> k* = sqrt(100) = 10 exactly.
  const uint64_t load = 10000;
  const double at_optimum = ElasticPartitionCost(load, 10, policy);
  for (int k : {1, 2, 5, 9, 11, 20, 50}) {
    EXPECT_GT(ElasticPartitionCost(load, k, policy), at_optimum) << k;
  }
  EXPECT_EQ(ChooseTargetK(load, /*current_k=*/0, policy), 10);
}

TEST(ElasticTargetK, PicksIntegerNeighbourOfContinuousOptimum) {
  ElasticPolicy policy;
  policy.partition_overhead_load = 100;
  // L = 12000 -> k* = sqrt(120) ~ 10.95; cost(11) < cost(10).
  const int k = ChooseTargetK(12000, 0, policy);
  EXPECT_EQ(k, 11);
  EXPECT_LT(ElasticPartitionCost(12000, 11, policy),
            ElasticPartitionCost(12000, 10, policy));
}

TEST(ElasticTargetK, HysteresisKeepsCurrentK) {
  ElasticPolicy policy;
  policy.partition_overhead_load = 100;
  // Optimum 10 vs current 9: |10-9| = 1 <= 0.25*9 -> sticky.
  EXPECT_EQ(ChooseTargetK(10000, 9, policy), 9);
  // Current 4: |10-4| = 6 > 1 -> resize to the optimum.
  EXPECT_EQ(ChooseTargetK(10000, 4, policy), 10);
}

TEST(ElasticTargetK, NeverBelowOnePartition) {
  // The provisioned maximum is the Merger's clamp (see
  // ElasticResize.PolicyOptimumClampsToProvisionedMaximum); the policy
  // itself only floors at one partition.
  ElasticPolicy policy;
  policy.partition_overhead_load = 100;
  EXPECT_EQ(ChooseTargetK(0, 0, policy), 1);  // Empty window.
  policy.partition_overhead_load = 1000000;   // Optimum far below 1.
  EXPECT_EQ(ChooseTargetK(1000, 0, policy), 1);
}

}  // namespace
}  // namespace corrtrack
