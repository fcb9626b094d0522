#include "core/tagset.h"

#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace corrtrack {
namespace {

TEST(TagSet, CanonicalisesUnsortedWithDuplicates) {
  TagSet s({5, 1, 5, 3, 1});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 1u);
  EXPECT_EQ(s[1], 3u);
  EXPECT_EQ(s[2], 5u);
}

TEST(TagSet, FromSortedAcceptsStrictlyAscending) {
  const TagId tags[] = {1, 4, 9};
  TagSet s = TagSet::FromSorted(tags, tags + 3);
  EXPECT_EQ(s, TagSet({1, 4, 9}));
}

TEST(TagSet, EmptySet) {
  TagSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.Contains(0));
  EXPECT_TRUE(s.IsSubsetOf(TagSet({1, 2})));
}

TEST(TagSet, Contains) {
  TagSet s({2, 4, 6});
  EXPECT_TRUE(s.Contains(2));
  EXPECT_TRUE(s.Contains(4));
  EXPECT_TRUE(s.Contains(6));
  EXPECT_FALSE(s.Contains(3));
  EXPECT_FALSE(s.Contains(7));
}

TEST(TagSet, SubsetRelation) {
  TagSet small({2, 4});
  TagSet big({1, 2, 3, 4});
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(big.IsSubsetOf(big));
}

TEST(TagSet, IntersectionSize) {
  TagSet a({1, 2, 3});
  TagSet b({2, 3, 4});
  EXPECT_EQ(a.IntersectionSize(b), 2u);
  EXPECT_EQ(b.IntersectionSize(a), 2u);
  EXPECT_EQ(a.IntersectionSize(TagSet({9})), 0u);
}

TEST(TagSet, IntersectAndUnion) {
  TagSet a({1, 2, 3});
  TagSet b({2, 3, 4});
  EXPECT_EQ(a.Intersect(b), TagSet({2, 3}));
  EXPECT_EQ(a.Union(b), TagSet({1, 2, 3, 4}));
  EXPECT_EQ(a.Union(TagSet()), a);
  EXPECT_EQ(a.Intersect(TagSet()), TagSet());
}

TEST(TagSet, OrderingIsLexicographic) {
  EXPECT_LT(TagSet({1, 2}), TagSet({1, 3}));
  EXPECT_LT(TagSet({1}), TagSet({1, 2}));
  EXPECT_LT(TagSet(), TagSet({0}));
}

TEST(TagSet, HashEqualSetsEqualHashes) {
  TagSet a({3, 1, 2});
  TagSet b({1, 2, 3});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(TagSet, HashDiffersForDifferentSets) {
  // Not guaranteed in theory, but FNV over distinct small sets must not
  // collide for these simple cases.
  EXPECT_NE(TagSet({1}).Hash(), TagSet({2}).Hash());
  EXPECT_NE(TagSet({1, 2}).Hash(), TagSet({1, 3}).Hash());
  EXPECT_NE(TagSet({1}).Hash(), TagSet({1, 2}).Hash());
}

TEST(TagSet, ForEachSubsetEnumeratesAllNonEmpty) {
  TagSet s({1, 2, 3});
  std::set<TagSet> subsets;
  s.ForEachSubset([&](const TagSet& sub) { subsets.insert(sub); });
  EXPECT_EQ(subsets.size(), 7u);  // 2^3 - 1.
  EXPECT_TRUE(subsets.count(TagSet({1})));
  EXPECT_TRUE(subsets.count(TagSet({1, 3})));
  EXPECT_TRUE(subsets.count(TagSet({1, 2, 3})));
}

TEST(TagSet, ForEachSubsetMinSize) {
  TagSet s({1, 2, 3});
  std::set<TagSet> subsets;
  s.ForEachSubset([&](const TagSet& sub) { subsets.insert(sub); },
                  /*min_size=*/2);
  EXPECT_EQ(subsets.size(), 4u);  // {12,13,23,123}.
  EXPECT_FALSE(subsets.count(TagSet({1})));
}

TEST(TagSet, ForEachSubsetSingleton) {
  TagSet s({7});
  int count = 0;
  s.ForEachSubset([&](const TagSet& sub) {
    ++count;
    EXPECT_EQ(sub, s);
  });
  EXPECT_EQ(count, 1);
}

TEST(TagSet, ForEachSubsetSixteenTagBoundary) {
  // Regression for the mask-overflow hazard: at n = kMaxTagsPerDocument the
  // enumeration must terminate and yield exactly 2^16 - 1 subsets. (The old
  // `mask <= full` loop form would never terminate once `full` is the
  // all-ones mask; the boundary case pins the rewritten loop.)
  ASSERT_EQ(kMaxTagsPerDocument, 16);
  std::vector<TagId> tags;
  for (int i = 0; i < 16; ++i) tags.push_back(static_cast<TagId>(i * 7));
  const TagSet s(tags);
  uint64_t count = 0;
  uint64_t full_sets = 0;
  s.ForEachSubset([&](const TagSet& sub) {
    ++count;
    if (sub.size() == 16) ++full_sets;
  });
  EXPECT_EQ(count, (uint64_t{1} << 16) - 1);
  EXPECT_EQ(full_sets, 1u);

  // The span enumerator underneath walks the identical mask sequence.
  uint64_t span_count = 0;
  TagId scratch[kMaxTagsPerDocument];
  s.ForEachSubsetSpan(scratch, [&](const TagId*, size_t) { ++span_count; });
  EXPECT_EQ(span_count, count);
}

TEST(TagSet, SubsetEnumeratorsAgree) {
  // ForEachSubset and ForEachSubsetSpan must yield the same subsets in the
  // same order, call m being mask m, as SelectTags spells it.
  const TagSet s({2, 3, 5, 7, 11});
  std::vector<TagSet> from_set;
  std::vector<TagSet> from_span;
  std::vector<TagSet> from_mask;
  s.ForEachSubset([&](const TagSet& sub) { from_set.push_back(sub); });
  TagId scratch[kMaxTagsPerDocument];
  s.ForEachSubsetSpan(scratch, [&](const TagId* tags, size_t n) {
    from_span.push_back(TagSet::FromSorted(tags, tags + n));
  });
  for (uint32_t mask = 1; mask < (1u << s.size()); ++mask) {
    const size_t n = SelectTags(s.begin(), mask, scratch);
    from_mask.push_back(TagSet::FromSorted(scratch, scratch + n));
  }
  EXPECT_EQ(from_set, from_span);
  EXPECT_EQ(from_set, from_mask);

  from_set.clear();
  from_span.clear();
  s.ForEachSubset([&](const TagSet& sub) { from_set.push_back(sub); },
                  /*min_size=*/3);
  s.ForEachSubsetSpan(scratch, [&](const TagId* tags, size_t n) {
    from_span.push_back(TagSet::FromSorted(tags, tags + n));
  }, /*min_size=*/3);
  EXPECT_EQ(from_set, from_span);
  for (const TagSet& sub : from_set) EXPECT_GE(sub.size(), 3u);
}

TEST(TagSet, SpanHashIsASetHash) {
  // The counter tables hash a canonical set's span: input order does not
  // matter, the tags do.
  const TagSet a({4, 9, 1});
  const TagSet b({1, 4, 9});
  const TagSet c({1, 4});
  EXPECT_EQ(HashTagSpan(a.begin(), a.size()), HashTagSpan(b.begin(), b.size()));
  EXPECT_NE(HashTagSpan(a.begin(), a.size()), HashTagSpan(c.begin(), c.size()));
}

TEST(TagSet, ToString) {
  EXPECT_EQ(TagSet({2, 1}).ToString(), "{1,2}");
  EXPECT_EQ(TagSet().ToString(), "{}");
}

// Property: set algebra matches std::set reference across random inputs.
class TagSetAlgebraTest : public ::testing::TestWithParam<int> {};

TEST_P(TagSetAlgebraTest, MatchesReferenceSetAlgebra) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 77);
  std::uniform_int_distribution<TagId> tag(0, 30);
  std::uniform_int_distribution<int> len(0, 8);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<TagId> raw_a;
    std::vector<TagId> raw_b;
    for (int i = len(rng); i > 0; --i) raw_a.push_back(tag(rng));
    for (int i = len(rng); i > 0; --i) raw_b.push_back(tag(rng));
    const TagSet a(raw_a);
    const TagSet b(raw_b);
    const std::set<TagId> sa(raw_a.begin(), raw_a.end());
    const std::set<TagId> sb(raw_b.begin(), raw_b.end());

    ASSERT_EQ(a.size(), sa.size());
    std::set<TagId> expect_union = sa;
    expect_union.insert(sb.begin(), sb.end());
    std::set<TagId> expect_inter;
    for (TagId t : sa) {
      if (sb.count(t)) expect_inter.insert(t);
    }
    const TagSet u = a.Union(b);
    const TagSet i = a.Intersect(b);
    ASSERT_EQ(std::set<TagId>(u.begin(), u.end()), expect_union);
    ASSERT_EQ(std::set<TagId>(i.begin(), i.end()), expect_inter);
    ASSERT_EQ(a.IntersectionSize(b), expect_inter.size());
    ASSERT_EQ(i.IsSubsetOf(a) && i.IsSubsetOf(b), true);
    ASSERT_TRUE(a.IsSubsetOf(u));
    ASSERT_TRUE(b.IsSubsetOf(u));
    // Inclusion-exclusion on sizes.
    ASSERT_EQ(u.size() + i.size(), a.size() + b.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TagSetAlgebraTest, ::testing::Range(1, 7));

// Property: subset enumeration yields exactly 2^n - 1 distinct canonical
// subsets, all genuine subsets.
class TagSetSubsetTest : public ::testing::TestWithParam<int> {};

TEST_P(TagSetSubsetTest, EnumerationIsExact) {
  const int n = GetParam();
  std::vector<TagId> tags;
  for (int i = 0; i < n; ++i) tags.push_back(static_cast<TagId>(i * 3 + 1));
  const TagSet s(tags);
  std::set<TagSet> seen;
  s.ForEachSubset([&](const TagSet& sub) {
    EXPECT_FALSE(sub.empty());
    EXPECT_TRUE(sub.IsSubsetOf(s));
    EXPECT_TRUE(seen.insert(sub).second) << "duplicate " << sub.ToString();
  });
  EXPECT_EQ(seen.size(), (size_t{1} << n) - 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TagSetSubsetTest, ::testing::Range(1, 11));

}  // namespace
}  // namespace corrtrack
