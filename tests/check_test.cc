#include "core/check.h"

#include <gtest/gtest.h>

#include "core/inlined_vector.h"
#include "core/partition.h"
#include "core/tagset.h"
#include "core/window.h"

namespace corrtrack {
namespace {

using CheckDeathTest = ::testing::Test;

TEST(CheckDeathTest, CheckFailsAbortWithMessage) {
  EXPECT_DEATH(CORRTRACK_CHECK(1 == 2), "CORRTRACK_CHECK failed");
  EXPECT_DEATH(CORRTRACK_CHECK_EQ(1, 2), "1 == 2");
  EXPECT_DEATH(CORRTRACK_CHECK_LT(5, 3), "5 < 3");
}

TEST(CheckDeathTest, CheckPassesSilently) {
  CORRTRACK_CHECK(true);
  CORRTRACK_CHECK_EQ(2, 2);
  CORRTRACK_CHECK_GE(3, 3);
  SUCCEED();
}

TEST(CheckDeathTest, InlinedVectorOutOfBounds) {
  InlinedVector<int, 2> v{1, 2};
  EXPECT_DEATH(v[2], "CORRTRACK_CHECK");
  EXPECT_DEATH((InlinedVector<int, 2>{}.pop_back()), "CORRTRACK_CHECK");
}

TEST(CheckDeathTest, TagSetFromSortedRejectsUnsorted) {
  const TagId bad[] = {3, 1};
  EXPECT_DEATH(TagSet::FromSorted(bad, bad + 2), "CORRTRACK_CHECK");
  const TagId dup[] = {1, 1};
  EXPECT_DEATH(TagSet::FromSorted(dup, dup + 2), "CORRTRACK_CHECK");
}

TEST(CheckDeathTest, TagSetSubsetEnumerationBounded) {
  std::vector<TagId> many;
  for (TagId t = 0; t < 20; ++t) many.push_back(t);
  const TagSet s(many);
  EXPECT_DEATH(s.ForEachSubset([](const TagSet&) {}), "CORRTRACK_CHECK");
}

TEST(CheckDeathTest, WindowRejectsTimeTravel) {
  SlidingWindow w(100);
  Document d;
  d.time = 50;
  d.tags = TagSet({1});
  w.Add(d);
  d.time = 40;  // Timestamps must be non-decreasing.
  EXPECT_DEATH(w.Add(d), "CORRTRACK_CHECK");
}

TEST(CheckDeathTest, WindowNeedsSomeBound) {
  EXPECT_DEATH(SlidingWindow(0), "CORRTRACK_CHECK");
}

TEST(CheckDeathTest, PartitionSetBoundsChecked) {
  PartitionSet ps(2);
  EXPECT_DEATH(ps.partition(2), "CORRTRACK_CHECK");
  EXPECT_DEATH(ps.AddTag(-1, 5), "CORRTRACK_CHECK");
  EXPECT_DEATH(ps.AddLoad(7, 1), "CORRTRACK_CHECK");
}

}  // namespace
}  // namespace corrtrack
