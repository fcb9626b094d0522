#include "core/window.h"

#include <random>

#include <gtest/gtest.h>

namespace corrtrack {
namespace {

Document Doc(DocId id, Timestamp time) {
  Document d;
  d.id = id;
  d.time = time;
  d.tags = TagSet({static_cast<TagId>(id % 10)});
  return d;
}

TEST(SlidingWindow, TimeBasedEviction) {
  SlidingWindow w(100);
  w.Add(Doc(1, 10));
  w.Add(Doc(2, 50));
  w.Add(Doc(3, 100));
  EXPECT_EQ(w.size(), 3u);
  w.Add(Doc(4, 111));  // Evicts doc at t=10 (10 <= 111-100).
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.begin()->id, 2u);
}

TEST(SlidingWindow, BoundaryIsExclusive) {
  SlidingWindow w(100);
  w.Add(Doc(1, 0));
  w.Add(Doc(2, 100));  // 0 <= 100-100: doc 1 leaves.
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.begin()->id, 2u);
}

TEST(SlidingWindow, AdvanceToEvictsWithoutAdding) {
  SlidingWindow w(50);
  w.Add(Doc(1, 10));
  w.Add(Doc(2, 40));
  w.AdvanceTo(70);
  EXPECT_EQ(w.size(), 1u);
  w.AdvanceTo(200);
  EXPECT_TRUE(w.empty());
}

TEST(SlidingWindow, AdvanceToPastIsIgnored) {
  SlidingWindow w(50);
  w.Add(Doc(1, 100));
  w.AdvanceTo(10);  // In the past; no effect.
  EXPECT_EQ(w.size(), 1u);
}

TEST(SlidingWindow, EqualTimestampsAtBoundaryEvictTogether) {
  // Several documents share the exact boundary timestamp: all of them age
  // out together, in one eviction, when the clock reaches time + span.
  SlidingWindow w(100);
  w.Add(Doc(1, 0));
  w.Add(Doc(2, 0));
  w.Add(Doc(3, 0));
  w.Add(Doc(4, 99));  // One tick short of the boundary: nothing leaves.
  EXPECT_EQ(w.size(), 4u);
  w.Add(Doc(5, 100));  // 0 == 100 - 100: the whole t=0 run leaves at once.
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.begin()->id, 4u);
}

TEST(SlidingWindow, AddAndAdvanceToAgreeOnTheBoundary) {
  // Pinned semantics: advancing the clock to T evicts exactly what adding
  // a document at T would have evicted.
  SlidingWindow added(50);
  SlidingWindow advanced(50);
  for (DocId id = 1; id <= 3; ++id) {
    added.Add(Doc(id, static_cast<Timestamp>(id) * 10));
    advanced.Add(Doc(id, static_cast<Timestamp>(id) * 10));
  }
  added.Add(Doc(9, 60));  // Doc at t=10 sits exactly at the boundary.
  advanced.AdvanceTo(60);
  EXPECT_EQ(added.size(), advanced.size() + 1);  // Modulo the added doc.
  EXPECT_EQ(added.begin()->id, advanced.begin()->id);
  EXPECT_EQ(advanced.begin()->id, 2u);
}

TEST(SlidingWindow, AdvanceToCurrentTimeIsIdempotent) {
  SlidingWindow w(100);
  w.Add(Doc(1, 0));
  w.Add(Doc(2, 100));  // Evicts doc 1 at the boundary.
  EXPECT_EQ(w.size(), 1u);
  w.AdvanceTo(100);  // Equal to the last timestamp: allowed, no effect.
  w.AdvanceTo(100);
  EXPECT_EQ(w.size(), 1u);
  w.Add(Doc(3, 100));  // Equal-timestamp Add after AdvanceTo is legal.
  EXPECT_EQ(w.size(), 2u);
}

TEST(SlidingWindow, EqualTimestampRunLargerThanSpan) {
  // A burst of same-timestamp documents never self-evicts (age 0 < span),
  // no matter how long the run.
  SlidingWindow w(1);
  for (DocId id = 0; id < 20; ++id) w.Add(Doc(id, 500));
  EXPECT_EQ(w.size(), 20u);
  w.AdvanceTo(501);  // age 1 >= span 1: everything leaves.
  EXPECT_TRUE(w.empty());
}

// Property: window contents always equal the brute-force definition.
class SlidingWindowPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SlidingWindowPropertyTest, MatchesBruteForce) {
  const Timestamp span = 200;
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 13);
  std::uniform_int_distribution<Timestamp> gap(0, 60);
  SlidingWindow w(span);
  std::vector<Document> all;
  Timestamp now = 0;
  for (int i = 0; i < 500; ++i) {
    now += gap(rng);
    const Document d = Doc(static_cast<DocId>(i), now);
    all.push_back(d);
    w.Add(d);
    std::vector<DocId> expected;
    for (const Document& past : all) {
      if (past.time > now - span) expected.push_back(past.id);
    }
    std::vector<DocId> actual;
    for (const Document& doc : w) actual.push_back(doc.id);
    ASSERT_EQ(actual, expected) << "at t=" << now;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlidingWindowPropertyTest,
                         ::testing::Range(1, 7));

}  // namespace
}  // namespace corrtrack
