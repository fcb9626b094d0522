#include "serve/correlation_index.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/jaccard.h"
#include "gen/tweet_generator.h"
#include "ops/centralized.h"
#include "ops/source.h"
#include "ops/topology_builder.h"
#include "ops/tracker_op.h"
#include "serve/index_sink.h"
#include "storage/serialize.h"
#include "stream/simulation.h"

namespace corrtrack::serve {
namespace {

JaccardEstimate Estimate(std::vector<TagId> tags, double coefficient,
                         uint64_t intersection, uint64_t unioned) {
  JaccardEstimate e;
  e.tags = TagSet(tags);
  e.coefficient = coefficient;
  e.intersection_count = intersection;
  e.union_count = unioned;
  return e;
}

/// Drops every emission: the Tracker emits nothing.
class DropEmitter : public stream::Emitter<ops::Message> {
 public:
  void Emit(ops::Message) override {}
  void EmitDirect(int, ops::Message) override {}
  Timestamp now() const override { return 0; }
};

/// Hands `estimates` to `tracker` as one Calculator report of `period_end`.
void Track(ops::TrackerBolt& tracker, Timestamp period_end,
           std::vector<JaccardEstimate> estimates) {
  ops::JaccardReport report;
  report.period_end = period_end;
  report.estimates = std::move(estimates);
  stream::Envelope<ops::Message> env;
  env.set_payload(ops::Message(std::move(report)));
  DropEmitter emitter;
  tracker.Execute(env, emitter);
}

TEST(CorrelationIndex, EmptyIndexAnswersEmpty) {
  CorrelationIndex index;
  CorrelationIndex::Reader reader = index.NewReader();
  std::vector<ScoredSet> results;
  EXPECT_EQ(reader.TopCorrelated(7, 10, &results), 0u);
  EXPECT_FALSE(reader.Lookup(TagSet({1, 2})).has_value());
  EXPECT_EQ(reader.Snapshot(0.0, &results), 0u);
  EXPECT_EQ(reader.TotalSets(), 0u);
  EXPECT_EQ(index.epoch(), 0u);
}

TEST(CorrelationIndex, ServesTopLookupAndScan) {
  CorrelationIndex index;
  index.ApplyPeriod(1000, {Estimate({1, 2}, 0.8, 8, 10),
                           Estimate({1, 3}, 0.5, 5, 10),
                           Estimate({1, 2, 3}, 0.2, 2, 10),
                           Estimate({4, 5}, 0.9, 9, 10)});
  CorrelationIndex::Reader reader = index.NewReader();

  // TopCorrelated(1): every set containing tag 1, strongest first.
  std::vector<ScoredSet> top;
  ASSERT_EQ(reader.TopCorrelated(1, 10, &top), 3u);
  EXPECT_EQ(top[0].tags, TagSet({1, 2}));
  EXPECT_DOUBLE_EQ(top[0].coefficient, 0.8);
  EXPECT_EQ(top[1].tags, TagSet({1, 3}));
  EXPECT_EQ(top[2].tags, TagSet({1, 2, 3}));
  EXPECT_EQ(top[0].period_end, 1000);
  // k truncates.
  EXPECT_EQ(reader.TopCorrelated(1, 2, &top), 2u);

  // Exact lookup with provenance.
  const std::optional<LookupResult> hit = reader.Lookup(TagSet({1, 3}));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->coefficient, 0.5);
  EXPECT_EQ(hit->intersection_count, 5u);
  EXPECT_EQ(hit->union_count, 10u);
  EXPECT_EQ(hit->period_end, 1000);
  EXPECT_EQ(hit->epoch, index.epoch());
  EXPECT_FALSE(reader.Lookup(TagSet({2, 3})).has_value());

  // Threshold scan, strongest first, no duplicates.
  std::vector<ScoredSet> scan;
  ASSERT_EQ(reader.Snapshot(0.5, &scan), 3u);
  EXPECT_EQ(scan[0].tags, TagSet({4, 5}));
  EXPECT_EQ(scan[1].tags, TagSet({1, 2}));
  EXPECT_EQ(scan[2].tags, TagSet({1, 3}));
  EXPECT_EQ(reader.Snapshot(0.0, &scan), 4u);
  EXPECT_EQ(reader.TotalSets(), 4u);
}

TEST(IndexSink, MaxCnMergeWithinPeriod) {
  // Duplicate reports of one period merge in the Tracker by max-CN,
  // independent of arrival order; ties keep the first (strict >). The
  // index serves the value the Tracker settled on, and a losing report
  // changes nothing, so nothing is published for it.
  CorrelationIndex index;
  IndexSink sink(&index);
  ops::TrackerBolt tracker(&sink);
  Track(tracker, 500, {Estimate({1, 2}, 0.4, 4, 10)});
  Track(tracker, 500, {Estimate({1, 2}, 0.9, 9, 10)});
  const uint64_t epoch = index.epoch();
  Track(tracker, 500, {Estimate({1, 2}, 0.1, 2, 20)});
  Track(tracker, 500, {Estimate({1, 2}, 0.3, 9, 30)});
  EXPECT_EQ(index.epoch(), epoch);
  CorrelationIndex::Reader reader = index.NewReader();
  const std::optional<LookupResult> hit = reader.Lookup(TagSet({1, 2}));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->intersection_count, 9u);
  EXPECT_DOUBLE_EQ(hit->coefficient, 0.9);
}

TEST(CorrelationIndex, StoresTheValueItIsGiven) {
  // The index does not merge: a value replaces the stored value of its
  // period whatever its CN, and within one call the later entry of a
  // tagset wins.
  CorrelationIndex index;
  CorrelationIndex::Reader reader = index.NewReader();
  index.ApplyPeriod(500, {Estimate({1, 2}, 0.9, 9, 10)});
  index.ApplyPeriod(500, {Estimate({1, 2}, 0.4, 4, 10)});
  EXPECT_EQ(reader.Lookup(TagSet({1, 2}))->intersection_count, 4u);
  index.ApplyPeriod(500, {Estimate({1, 2}, 0.5, 5, 10),
                          Estimate({1, 2}, 0.6, 6, 10)});
  EXPECT_EQ(reader.Lookup(TagSet({1, 2}))->intersection_count, 6u);
  EXPECT_EQ(reader.TotalSets(), 1u);
}

TEST(CorrelationIndex, NewerPeriodReplacesOlderValue) {
  CorrelationIndex index;
  index.ApplyPeriod(1000, {Estimate({1, 2}, 0.9, 9, 10)});
  index.ApplyPeriod(2000, {Estimate({1, 2}, 0.3, 3, 10)});
  // A late report for an older period does not roll freshness back.
  index.ApplyPeriod(1000, {Estimate({1, 2}, 0.9, 9, 10)});
  CorrelationIndex::Reader reader = index.NewReader();
  const std::optional<LookupResult> hit = reader.Lookup(TagSet({1, 2}));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->coefficient, 0.3);
  EXPECT_EQ(hit->period_end, 2000);
}

TEST(CorrelationIndex, PerTagTopKIsBounded) {
  ServeConfig config;
  config.top_k_capacity = 4;
  CorrelationIndex index(config);
  std::vector<JaccardEstimate> estimates;
  for (TagId other = 1; other <= 20; ++other) {
    estimates.push_back(Estimate({0, other},
                                 static_cast<double>(other) / 20.0, other,
                                 20));
  }
  index.ApplyPeriod(1000, estimates);
  CorrelationIndex::Reader reader = index.NewReader();
  std::vector<ScoredSet> top;
  // The answer list is truncated to capacity and keeps the strongest.
  EXPECT_EQ(reader.TopCorrelated(0, 100, &top), 4u);
  EXPECT_EQ(top[0].tags, TagSet({0, 20}));
  EXPECT_EQ(top[3].tags, TagSet({0, 17}));
  // Exact lookups still cover everything (the bound is per-tag answer
  // state, not the entry store).
  EXPECT_TRUE(reader.Lookup(TagSet({0, 1})).has_value());
}

TEST(CorrelationIndex, ScreeningThresholdDropsWeakCorrelations) {
  ServeConfig config;
  config.min_coefficient = 0.5;
  CorrelationIndex index(config);
  index.ApplyPeriod(1000, {Estimate({1, 2}, 0.8, 8, 10),
                           Estimate({1, 3}, 0.49, 4, 10)});
  CorrelationIndex::Reader reader = index.NewReader();
  EXPECT_TRUE(reader.Lookup(TagSet({1, 2})).has_value());
  EXPECT_FALSE(reader.Lookup(TagSet({1, 3})).has_value());
  EXPECT_EQ(reader.TotalSets(), 1u);
  // A screened value removes what it supersedes; within one call the later
  // entry of a tagset wins, screened or not.
  index.ApplyPeriod(2000, {Estimate({1, 2}, 0.2, 2, 10)});
  EXPECT_FALSE(reader.Lookup(TagSet({1, 2})).has_value());
  index.ApplyPeriod(2000, {Estimate({1, 3}, 0.6, 6, 10),
                           Estimate({1, 3}, 0.1, 1, 10),
                           Estimate({2, 3}, 0.1, 1, 10),
                           Estimate({2, 3}, 0.7, 7, 10)});
  EXPECT_FALSE(reader.Lookup(TagSet({1, 3})).has_value());
  EXPECT_DOUBLE_EQ(reader.Lookup(TagSet({2, 3}))->coefficient, 0.7);
  EXPECT_EQ(reader.TotalSets(), 1u);
}

TEST(IndexSink, ScreeningJudgesTheSettledValue) {
  // CN 5 at J 0.1 and CN 3 at J 0.5 of one period: the Tracker keeps CN 5,
  // below the threshold, so the set is not served in either arrival order
  // — not even with the older period's value, which the newer one
  // supersedes.
  for (const bool high_cn_first : {true, false}) {
    SCOPED_TRACE(high_cn_first ? "CN 5 first" : "CN 3 first");
    ServeConfig config;
    config.min_coefficient = 0.3;
    CorrelationIndex index(config);
    IndexSink sink(&index);
    ops::TrackerBolt tracker(&sink);
    CorrelationIndex::Reader reader = index.NewReader();
    Track(tracker, 500, {Estimate({1, 2}, 0.8, 8, 10)});
    ASSERT_TRUE(reader.Lookup(TagSet({1, 2})).has_value());
    const JaccardEstimate high_cn = Estimate({1, 2}, 0.1, 5, 50);
    const JaccardEstimate low_cn = Estimate({1, 2}, 0.5, 3, 6);
    Track(tracker, 1000, {high_cn_first ? high_cn : low_cn});
    Track(tracker, 1000, {high_cn_first ? low_cn : high_cn});
    EXPECT_EQ(tracker.periods().at(1000).at(TagSet({1, 2})).intersection_count,
              5u);
    EXPECT_FALSE(reader.Lookup(TagSet({1, 2})).has_value());
    EXPECT_EQ(reader.TotalSets(), 0u);
  }
}

TEST(CorrelationIndex, RetentionEvictsStalePeriods) {
  ServeConfig config;
  config.retention_periods = 2;
  CorrelationIndex index(config);
  index.ApplyPeriod(1000, {Estimate({1, 2}, 0.5, 5, 10)});
  index.ApplyPeriod(2000, {Estimate({3, 4}, 0.5, 5, 10)});
  index.ApplyPeriod(3000, {Estimate({5, 6}, 0.5, 5, 10)});
  CorrelationIndex::Reader reader = index.NewReader();
  // Period 1000 fell out of the retention horizon {2000, 3000}.
  EXPECT_FALSE(reader.Lookup(TagSet({1, 2})).has_value());
  EXPECT_TRUE(reader.Lookup(TagSet({3, 4})).has_value());
  EXPECT_TRUE(reader.Lookup(TagSet({5, 6})).has_value());
  EXPECT_EQ(reader.TotalSets(), 2u);
  // A set re-reported in a fresh period survives evictions that drop its
  // original period: {3,4} is refreshed at 4000 and outlives horizon
  // {4000, 5000}, while {5,6} (last seen 3000) ages out.
  index.ApplyPeriod(4000, {Estimate({3, 4}, 0.6, 6, 10)});
  EXPECT_TRUE(reader.Lookup(TagSet({5, 6})).has_value());  // Still in {3000, 4000}.
  index.ApplyPeriod(5000, {});
  EXPECT_FALSE(reader.Lookup(TagSet({5, 6})).has_value());
  EXPECT_TRUE(reader.Lookup(TagSet({3, 4})).has_value());
  EXPECT_DOUBLE_EQ(reader.Lookup(TagSet({3, 4}))->coefficient, 0.6);
}

TEST(CorrelationIndex, ReaderCreatedBeforePublishesSeesUpdates) {
  // The per-shard version counters must propagate new snapshots into a
  // reader's cache, including on shards the reader has already touched.
  CorrelationIndex index;
  CorrelationIndex::Reader reader = index.NewReader();
  std::vector<ScoredSet> results;
  EXPECT_EQ(reader.Snapshot(0.0, &results), 0u);  // Caches empty snapshots.
  index.ApplyPeriod(1000, {Estimate({1, 2}, 0.5, 5, 10)});
  EXPECT_EQ(reader.Snapshot(0.0, &results), 1u);
  index.ApplyPeriod(2000, {Estimate({1, 2}, 0.7, 7, 10)});
  const std::optional<LookupResult> hit = reader.Lookup(TagSet({1, 2}));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->coefficient, 0.7);
  EXPECT_EQ(hit->period_end, 2000);
}

TEST(CorrelationIndex, MultiShardSetsServedOnceAndEverywhere) {
  // A set's tags usually land in different shards: TopCorrelated must find
  // it from *every* member tag, while Snapshot emits it exactly once.
  ServeConfig config;
  config.num_shards = 8;
  CorrelationIndex index(config);
  std::vector<JaccardEstimate> estimates;
  for (TagId t = 0; t < 64; t += 2) {
    estimates.push_back(Estimate({t, t + 1}, 0.5, 5, 10));
  }
  index.ApplyPeriod(1000, estimates);
  CorrelationIndex::Reader reader = index.NewReader();
  std::vector<ScoredSet> results;
  for (TagId t = 0; t < 64; ++t) {
    ASSERT_EQ(reader.TopCorrelated(t, 10, &results), 1u) << "tag " << t;
    EXPECT_TRUE(results[0].tags.Contains(t));
  }
  EXPECT_EQ(reader.Snapshot(0.0, &results), 32u);
  EXPECT_EQ(reader.TotalSets(), 32u);
}

TEST(CorrelationIndex, MalformedRestoreLeavesIndexUntouched) {
  ServeConfig config;
  config.num_shards = 1;
  CorrelationIndex source(config);
  source.ApplyPeriod(1000, {Estimate({1, 2}, 0.5, 5, 10)});
  std::string blob;
  source.ExportState(&blob);

  CorrelationIndex index(config);
  index.ApplyPeriod(2000, {Estimate({3, 4}, 0.7, 7, 10)});
  EXPECT_FALSE(index.RestoreState(blob.substr(0, blob.size() - 1)));
  // The entry rewritten to one tag: its tag count follows the header (u32
  // shards, u64 epoch, i64 latest period, u64 + i64 for the one retained
  // period) and the shard's u64 entry count; drop its second tag.
  constexpr size_t kTagCount = 4 + 8 + 8 + 8 + 8 + 8;
  std::string one_tag = blob;
  one_tag[kTagCount] = 1;
  one_tag.erase(kTagCount + 8, 4);
  EXPECT_FALSE(index.RestoreState(one_tag));

  // Untouched: the index serves its own state and keeps publishing.
  CorrelationIndex::Reader reader = index.NewReader();
  EXPECT_FALSE(reader.Lookup(TagSet({1, 2})).has_value());
  EXPECT_TRUE(reader.Lookup(TagSet({3, 4})).has_value());
  index.ApplyPeriod(2000, {Estimate({5, 6}, 0.6, 6, 10)});
  EXPECT_EQ(reader.TotalSets(), 2u);
  ASSERT_TRUE(index.RestoreState(blob));
  EXPECT_TRUE(reader.Lookup(TagSet({1, 2})).has_value());
  EXPECT_EQ(reader.TotalSets(), 1u);
}

TEST(CorrelationIndex, NonCanonicalTagsInBlobAreRefused) {
  // Blob bytes are not canonical by construction: tags out of order,
  // repeated, or kInvalidTag must fail RestoreState, not abort in
  // TagSet::FromSorted.
  ServeConfig config;
  config.num_shards = 1;
  CorrelationIndex source(config);
  source.ApplyPeriod(1000, {Estimate({1, 2}, 0.5, 5, 10)});
  std::string blob;
  source.ExportState(&blob);
  // The entry's two tags follow its u32 tag count (see the layout above).
  constexpr size_t kFirstTag = 4 + 8 + 8 + 8 + 8 + 8 + 4;
  const std::vector<std::pair<TagId, TagId>> bad = {
      {2, 1}, {2, 2}, {1, kInvalidTag}};
  CorrelationIndex index(config);
  for (const auto& [first, second] : bad) {
    std::string mutated = blob;
    std::memcpy(&mutated[kFirstTag], &first, sizeof(first));
    std::memcpy(&mutated[kFirstTag + 4], &second, sizeof(second));
    EXPECT_FALSE(index.RestoreState(mutated)) << first << "," << second;
  }
  ASSERT_TRUE(index.RestoreState(blob));
  EXPECT_TRUE(index.NewReader().Lookup(TagSet({1, 2})).has_value());
}

/// A serve blob written by hand: the latest period and the retained ones
/// (one, 1000, by default), then each shard's entries as given, in that
/// order and placement.
std::string HandBlob(
    const std::vector<std::vector<ShardSnapshot::Entry>>& shards,
    Timestamp latest_period = 1000,
    const std::vector<Timestamp>& retained = {1000}) {
  storage::ByteWriter w;
  w.PutU32(static_cast<uint32_t>(shards.size()));
  w.PutU64(1);  // epoch
  w.PutI64(latest_period);
  w.PutU64(retained.size());
  for (const Timestamp period : retained) w.PutI64(period);
  for (const std::vector<ShardSnapshot::Entry>& entries : shards) {
    w.PutU64(entries.size());
    for (const ShardSnapshot::Entry& e : entries) {
      w.PutU32(static_cast<uint32_t>(e.tags.size()));
      for (const TagId tag : e.tags) w.PutU32(tag);
      w.PutDouble(e.coefficient);
      w.PutU64(e.intersection_count);
      w.PutU64(e.union_count);
      w.PutI64(e.period_end);
    }
  }
  return w.str();
}

ShardSnapshot::Entry Held(std::vector<TagId> tags, double coefficient,
                          Timestamp period_end = 1000) {
  return {TagSet(tags), coefficient, 1, 2, period_end};
}

TEST(CorrelationIndex, InsertionOrderBlobRestoresAndExportsSorted) {
  // Blobs used to list a shard's entries in insertion order; they restore,
  // and the restored index exports them in tagset order.
  ServeConfig config;
  config.num_shards = 1;
  CorrelationIndex index(config);
  ASSERT_TRUE(index.RestoreState(
      HandBlob({{Held({3, 4}, 0.5), Held({1, 2}, 0.25)}})));
  CorrelationIndex::Reader reader = index.NewReader();
  EXPECT_DOUBLE_EQ(reader.Lookup(TagSet({3, 4}))->coefficient, 0.5);
  EXPECT_DOUBLE_EQ(reader.Lookup(TagSet({1, 2}))->coefficient, 0.25);
  std::string blob;
  index.ExportState(&blob);
  EXPECT_EQ(blob, HandBlob({{Held({1, 2}, 0.25), Held({3, 4}, 0.5)}}));
}

TEST(CorrelationIndex, ForgedBlobsAreRefused) {
  // Well-formed but impossible: a shard holding one tagset twice, or a
  // tagset none of whose tags hashes to that shard. Either would corrupt
  // the snapshot built from it, so RestoreState refuses both and leaves
  // the index as it was.
  ServeConfig config;
  config.num_shards = 2;
  const auto shard_of = [](TagId tag) { return HashTagSpan(&tag, 1) & 1; };
  std::vector<TagId> home0;  // Tags of shard 0.
  for (TagId tag = 1; home0.size() < 2; ++tag) {
    if (shard_of(tag) == 0) home0.push_back(tag);
  }
  CorrelationIndex index(config);
  index.ApplyPeriod(2000, {Estimate({5, 6}, 0.7, 7, 10)});
  EXPECT_FALSE(index.RestoreState(
      HandBlob({{Held(home0, 0.5), Held(home0, 0.5)}, {}})));
  EXPECT_FALSE(index.RestoreState(HandBlob({{}, {Held(home0, 0.5)}})));
  CorrelationIndex::Reader reader = index.NewReader();
  EXPECT_TRUE(reader.Lookup(TagSet({5, 6})).has_value());
  EXPECT_EQ(reader.TotalSets(), 1u);
  ASSERT_TRUE(index.RestoreState(HandBlob({{Held(home0, 0.5)}, {}})));
  EXPECT_TRUE(reader.Lookup(TagSet(home0)).has_value());
  EXPECT_EQ(reader.TotalSets(), 1u);
}

TEST(CorrelationIndex, ForgedRetentionIsRefused) {
  // Retention reads the blob's period list as the ascending newest
  // period-ends seen, none past the latest; a list out of order would
  // keep expired entries servable. Refused, as are entries of a period
  // past the latest, and the index is left as it was.
  ServeConfig config;
  config.num_shards = 1;
  config.retention_periods = 2;
  const std::vector<std::vector<ShardSnapshot::Entry>> held = {
      {Held({1, 2}, 0.5, 1000), Held({3, 4}, 0.5, 5000)}};
  CorrelationIndex index(config);
  index.ApplyPeriod(2000, {Estimate({5, 6}, 0.7, 7, 10)});
  EXPECT_FALSE(index.RestoreState(HandBlob(held, 5000, {5000, 1000})));
  EXPECT_FALSE(index.RestoreState(HandBlob(held, 5000, {1000, 1000})));
  EXPECT_FALSE(index.RestoreState(HandBlob(held, 5000, {1000, 6000})));
  EXPECT_FALSE(index.RestoreState(HandBlob(held, 4000, {1000})));
  CorrelationIndex::Reader reader = index.NewReader();
  EXPECT_TRUE(reader.Lookup(TagSet({5, 6})).has_value());
  EXPECT_EQ(reader.TotalSets(), 1u);

  ASSERT_TRUE(index.RestoreState(HandBlob(held, 5000, {1000, 5000})));
  EXPECT_EQ(reader.TotalSets(), 2u);
  // Period 3000 pushes 1000 out of the two-period window.
  index.ApplyPeriod(3000, {Estimate({7, 8}, 0.5, 5, 10)});
  EXPECT_FALSE(reader.Lookup(TagSet({1, 2})).has_value());
  EXPECT_TRUE(reader.Lookup(TagSet({3, 4})).has_value());
  EXPECT_EQ(reader.TotalSets(), 2u);
}

/// Every answer `index` serves must equal the from-scratch twin's:
/// RestoreState rebuilds each shard against an empty base, so a twin
/// restored from ExportState is the full-rebuild oracle for the
/// incremental publish.
void ExpectMatchesScratchRebuild(const CorrelationIndex& index,
                                 const std::set<TagId>& tags,
                                 const std::set<TagSet>& sets) {
  std::string blob;
  index.ExportState(&blob);
  CorrelationIndex twin(index.config());
  ASSERT_TRUE(twin.RestoreState(blob));
  EXPECT_EQ(twin.epoch(), index.epoch());
  std::string twin_blob;
  twin.ExportState(&twin_blob);
  EXPECT_EQ(twin_blob, blob);
  CorrelationIndex::Reader live = index.NewReader();
  CorrelationIndex::Reader scratch = twin.NewReader();
  const auto expect_same = [](const std::vector<ScoredSet>& got,
                              const std::vector<ScoredSet>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].tags, want[i].tags) << i;
      EXPECT_EQ(got[i].coefficient, want[i].coefficient) << i;
      EXPECT_EQ(got[i].period_end, want[i].period_end) << i;
    }
  };
  std::vector<ScoredSet> got;
  std::vector<ScoredSet> want;
  live.Snapshot(0.0, &got);
  scratch.Snapshot(0.0, &want);
  expect_same(got, want);
  for (const TagId tag : tags) {
    live.TopCorrelated(tag, 100, &got);
    scratch.TopCorrelated(tag, 100, &want);
    SCOPED_TRACE(tag);
    expect_same(got, want);
  }
  for (const TagSet& set : sets) {
    const std::optional<LookupResult> hit = live.Lookup(set);
    const std::optional<LookupResult> oracle = scratch.Lookup(set);
    ASSERT_EQ(hit.has_value(), oracle.has_value()) << set.ToString();
    if (!hit.has_value()) continue;
    EXPECT_EQ(hit->coefficient, oracle->coefficient) << set.ToString();
    EXPECT_EQ(hit->intersection_count, oracle->intersection_count);
    EXPECT_EQ(hit->union_count, oracle->union_count);
    EXPECT_EQ(hit->period_end, oracle->period_end);
    // Untouched shards keep the epoch of their last publish.
    EXPECT_LE(hit->epoch, index.epoch());
  }
}

/// What `index` must serve after `tracker` fed it: for every tagset the
/// Tracker holds, its value of the newest period that reported the set,
/// unless that period fell out of the retention window.
void ExpectMatchesTracker(const CorrelationIndex& index,
                          const ops::TrackerBolt& tracker) {
  const auto& periods = tracker.periods();
  const size_t keep = static_cast<size_t>(index.config().retention_periods);
  const Timestamp cutoff = periods.size() > keep
                               ? std::prev(periods.end(), keep)->first
                               : std::numeric_limits<Timestamp>::min();
  std::map<TagSet, std::pair<Timestamp, JaccardEstimate>> newest;
  for (const auto& [period_end, results] : periods) {
    for (const auto& [tags, estimate] : results) {
      newest.insert_or_assign(tags, std::pair(period_end, estimate));
    }
  }
  CorrelationIndex::Reader reader = index.NewReader();
  size_t retained = 0;
  for (const auto& [tags, value] : newest) {
    const auto& [period_end, estimate] = value;
    const std::optional<LookupResult> hit = reader.Lookup(tags);
    ASSERT_EQ(hit.has_value(), period_end >= cutoff) << tags.ToString();
    if (!hit.has_value()) continue;
    ++retained;
    EXPECT_EQ(hit->period_end, period_end) << tags.ToString();
    EXPECT_EQ(hit->coefficient, estimate.coefficient) << tags.ToString();
    EXPECT_EQ(hit->intersection_count, estimate.intersection_count);
    EXPECT_EQ(hit->union_count, estimate.union_count);
  }
  EXPECT_EQ(reader.TotalSets(), retained);
}

/// Differential: a seeded stream of small raw reports through a Tracker
/// under `merge` into its IndexSink, published incrementally after each
/// report, against the Tracker's period map and a from-scratch rebuild of
/// the same state. The stream re-reports the current period (duplicates
/// the Tracker merges), sends late reports for older periods, evicts
/// through a two-period retention window, lets every entry of one tag
/// expire, and overflows the per-tag answer bound so evicting a top entry
/// must promote the next one.
void RunIncrementalVsScratch(EstimateMerge merge) {
  ServeConfig config;
  config.num_shards = 4;
  config.top_k_capacity = 3;
  config.retention_periods = 2;
  auto index = std::make_unique<CorrelationIndex>(config);
  auto sink = std::make_unique<IndexSink>(index.get());
  ops::TrackerBolt tracker(sink.get(), merge);

  constexpr TagId kTags = 10;
  constexpr TagId kDoomedTag = 99;  // Reported in the first periods only.
  constexpr int kReports = 240;
  std::mt19937_64 rng(merge == EstimateMerge::kMaxCN ? 17 : 18);
  std::set<TagId> tags_seen;
  std::set<TagSet> sets_seen;
  Timestamp period = 1000;
  bool overflowed = false;  // Some tag held more sets than its bound.
  std::vector<ScoredSet> all;
  for (int report = 0; report < kReports; ++report) {
    SCOPED_TRACE(report);
    if (rng() % 5 == 0) period += 1000;  // About five reports a period.
    Timestamp period_end = period;
    if (rng() % 6 == 0) {
      period_end -= 1000 * static_cast<Timestamp>(1 + rng() % 3);
    }
    std::vector<JaccardEstimate> estimates;
    const int count = 1 + static_cast<int>(rng() % 6);
    for (int e = 0; e < count; ++e) {
      std::vector<TagId> tags;
      const size_t size = 2 + rng() % 2;
      while (tags.size() < size) {
        const TagId tag = static_cast<TagId>(rng() % kTags);
        if (std::find(tags.begin(), tags.end(), tag) == tags.end()) {
          tags.push_back(tag);
        }
      }
      if (report < 20 && e == 0) tags.back() = kDoomedTag;
      // Coarse coefficients force ties, so the posting order's period and
      // tagset tie-breaks are exercised too.
      const uint64_t intersection = 1 + rng() % 4;
      estimates.push_back(Estimate(tags, static_cast<double>(intersection) / 4,
                                   intersection, 4));
      tags_seen.insert(tags.begin(), tags.end());
      sets_seen.insert(estimates.back().tags);
    }
    Track(tracker, period_end, std::move(estimates));
    ExpectMatchesTracker(*index, tracker);
    ExpectMatchesScratchRebuild(*index, tags_seen, sets_seen);
    if (testing::Test::HasFailure()) return;  // Report the first divergence.
    index->NewReader().Snapshot(0.0, &all);
    for (const TagId tag : tags_seen) {
      overflowed |= std::count_if(all.begin(), all.end(),
                                  [tag](const ScoredSet& scored) {
                                    return scored.tags.Contains(tag);
                                  }) >
                    static_cast<ptrdiff_t>(config.top_k_capacity);
    }
    if (report == kReports / 2) {
      // Keep ingesting on a restored index: incremental publishes must
      // build on a snapshot that RestoreState produced.
      std::string blob;
      index->ExportState(&blob);
      index = std::make_unique<CorrelationIndex>(config);
      ASSERT_TRUE(index->RestoreState(blob));
      *sink = IndexSink(index.get());
    }
  }

  // The stream did what it claims: the doomed tag's entries all expired,
  // and the answer bound truncated some tag's run.
  std::vector<ScoredSet> results;
  EXPECT_EQ(index->NewReader().TopCorrelated(kDoomedTag, 100, &results), 0u);
  EXPECT_TRUE(overflowed);
}

TEST(IndexSink, IncrementalPublishMatchesScratchRebuild) {
  for (const EstimateMerge merge :
       {EstimateMerge::kMaxCN, EstimateMerge::kAdditive}) {
    SCOPED_TRACE(merge == EstimateMerge::kMaxCN ? "max-CN" : "additive");
    RunIncrementalVsScratch(merge);
  }
}

/// Differential: seeded reports straight into ApplyPeriod against a model
/// of its contract (a map from tagset to its stored value, the retention
/// window, and the publish count) and against a from-scratch rebuild. The
/// stream screens values out (min_coefficient), repeats a tagset within a
/// call in sorted and in unsorted reports, sends one-tag estimates and
/// values of a period older than the held one, and advances retention by
/// empty reports, so a shard with no change must still drop what expired.
TEST(CorrelationIndex, DirectApplyMatchesModelAndScratchRebuild) {
  ServeConfig config;
  config.num_shards = 4;
  config.top_k_capacity = 3;
  config.retention_periods = 3;
  config.min_coefficient = 0.3;
  CorrelationIndex index(config);

  struct Value {
    JaccardEstimate estimate;
    Timestamp period_end;
  };
  std::map<TagSet, Value> model;
  std::set<Timestamp> window;
  uint64_t epoch = 0;
  // What the stream must have done.
  int repeats_sorted = 0;
  int repeats_unsorted = 0;
  int one_tag = 0;
  int older_than_held = 0;
  int tombstones = 0;
  int expired_by_empty = 0;

  constexpr TagId kTags = 12;
  std::mt19937_64 rng(23);
  std::set<TagId> tags_seen;
  std::set<TagSet> sets_seen;
  Timestamp period = 1000;
  for (int call = 0; call < 300; ++call) {
    SCOPED_TRACE(call);
    if (rng() % 4 == 0) period += 1000;
    Timestamp period_end = period;
    if (rng() % 5 == 0) period_end -= 1000 * static_cast<Timestamp>(1 + rng() % 3);
    std::vector<JaccardEstimate> report;
    const int count = rng() % 8 == 0 ? 0 : 1 + static_cast<int>(rng() % 6);
    for (int e = 0; e < count; ++e) {
      std::vector<TagId> tags;
      const size_t size = rng() % 10 == 0 ? 1 : 2 + rng() % 2;
      while (tags.size() < size) {
        const TagId tag = static_cast<TagId>(rng() % kTags);
        if (std::find(tags.begin(), tags.end(), tag) == tags.end()) {
          tags.push_back(tag);
        }
      }
      const uint64_t intersection = rng() % 5;
      report.push_back(Estimate(tags, static_cast<double>(intersection) / 4,
                                intersection, 4));
    }
    const bool repeat = !report.empty() && rng() % 3 == 0;
    if (repeat) {
      JaccardEstimate again = report[rng() % report.size()];
      again.intersection_count = (again.intersection_count + 2) % 5;
      again.coefficient = static_cast<double>(again.intersection_count) / 4;
      report.push_back(again);
    }
    const bool sorted = rng() % 2 == 0;
    if (sorted) {
      std::stable_sort(report.begin(), report.end(),
                       [](const JaccardEstimate& a, const JaccardEstimate& b) {
                         return a.tags < b.tags;
                       });
    } else {
      std::shuffle(report.begin(), report.end(), rng);
    }
    if (repeat) ++(sorted ? repeats_sorted : repeats_unsorted);

    // The model: retention first, then each value in arrival order.
    bool publishes = false;
    Timestamp cutoff = std::numeric_limits<Timestamp>::min();
    window.insert(period_end);
    if (window.size() > static_cast<size_t>(config.retention_periods)) {
      while (window.size() > static_cast<size_t>(config.retention_periods)) {
        window.erase(window.begin());
      }
      cutoff = *window.begin();
      for (auto it = model.begin(); it != model.end();) {
        if (it->second.period_end >= cutoff) {
          ++it;
          continue;
        }
        it = model.erase(it);
        publishes = true;
        expired_by_empty += report.empty() ? 1 : 0;
      }
    }
    for (const JaccardEstimate& estimate : report) {
      tags_seen.insert(estimate.tags.begin(), estimate.tags.end());
      sets_seen.insert(estimate.tags);
      if (estimate.tags.size() < 2) {
        ++one_tag;
        continue;
      }
      if (period_end < cutoff) continue;
      const auto held = model.find(estimate.tags);
      if (held != model.end() && held->second.period_end > period_end) {
        ++older_than_held;
        continue;
      }
      if (estimate.coefficient < config.min_coefficient) {
        if (held == model.end()) continue;
        ++tombstones;
        model.erase(held);
      } else {
        model.insert_or_assign(estimate.tags, Value{estimate, period_end});
      }
      publishes = true;
    }
    epoch += publishes ? 1 : 0;

    index.ApplyPeriod(period_end, report);
    EXPECT_EQ(index.epoch(), epoch);
    CorrelationIndex::Reader reader = index.NewReader();
    EXPECT_EQ(reader.TotalSets(), model.size());
    for (const TagSet& set : sets_seen) {
      const std::optional<LookupResult> hit = reader.Lookup(set);
      const auto want = model.find(set);
      ASSERT_EQ(hit.has_value(), want != model.end()) << set.ToString();
      if (!hit.has_value()) continue;
      EXPECT_EQ(hit->period_end, want->second.period_end) << set.ToString();
      EXPECT_EQ(hit->coefficient, want->second.estimate.coefficient);
      EXPECT_EQ(hit->intersection_count,
                want->second.estimate.intersection_count);
      EXPECT_EQ(hit->union_count, want->second.estimate.union_count);
    }
    ExpectMatchesScratchRebuild(index, tags_seen, sets_seen);
    if (testing::Test::HasFailure()) return;  // Report the first divergence.
  }
  EXPECT_GT(repeats_sorted, 0);
  EXPECT_GT(repeats_unsorted, 0);
  EXPECT_GT(one_tag, 0);
  EXPECT_GT(older_than_held, 0);
  EXPECT_GT(tombstones, 0);
  EXPECT_GT(expired_by_empty, 0);
}

/// Differential oracle (flat_counter_table_test style): stream a workload
/// through the Fig. 2 topology with IndexSinks attached to the Tracker and
/// the Centralized baseline; everything the indexes serve must be
/// bit-identical to the bolts' own period maps.
template <typename BoltT>
void ExpectIndexMatchesPeriods(const CorrelationIndex& index,
                               const BoltT& bolt) {
  CorrelationIndex::Reader reader = index.NewReader();
  // Soundness: every served answer equals the bolt's value for that period.
  std::vector<ScoredSet> served;
  reader.Snapshot(0.0, &served);
  EXPECT_GT(served.size(), 0u);
  for (const ScoredSet& scored : served) {
    const std::optional<LookupResult> hit = reader.Lookup(scored.tags);
    ASSERT_TRUE(hit.has_value()) << scored.tags.ToString();
    const auto period_it = bolt.periods().find(hit->period_end);
    ASSERT_NE(period_it, bolt.periods().end()) << scored.tags.ToString();
    const auto entry_it = period_it->second.find(scored.tags);
    ASSERT_NE(entry_it, period_it->second.end()) << scored.tags.ToString();
    EXPECT_EQ(entry_it->second.coefficient, hit->coefficient);
    EXPECT_EQ(entry_it->second.intersection_count, hit->intersection_count);
    EXPECT_EQ(entry_it->second.union_count, hit->union_count);
  }
  // Completeness: the newest period is served in full (older periods may
  // have been overwritten per-set by fresher reports, which is the point).
  ASSERT_FALSE(bolt.periods().empty());
  const auto& [newest, results] = *bolt.periods().rbegin();
  EXPECT_EQ(index.latest_period(), newest);
  for (const auto& [tags, estimate] : results) {
    const std::optional<LookupResult> hit = reader.Lookup(tags);
    ASSERT_TRUE(hit.has_value()) << tags.ToString();
    EXPECT_EQ(hit->period_end, newest) << tags.ToString();
    EXPECT_EQ(hit->coefficient, estimate.coefficient);
    EXPECT_EQ(hit->intersection_count, estimate.intersection_count);
    EXPECT_EQ(hit->union_count, estimate.union_count);
  }
}

TEST(IndexSink, IngestIsBitIdenticalToTrackerAndBaselinePeriods) {
  ops::PipelineConfig pipeline;
  pipeline.algorithm = AlgorithmKind::kDS;
  pipeline.num_calculators = 4;
  pipeline.num_partitioners = 3;
  pipeline.window_span = kMillisPerMinute;
  pipeline.report_period = kMillisPerMinute;
  pipeline.bootstrap_time = kMillisPerMinute;

  gen::GeneratorConfig workload;
  workload.seed = 33;
  workload.topics.num_topics = 60;

  CorrelationIndex tracker_index;
  IndexSink tracker_sink(&tracker_index);
  CorrelationIndex baseline_index;
  IndexSink baseline_sink(&baseline_index);

  stream::Topology<ops::Message> topology;
  const ops::TopologyHandles handles = ops::BuildCorrelationTopology(
      &topology, std::make_unique<ops::GeneratorSpout>(workload, 12000),
      pipeline, nullptr, /*with_centralized_baseline=*/true, &tracker_sink,
      &baseline_sink);
  stream::SimulationRuntime<ops::Message> runtime(&topology);
  runtime.Run(pipeline.report_period);

  const auto* tracker =
      static_cast<ops::TrackerBolt*>(runtime.bolt(handles.tracker, 0));
  const auto* baseline = static_cast<ops::CentralizedBolt*>(
      runtime.bolt(handles.centralized, 0));
  ExpectIndexMatchesPeriods(tracker_index, *tracker);
  ExpectIndexMatchesPeriods(baseline_index, *baseline);
}

/// N readers + 1 writer race on a live index. Run under the TSan CI job,
/// this is the gate on the RCU-style snapshot swap; the invariant checks
/// catch torn or stale-beyond-one-publish reads on any build. Parameterized
/// by reader count: the 4-reader shape approximates the historical serving
/// mix, the 64-reader shape oversubscribes every core so the scheduler
/// preempts readers mid-query and parks them across many publishes.
void RunConcurrentReadersSingleWriterStress(unsigned num_readers,
                                            uint64_t query_target) {
  // Pre-generate realistic period batches off-thread.
  gen::GeneratorConfig config;
  config.seed = 55;
  gen::TweetGenerator generator(config);
  constexpr int kPeriods = 40;
  std::vector<std::vector<JaccardEstimate>> periods;
  for (int p = 0; p < kPeriods; ++p) {
    SubsetCounterTable counters;
    for (int d = 0; d < 1500; ++d) counters.Observe(generator.Next().tags);
    periods.push_back(counters.ReportAll(2));
  }
  // Fixed probe set: present from the first period on (the generator's
  // topic structure keeps hot pairs recurring, but presence is only
  // guaranteed for period 0's own sets — probe those).
  ASSERT_FALSE(periods[0].empty());
  std::vector<TagSet> probes;
  for (size_t i = 0; i < periods[0].size() && probes.size() < 32; i += 7) {
    probes.push_back(periods[0][i].tags);
  }

  CorrelationIndex index;
  index.ApplyPeriod(0, periods[0]);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> queries{0};

  auto read_loop = [&](unsigned seed) {
    CorrelationIndex::Reader reader = index.NewReader();
    std::vector<ScoredSet> results;
    std::vector<Timestamp> last_period(probes.size(), -1);
    // Epochs are stamped per shard at rebuild time, so monotonicity is
    // only guaranteed when re-reading the same shard — track per probe.
    std::vector<uint64_t> last_epoch(probes.size(), 0);
    uint64_t local_queries = 0;
    uint64_t rng = seed * 0x9E3779B97F4A7C15ull + 1;
    while (!done.load(std::memory_order_relaxed)) {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      const size_t which = static_cast<size_t>(rng) % probes.size();
      const std::optional<LookupResult> hit = reader.Lookup(probes[which]);
      ++local_queries;
      if (hit.has_value()) {
        // Values are never torn and freshness never goes backwards.
        if (hit->coefficient < 0.0 || hit->coefficient > 1.0 ||
            hit->intersection_count > hit->union_count ||
            hit->period_end < last_period[which] ||
            hit->epoch < last_epoch[which]) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        last_period[which] = hit->period_end;
        last_epoch[which] = hit->epoch;
      }
      const TagId tag = probes[which][0];
      const size_t n = reader.TopCorrelated(tag, 8, &results);
      ++local_queries;
      for (size_t i = 1; i < n; ++i) {
        if (results[i - 1].coefficient < results[i].coefficient) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if ((local_queries & 0xFF) == 0) {
        queries.fetch_add(256, std::memory_order_relaxed);
      }
    }
    queries.fetch_add(local_queries & 0xFF, std::memory_order_relaxed);
  };

  std::vector<std::thread> readers;
  for (unsigned r = 0; r < num_readers; ++r) {
    readers.emplace_back(read_loop, r + 1);
  }
  for (int p = 1; p < kPeriods; ++p) {
    index.ApplyPeriod(static_cast<Timestamp>(p) * 1000, periods[p]);
  }
  // On a loaded single-core box the writer can burn through every period
  // before a reader thread is even scheduled. Keep the writer *publishing*
  // until the readers have demonstrably raced it: each churn apply adds a
  // fresh sentinel set in the newest period (same period_end, so retention
  // is untouched), which dirties a shard and forces a real snapshot swap.
  // Sentinels use a private tag range and are filtered out of the final
  // bit-identical comparison below.
  constexpr TagId kSentinelBase = 1u << 20;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  TagId sentinel = kSentinelBase;
  while (queries.load(std::memory_order_relaxed) < query_target &&
         std::chrono::steady_clock::now() < deadline) {
    index.ApplyPeriod(static_cast<Timestamp>(kPeriods - 1) * 1000,
                      {Estimate({sentinel, sentinel + 1}, 0.5, 5, 10)});
    sentinel += 2;
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(queries.load(), 0u);

  // The raced index ends bit-identical to a sequential replay (modulo the
  // churn sentinels, which live in their own tag range).
  CorrelationIndex reference;
  for (int p = 0; p < kPeriods; ++p) {
    reference.ApplyPeriod(static_cast<Timestamp>(p) * 1000, periods[p]);
  }
  CorrelationIndex::Reader raced = index.NewReader();
  CorrelationIndex::Reader expected = reference.NewReader();
  std::vector<ScoredSet> raced_all;
  std::vector<ScoredSet> expected_all;
  raced.Snapshot(0.0, &raced_all);
  expected.Snapshot(0.0, &expected_all);
  std::erase_if(raced_all, [](const ScoredSet& scored) {
    return scored.tags[0] >= kSentinelBase;
  });
  ASSERT_EQ(raced_all.size(), expected_all.size());
  for (size_t i = 0; i < raced_all.size(); ++i) {
    EXPECT_EQ(raced_all[i].tags, expected_all[i].tags);
    EXPECT_EQ(raced_all[i].coefficient, expected_all[i].coefficient);
    EXPECT_EQ(raced_all[i].period_end, expected_all[i].period_end);
  }
}

TEST(CorrelationIndex, ConcurrentReadersSingleWriterStayCoherent) {
  RunConcurrentReadersSingleWriterStress(/*num_readers=*/4,
                                         /*query_target=*/20000);
}

/// The serving-tier shape: 64 reader threads (far past core count) racing
/// one publisher. Oversubscription forces preemption inside Lookup and
/// TopCorrelated, so reader caches go stale across many epochs before
/// being touched again — the worst case for the version-counter refresh.
TEST(CorrelationIndex, SixtyFourConcurrentReadersSingleWriterStayCoherent) {
  RunConcurrentReadersSingleWriterStress(/*num_readers=*/64,
                                         /*query_target=*/60000);
}

}  // namespace
}  // namespace corrtrack::serve
