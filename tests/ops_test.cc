#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/tweet_generator.h"
#include "ops/calculator_op.h"
#include "ops/centralized.h"
#include "ops/disseminator_op.h"
#include "ops/merger_op.h"
#include "ops/parser.h"
#include "ops/partitioner_op.h"
#include "ops/source.h"
#include "ops/topology_builder.h"
#include "ops/tracker_op.h"
#include "stream/simulation.h"
#include "telemetry/pipeline_telemetry.h"

namespace corrtrack::ops {
namespace {

using stream::Emitter;
using stream::Envelope;

/// Emitter that records everything for operator-level unit tests.
class CapturingEmitter : public Emitter<Message> {
 public:
  void Emit(Message msg) override { emitted.push_back(std::move(msg)); }
  void EmitDirect(int instance, Message msg) override {
    direct.emplace_back(instance, std::move(msg));
  }
  Timestamp now() const override { return now_value; }

  template <typename T>
  std::vector<T> All() const {
    std::vector<T> out;
    for (const Message& m : emitted) {
      if (const T* typed = std::get_if<T>(&m)) out.push_back(*typed);
    }
    return out;
  }

  std::vector<Message> emitted;
  std::vector<std::pair<int, Message>> direct;
  Timestamp now_value = 0;
};

Envelope<Message> Env(Message msg, Timestamp time = 0) {
  Envelope<Message> env;
  env.set_payload(std::move(msg));
  env.time = time;
  return env;
}

RawTweet Tweet(DocId id, Timestamp time, std::string text) {
  RawTweet t;
  t.id = id;
  t.time = time;
  t.text = std::move(text);
  return t;
}

TEST(ParserBolt, ExtractsHashtags) {
  ParserBolt parser;
  const auto tags = parser.ExtractTags("hello #World_1 and #abc!#d");
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_EQ(parser.dictionary().Name(tags[0]), "World_1");
  EXPECT_EQ(parser.dictionary().Name(tags[1]), "abc");
  EXPECT_EQ(parser.dictionary().Name(tags[2]), "d");
}

TEST(ParserBolt, IgnoresBareHashAndInternsConsistently) {
  ParserBolt parser;
  EXPECT_TRUE(parser.ExtractTags("# # nothing ##").empty());
  const auto first = parser.ExtractTags("#tag");
  const auto second = parser.ExtractTags("again #tag");
  EXPECT_EQ(first, second);
}

TEST(ParserBolt, EmitsParsedDocAndDropsUntagged) {
  ParserBolt parser;
  CapturingEmitter emitter;
  parser.Execute(Env(Message(Tweet(1, 100, "x #a #b")), 100), emitter);
  parser.Execute(Env(Message(Tweet(2, 200, "no tags")), 200), emitter);
  const auto parsed = emitter.All<ParsedDoc>();
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].doc.id, 1u);
  EXPECT_EQ(parsed[0].doc.time, 100);
  EXPECT_EQ(parsed[0].doc.tags.size(), 2u);

  // More distinct tags than subset enumeration supports: dropped, and the
  // tags only it introduced are forgotten (a repeat still counts once).
  std::string hostile = "#a #a";
  for (int t = 0; t < kMaxTagsPerDocument; ++t) {
    hostile += " #h" + std::to_string(t);
  }
  parser.Execute(Env(Message(Tweet(3, 300, hostile)), 300), emitter);
  EXPECT_EQ(emitter.All<ParsedDoc>().size(), 1u);
  EXPECT_EQ(parser.dictionary().size(), 2u);  // Just #a and #b.
  EXPECT_FALSE(parser.dictionary().Find("h0").has_value());
}

TEST(ParserBolt, TagDictionaryGaugeTracksInterning) {
  telemetry::PipelineTelemetry telemetry;
  ParserBolt parser(&telemetry);
  CapturingEmitter emitter;
  EXPECT_EQ(telemetry.tag_dictionary_size->value(), 0.0);
  parser.Execute(Env(Message(Tweet(1, 100, "x #a #b")), 100), emitter);
  EXPECT_EQ(telemetry.tag_dictionary_size->value(), 2.0);
  parser.Execute(Env(Message(Tweet(2, 200, "#a again")), 200), emitter);
  EXPECT_EQ(telemetry.tag_dictionary_size->value(), 2.0);
  parser.Execute(Env(Message(Tweet(3, 300, "#c #a")), 300), emitter);
  EXPECT_EQ(telemetry.tag_dictionary_size->value(), 3.0);

  // A document dropped for too many tags rolls its new tags back and
  // leaves the gauge where it was.
  std::string hostile = "#a";
  for (int t = 0; t < kMaxTagsPerDocument; ++t) {
    hostile += " #h" + std::to_string(t);
  }
  parser.Execute(Env(Message(Tweet(4, 400, hostile)), 400), emitter);
  EXPECT_EQ(telemetry.docs_rejected_too_many_tags->value(), 1u);
  EXPECT_EQ(telemetry.tag_dictionary_size->value(), 3.0);
  EXPECT_EQ(parser.dictionary().size(), 3u);
}

TEST(ParserBolt, MutatedTextsNeverAbort) {
  // Seeded fuzz of the tokenizer: generated tweet texts with random bytes,
  // runs of '#', non-ASCII bytes and 17+ extra tags spliced in. Every
  // document is either emitted with 1..kMaxTagsPerDocument interned tags
  // or dropped without growing the dictionary — never an abort, and never
  // an OOB read (ASan job).
  gen::GeneratorConfig config;
  config.seed = 11;
  gen::TweetGenerator g(config);
  std::vector<std::string> texts;
  for (int i = 0; i < 64; ++i) {
    texts.push_back(gen::TweetGenerator::RenderText(g.Next()));
  }
  const std::string kInteresting("#@_ \t\n\0\x80\xc3\xa9\xff", 12);
  std::mt19937 rng(20141024);
  ParserBolt parser;
  size_t emitted = 0;
  size_t rejected = 0;
  for (int round = 0; round < 20000; ++round) {
    std::string text = texts[rng() % texts.size()];
    const int mutations = 1 + static_cast<int>(rng() % 4);
    for (int m = 0; m < mutations; ++m) {
      const size_t at = rng() % (text.size() + 1);
      switch (rng() % 5) {
        case 0:  // Random byte.
          text.insert(at, 1, static_cast<char>(rng() % 256));
          break;
        case 1:  // Delimiter, '#', or a non-ASCII byte.
          text.insert(at, 1, kInteresting[rng() % kInteresting.size()]);
          break;
        case 2:  // A run of '#'.
          text.insert(at, 1 + rng() % 20, '#');
          break;
        case 3: {  // 17 or more fresh tags (some repeated).
          std::string tags;
          const int n =
              kMaxTagsPerDocument + 1 + static_cast<int>(rng() % 8);
          for (int t = 0; t < n; ++t) {
            tags += " #f" + std::to_string(rng() % 64);
          }
          text.insert(at, tags);
          break;
        }
        default:
          if (at < text.size()) text.erase(at, 1);
          break;
      }
    }
    CapturingEmitter emitter;
    const size_t before = parser.dictionary().size();
    const RawTweet tweet = Tweet(static_cast<DocId>(round), round, text);
    parser.Execute(Env(Message(tweet), round), emitter);
    const auto parsed = emitter.All<ParsedDoc>();
    ASSERT_LE(parsed.size(), 1u);
    if (parsed.empty()) {
      ++rejected;
      ASSERT_EQ(parser.dictionary().size(), before) << text;
      continue;
    }
    ++emitted;
    const TagSet& tags = parsed[0].doc.tags;
    ASSERT_GE(tags.size(), 1u);
    ASSERT_LE(tags.size(), static_cast<size_t>(kMaxTagsPerDocument)) << text;
    for (TagId tag : tags) {
      ASSERT_LT(static_cast<size_t>(tag), parser.dictionary().size());
    }
  }
  // Both outcomes were exercised.
  EXPECT_GT(emitted, 1000u);
  EXPECT_GT(rejected, 1000u);
}

PipelineConfig SmallConfig() {
  PipelineConfig config;
  config.algorithm = AlgorithmKind::kDS;
  config.num_calculators = 2;
  config.num_partitioners = 1;
  config.window_span = 1000;
  config.report_period = 1000;
  config.bootstrap_time = 100;
  config.quality_batch_size = 10;
  config.repartition_latency_docs = 0;
  return config;
}

ParsedDoc MakeDoc(DocId id, Timestamp time, std::vector<TagId> tags) {
  ParsedDoc parsed;
  parsed.doc.id = id;
  parsed.doc.time = time;
  parsed.doc.tags = TagSet(tags);
  return parsed;
}

TEST(BuildCorrelationTopologyDeathTest, RejectsMoreThan64Calculators) {
  // The Disseminator routes with one bit per Calculator, so a config past
  // the mask fails when the topology is built, not at the first install.
  const auto build = [](int num_calculators, int max_calculators) {
    PipelineConfig config;
    config.num_calculators = num_calculators;
    config.max_calculators = max_calculators;
    stream::Topology<Message> topology;
    BuildCorrelationTopology(
        &topology,
        std::make_unique<GeneratorSpout>(gen::GeneratorConfig{}, 1), config,
        /*metrics=*/nullptr, /*with_centralized_baseline=*/false);
  };
  EXPECT_DEATH(build(PartitionSet::kMaxPartitions + 1, 0), "kMaxPartitions");
  EXPECT_DEATH(build(4, PartitionSet::kMaxPartitions + 1), "kMaxPartitions");
  build(PartitionSet::kMaxPartitions, 0);
}

TEST(BuildCorrelationTopologyDeathTest, RejectsAdditiveMergeWithReplication) {
  // Summing partial reports is exact only over disjoint partitions: the
  // tag-replicating algorithms are refused when the topology is built,
  // not when a Calculator's report aborts.
  const auto build = [](AlgorithmKind algorithm, EstimateMerge merge) {
    PipelineConfig config;
    config.algorithm = algorithm;
    config.tracker_merge = merge;
    stream::Topology<Message> topology;
    BuildCorrelationTopology(
        &topology,
        std::make_unique<GeneratorSpout>(gen::GeneratorConfig{}, 1), config,
        /*metrics=*/nullptr, /*with_centralized_baseline=*/false);
  };
  for (const AlgorithmKind algorithm :
       {AlgorithmKind::kSCC, AlgorithmKind::kSCL, AlgorithmKind::kSCI}) {
    EXPECT_DEATH(build(algorithm, EstimateMerge::kAdditive),
                 "additive_on_disjoint");
    build(algorithm, EstimateMerge::kMaxCN);
  }
  build(AlgorithmKind::kDS, EstimateMerge::kAdditive);
}

TEST(PartitionerBolt, ProposesFromWindowOnRequest) {
  const PipelineConfig config = SmallConfig();
  PartitionerBolt partitioner(config, /*instance=*/3);
  CapturingEmitter emitter;
  partitioner.Execute(Env(Message(MakeDoc(1, 10, {1, 2}))), emitter);
  partitioner.Execute(Env(Message(MakeDoc(2, 20, {3}))), emitter);
  EXPECT_TRUE(emitter.emitted.empty());  // Docs only fill the window.
  EXPECT_EQ(partitioner.window_size(), 2u);

  RepartitionRequest request;
  request.token = 5;
  partitioner.Execute(Env(Message(request)), emitter);
  const auto proposals = emitter.All<PartitionProposal>();
  ASSERT_EQ(proposals.size(), 1u);
  EXPECT_EQ(proposals[0].token, 5u);
  EXPECT_EQ(proposals[0].partitioner, 3);
  // DS proposes its disjoint sets: {1,2} and {3}.
  ASSERT_EQ(proposals[0].fragments.size(), 2u);
  EXPECT_EQ(proposals[0].window_tagsets.size(), 2u);
}

TEST(PartitionerBolt, DuplicateTokenIgnored) {
  const PipelineConfig config = SmallConfig();
  PartitionerBolt partitioner(config, 0);
  CapturingEmitter emitter;
  partitioner.Execute(Env(Message(MakeDoc(1, 10, {1}))), emitter);
  RepartitionRequest request;
  request.token = 1;
  partitioner.Execute(Env(Message(request)), emitter);
  partitioner.Execute(Env(Message(request)), emitter);
  EXPECT_EQ(emitter.All<PartitionProposal>().size(), 1u);
  request.token = 2;
  partitioner.Execute(Env(Message(request)), emitter);
  EXPECT_EQ(emitter.All<PartitionProposal>().size(), 2u);
}

TEST(PartitionerBolt, WindowEvictsOldDocuments) {
  const PipelineConfig config = SmallConfig();  // 1000 ms span.
  PartitionerBolt partitioner(config, 0);
  CapturingEmitter emitter;
  partitioner.Execute(Env(Message(MakeDoc(1, 0, {1, 2}))), emitter);
  partitioner.Execute(Env(Message(MakeDoc(2, 2000, {3, 4}))), emitter);
  RepartitionRequest request;
  request.token = 9;
  partitioner.Execute(Env(Message(request)), emitter);
  const auto proposals = emitter.All<PartitionProposal>();
  ASSERT_EQ(proposals.size(), 1u);
  // Only {3,4} remains in the window.
  ASSERT_EQ(proposals[0].fragments.size(), 1u);
  EXPECT_TRUE(proposals[0].fragments[0].tags.Contains(3));
}

PartitionProposal Proposal(uint32_t token, int partitioner,
                           std::vector<std::pair<TagSet, uint64_t>> frags) {
  PartitionProposal p;
  p.token = token;
  p.partitioner = partitioner;
  for (auto& [tags, load] : frags) {
    PartitionFragment fragment;
    fragment.tags = tags;
    fragment.load = load;
    p.fragments.push_back(fragment);
    p.window_tagsets.emplace_back(tags, load);
  }
  return p;
}

TEST(MergerBolt, WaitsForAllProposals) {
  PipelineConfig config = SmallConfig();
  config.num_partitioners = 2;
  MergerBolt merger(config, nullptr);
  CapturingEmitter emitter;
  merger.Execute(
      Env(Message(Proposal(1, 0, {{TagSet({1, 2}), 5}}))), emitter);
  EXPECT_TRUE(emitter.All<FinalPartitions>().empty());
  merger.Execute(
      Env(Message(Proposal(1, 1, {{TagSet({3, 4}), 3}}))), emitter);
  const auto finals = emitter.All<FinalPartitions>();
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_EQ(finals[0].epoch, 1u);
  ASSERT_NE(finals[0].partitions, nullptr);
  EXPECT_TRUE(
      finals[0].partitions->CoveringPartition(TagSet({1, 2})).has_value());
  EXPECT_TRUE(
      finals[0].partitions->CoveringPartition(TagSet({3, 4})).has_value());
  // DS over two disjoint fragments into k=2: zero replication, reference
  // avgCom exactly 1.
  EXPECT_DOUBLE_EQ(finals[0].avg_com, 1.0);
  EXPECT_NEAR(finals[0].max_load, 5.0 / 8.0, 1e-12);
}

TEST(MergerBolt, MergesOverlappingDsFragments) {
  PipelineConfig config = SmallConfig();
  config.num_partitioners = 2;
  MergerBolt merger(config, nullptr);
  CapturingEmitter emitter;
  // Fragments {1,2} and {2,3} overlap -> one merged disjoint set.
  merger.Execute(Env(Message(Proposal(1, 0, {{TagSet({1, 2}), 2}}))),
                 emitter);
  merger.Execute(Env(Message(Proposal(1, 1, {{TagSet({2, 3}), 2}}))),
                 emitter);
  const auto finals = emitter.All<FinalPartitions>();
  ASSERT_EQ(finals.size(), 1u);
  const int p1 = *finals[0].partitions->CoveringPartition(TagSet({1, 2}));
  const int p2 = *finals[0].partitions->CoveringPartition(TagSet({2, 3}));
  EXPECT_EQ(p1, p2);
  EXPECT_TRUE(finals[0].partitions->IsDisjoint());
}

TEST(MergerBolt, SingleAdditionPlacesAndConfirms) {
  PipelineConfig config = SmallConfig();
  config.num_partitioners = 1;
  MergerBolt merger(config, nullptr);
  CapturingEmitter emitter;
  merger.Execute(Env(Message(Proposal(
                     1, 0, {{TagSet({1, 2}), 5}, {TagSet({7}), 1}}))),
                 emitter);
  ASSERT_EQ(merger.current_epoch(), 1u);

  UncoveredTagset uncovered;
  uncovered.tags = TagSet({2, 7});
  uncovered.epoch = 1;
  merger.Execute(Env(Message(uncovered)), emitter);
  const auto decisions = emitter.All<SingleAdditionDecision>();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].epoch, 1u);
  EXPECT_EQ(merger.single_additions(), 1u);
  EXPECT_TRUE(merger.current_partitions()
                  ->CoveringPartition(TagSet({2, 7}))
                  .has_value());

  // A stale-epoch request is dropped.
  uncovered.epoch = 0;
  merger.Execute(Env(Message(uncovered)), emitter);
  EXPECT_EQ(emitter.All<SingleAdditionDecision>().size(), 1u);

  // Re-request of a now-covered tagset confirms without a new addition.
  uncovered.epoch = 1;
  merger.Execute(Env(Message(uncovered)), emitter);
  EXPECT_EQ(emitter.All<SingleAdditionDecision>().size(), 2u);
  EXPECT_EQ(merger.single_additions(), 1u);
}

TEST(MergerBolt, BroadcastsPartitionsInCompletionOrder) {
  // Two repartition rounds with interleaved proposals: each round's
  // FinalPartitions must broadcast exactly once, with epochs assigned in
  // completion order (round 1 completes before round 2 here, despite round
  // 2's first proposal arriving in between), and each broadcast must carry
  // that round's own fragments.
  PipelineConfig config = SmallConfig();
  config.num_partitioners = 2;
  MergerBolt merger(config, nullptr);
  CapturingEmitter emitter;
  merger.Execute(Env(Message(Proposal(1, 0, {{TagSet({1, 2}), 4}}))),
                 emitter);
  merger.Execute(Env(Message(Proposal(2, 0, {{TagSet({5, 6}), 4}}))),
                 emitter);
  EXPECT_TRUE(emitter.All<FinalPartitions>().empty());
  merger.Execute(Env(Message(Proposal(1, 1, {{TagSet({3, 4}), 4}}))),
                 emitter);
  merger.Execute(Env(Message(Proposal(2, 1, {{TagSet({7, 8}), 4}}))),
                 emitter);
  const auto finals = emitter.All<FinalPartitions>();
  ASSERT_EQ(finals.size(), 2u);
  EXPECT_EQ(finals[0].epoch, 1u);
  EXPECT_EQ(finals[1].epoch, 2u);
  EXPECT_TRUE(
      finals[0].partitions->CoveringPartition(TagSet({1, 2})).has_value());
  EXPECT_FALSE(
      finals[0].partitions->CoveringPartition(TagSet({5, 6})).has_value());
  EXPECT_TRUE(
      finals[1].partitions->CoveringPartition(TagSet({5, 6})).has_value());
  // The merger's own master state tracks the *latest* broadcast.
  EXPECT_EQ(merger.current_epoch(), 2u);
  EXPECT_TRUE(merger.current_partitions()
                  ->CoveringPartition(TagSet({7, 8}))
                  .has_value());
}

TEST(MergerBolt, BroadcastPartitionsAreImmutableAcrossEpochs) {
  // The broadcast shares the PartitionSet by shared_ptr with every
  // Disseminator instance; a later epoch (or a Single Addition mutating
  // the merger's master copy) must never alter an already-broadcast set.
  PipelineConfig config = SmallConfig();
  config.num_partitioners = 1;
  MergerBolt merger(config, nullptr);
  CapturingEmitter emitter;
  merger.Execute(Env(Message(Proposal(1, 0, {{TagSet({1, 2}), 3}}))),
                 emitter);
  const auto first = emitter.All<FinalPartitions>();
  ASSERT_EQ(first.size(), 1u);
  const std::shared_ptr<const PartitionSet> epoch1 = first[0].partitions;

  UncoveredTagset uncovered;
  uncovered.tags = TagSet({2, 9});
  uncovered.epoch = 1;
  merger.Execute(Env(Message(uncovered)), emitter);
  merger.Execute(Env(Message(Proposal(2, 0, {{TagSet({5, 6}), 3}}))),
                 emitter);
  const auto finals = emitter.All<FinalPartitions>();
  ASSERT_EQ(finals.size(), 2u);
  EXPECT_NE(finals[1].partitions.get(), epoch1.get());
  // Epoch 1's broadcast still describes epoch 1: the Single Addition went
  // into the merger's master copy, not the shared snapshot.
  EXPECT_FALSE(epoch1->CoveringPartition(TagSet({2, 9})).has_value());
  EXPECT_TRUE(epoch1->CoveringPartition(TagSet({1, 2})).has_value());
}

/// PeriodSink probe: records every forwarded batch.
class RecordingPeriodSink : public PeriodSink {
 public:
  void OnPeriodResults(
      Timestamp period_end,
      const std::vector<JaccardEstimate>& estimates) override {
    calls.emplace_back(period_end, estimates);
  }

  std::vector<std::pair<Timestamp, std::vector<JaccardEstimate>>> calls;
};

TEST(TrackerBolt, ForwardsEveryReportToPeriodSink) {
  RecordingPeriodSink sink;
  TrackerBolt tracker(&sink);
  CapturingEmitter emitter;
  JaccardReport report;
  report.calculator = 0;
  report.period_end = 500;
  JaccardEstimate e;
  e.tags = TagSet({1, 2});
  e.coefficient = 0.5;
  e.intersection_count = 4;
  e.union_count = 8;
  report.estimates.push_back(e);
  tracker.Execute(Env(Message(report)), emitter);
  report.calculator = 1;
  report.period_end = 1000;
  tracker.Execute(Env(Message(report)), emitter);
  // A second report of period 1000: {1,2} loses the max-CN merge and is
  // dropped, {1,3} is new, {2,3} appears twice and wins the second time.
  report.calculator = 2;
  report.estimates.clear();
  e.intersection_count = 3;
  report.estimates.push_back(e);
  e.tags = TagSet({1, 3});
  report.estimates.push_back(e);
  e.tags = TagSet({2, 3});
  report.estimates.push_back(e);
  e.intersection_count = 6;
  report.estimates.push_back(e);
  tracker.Execute(Env(Message(report)), emitter);
  // Nothing changes: the sink still gets its one call.
  report.estimates = {report.estimates[0]};
  tracker.Execute(Env(Message(report)), emitter);

  // One call per report, after the merge: the settled values of the
  // tagsets the report changed, in report order.
  ASSERT_EQ(sink.calls.size(), 4u);
  EXPECT_EQ(sink.calls[0].first, 500);
  EXPECT_EQ(sink.calls[1].first, 1000);
  ASSERT_EQ(sink.calls[0].second.size(), 1u);
  EXPECT_EQ(sink.calls[0].second[0].tags, TagSet({1, 2}));
  EXPECT_EQ(sink.calls[0].second[0].intersection_count, 4u);
  const std::vector<JaccardEstimate>& changed = sink.calls[2].second;
  ASSERT_EQ(changed.size(), 3u);
  EXPECT_EQ(changed[0].tags, TagSet({1, 3}));
  EXPECT_EQ(changed[1].tags, TagSet({2, 3}));
  EXPECT_EQ(changed[1].intersection_count, 3u);
  EXPECT_EQ(changed[2].tags, TagSet({2, 3}));
  EXPECT_EQ(changed[2].intersection_count, 6u);
  EXPECT_EQ(sink.calls[3].first, 1000);
  EXPECT_TRUE(sink.calls[3].second.empty());
}

TEST(TrackerBolt, ForwardsSettledAdditiveSums) {
  // Under the additive merge the sink gets the running sum, not the
  // partial report.
  RecordingPeriodSink sink;
  TrackerBolt tracker(&sink, EstimateMerge::kAdditive);
  CapturingEmitter emitter;
  JaccardReport report;
  report.period_end = 500;
  JaccardEstimate e;
  e.tags = TagSet({1, 2});
  e.coefficient = 0.5;
  e.intersection_count = 1;
  e.union_count = 2;
  report.estimates.push_back(e);
  tracker.Execute(Env(Message(report)), emitter);
  report.estimates[0].intersection_count = 2;
  report.estimates[0].union_count = 6;
  report.estimates[0].coefficient = 2.0 / 6.0;
  tracker.Execute(Env(Message(report)), emitter);
  ASSERT_EQ(sink.calls.size(), 2u);
  ASSERT_EQ(sink.calls[1].second.size(), 1u);
  const JaccardEstimate& settled = sink.calls[1].second[0];
  EXPECT_EQ(settled.intersection_count, 3u);
  EXPECT_EQ(settled.union_count, 8u);
  EXPECT_EQ(settled.coefficient, 3.0 / 8.0);
  EXPECT_EQ(settled.coefficient,
            tracker.periods().at(500).at(TagSet({1, 2})).coefficient);
}

TEST(CentralizedBolt, ForwardsPeriodToSinkOnTick) {
  RecordingPeriodSink sink;
  PipelineConfig config = SmallConfig();  // sn = 3.
  CentralizedBolt baseline(config, &sink);
  CapturingEmitter emitter;
  for (int i = 0; i < 5; ++i) {
    baseline.Execute(Env(Message(MakeDoc(1, 10, {1, 2}))), emitter);
  }
  baseline.OnTick(1000, emitter);
  ASSERT_EQ(sink.calls.size(), 1u);
  EXPECT_EQ(sink.calls[0].first, 1000);
  ASSERT_EQ(sink.calls[0].second.size(), 1u);
  EXPECT_EQ(sink.calls[0].second[0].tags, TagSet({1, 2}));
  EXPECT_EQ(sink.calls[0].second[0].intersection_count, 5u);
  // The forwarded batch is exactly the period map the bolt keeps.
  EXPECT_EQ(baseline.periods().at(1000).size(), 1u);
}

TEST(CalculatorBolt, CountsNotificationsAndReportsOnTick) {
  CalculatorBolt calculator(SmallConfig(), /*instance=*/4);
  CapturingEmitter emitter;
  Notification n;
  n.tags = TagSet({1, 2});
  for (int i = 0; i < 3; ++i) {
    calculator.Execute(Env(Message(n)), emitter);
  }
  n.tags = TagSet({1});
  calculator.Execute(Env(Message(n)), emitter);
  calculator.OnTick(1000, emitter);
  const auto reports = emitter.All<JaccardReport>();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].calculator, 4);
  EXPECT_EQ(reports[0].period_end, 1000);
  ASSERT_EQ(reports[0].estimates.size(), 1u);  // Only {1,2} (size >= 2).
  EXPECT_EQ(reports[0].estimates[0].intersection_count, 3u);
  EXPECT_EQ(reports[0].estimates[0].union_count, 4u);
  EXPECT_NEAR(reports[0].estimates[0].coefficient, 0.75, 1e-12);
  // Counters reset: an empty period emits nothing.
  calculator.OnTick(2000, emitter);
  EXPECT_EQ(emitter.All<JaccardReport>().size(), 1u);
}

TEST(TrackerBolt, KeepsMaxCounterPerPeriod) {
  TrackerBolt tracker;
  CapturingEmitter emitter;
  JaccardReport report;
  report.calculator = 0;
  report.period_end = 500;
  JaccardEstimate e;
  e.tags = TagSet({1, 2});
  e.coefficient = 0.5;
  e.intersection_count = 4;
  report.estimates.push_back(e);
  tracker.Execute(Env(Message(report)), emitter);

  // A second calculator reports the same tagset with a longer-tracked
  // counter; it must win (§6.2).
  report.calculator = 1;
  report.estimates[0].coefficient = 0.6;
  report.estimates[0].intersection_count = 9;
  tracker.Execute(Env(Message(report)), emitter);

  // And a shorter-tracked one must not displace it.
  report.calculator = 2;
  report.estimates[0].coefficient = 0.1;
  report.estimates[0].intersection_count = 2;
  tracker.Execute(Env(Message(report)), emitter);

  const auto& periods = tracker.periods();
  ASSERT_EQ(periods.size(), 1u);
  const auto& results = periods.at(500);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_DOUBLE_EQ(results.at(TagSet({1, 2})).coefficient, 0.6);
  EXPECT_EQ(results.at(TagSet({1, 2})).intersection_count, 9u);
}

TEST(TrackerBolt, SeparatesPeriods) {
  TrackerBolt tracker;
  CapturingEmitter emitter;
  JaccardReport report;
  JaccardEstimate e;
  e.tags = TagSet({1, 2});
  e.intersection_count = 1;
  report.estimates.push_back(e);
  report.period_end = 100;
  tracker.Execute(Env(Message(report)), emitter);
  report.period_end = 200;
  tracker.Execute(Env(Message(report)), emitter);
  EXPECT_EQ(tracker.periods().size(), 2u);
}

TEST(CentralizedBolt, FiltersBySupportThreshold) {
  PipelineConfig config = SmallConfig();  // sn = 3.
  CentralizedBolt baseline(config);
  CapturingEmitter emitter;
  for (int i = 0; i < 4; ++i) {
    baseline.Execute(Env(Message(MakeDoc(1, 10, {1, 2}))), emitter);
  }
  for (int i = 0; i < 3; ++i) {
    baseline.Execute(Env(Message(MakeDoc(2, 20, {3, 4}))), emitter);
  }
  baseline.OnTick(1000, emitter);
  const auto& results = baseline.periods().at(1000);
  // {1,2} seen 4 times (> 3) is in; {3,4} seen 3 times (not > 3) is out.
  EXPECT_EQ(results.size(), 1u);
  EXPECT_TRUE(results.count(TagSet({1, 2})));
}

TEST(DisseminatorBolt, BootstrapRequestsInitialPartitions) {
  PipelineConfig config = SmallConfig();
  DisseminatorBolt disseminator(config, nullptr);
  disseminator.Prepare({0, 0}, 1);
  CapturingEmitter emitter;
  // Before bootstrap_time: nothing.
  disseminator.Execute(Env(Message(MakeDoc(1, 50, {1})), 50), emitter);
  EXPECT_TRUE(emitter.All<RepartitionRequest>().empty());
  // At bootstrap_time: exactly one initial request (cause 0).
  disseminator.Execute(Env(Message(MakeDoc(2, 150, {1})), 150), emitter);
  disseminator.Execute(Env(Message(MakeDoc(3, 160, {1})), 160), emitter);
  const auto requests = emitter.All<RepartitionRequest>();
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].cause, 0);
  EXPECT_FALSE(disseminator.has_partitions());
}

FinalPartitions MakeFinal(Epoch epoch,
                          std::vector<std::pair<int, TagSet>> parts, int k,
                          double avg_com, double max_load) {
  PartitionSet ps(k);
  for (auto& [p, tags] : parts) ps.AddTags(p, tags);
  FinalPartitions final;
  final.epoch = epoch;
  final.partitions = std::make_shared<const PartitionSet>(std::move(ps));
  final.avg_com = avg_com;
  final.max_load = max_load;
  return final;
}

TEST(DisseminatorBolt, RoutesNotificationsDirectly) {
  PipelineConfig config = SmallConfig();
  DisseminatorBolt disseminator(config, nullptr);
  disseminator.Prepare({0, 0}, 1);
  CapturingEmitter emitter;
  disseminator.Execute(
      Env(Message(MakeFinal(1, {{0, TagSet({1, 2})}, {1, TagSet({2, 3})}},
                            2, 1.5, 0.5))),
      emitter);
  EXPECT_TRUE(disseminator.has_partitions());

  disseminator.Execute(Env(Message(MakeDoc(9, 500, {1, 2, 3})), 500),
                       emitter);
  ASSERT_EQ(emitter.direct.size(), 2u);
  EXPECT_EQ(emitter.direct[0].first, 0);
  const auto* n0 = std::get_if<Notification>(&emitter.direct[0].second);
  ASSERT_NE(n0, nullptr);
  EXPECT_EQ(n0->tags, TagSet({1, 2}));
  const auto* n1 = std::get_if<Notification>(&emitter.direct[1].second);
  ASSERT_NE(n1, nullptr);
  EXPECT_EQ(n1->tags, TagSet({2, 3}));
}

TEST(DisseminatorBolt, SingleAdditionAfterSnSightings) {
  PipelineConfig config = SmallConfig();  // sn = 3.
  DisseminatorBolt disseminator(config, nullptr);
  disseminator.Prepare({0, 0}, 1);
  CapturingEmitter emitter;
  disseminator.Execute(
      Env(Message(MakeFinal(1, {{0, TagSet({1})}, {1, TagSet({2})}}, 2,
                            1.0, 0.5))),
      emitter);
  // {1,2} is covered by no partition; sightings 1 and 2 stay silent.
  disseminator.Execute(Env(Message(MakeDoc(1, 10, {1, 2}))), emitter);
  disseminator.Execute(Env(Message(MakeDoc(2, 20, {1, 2}))), emitter);
  EXPECT_TRUE(emitter.All<UncoveredTagset>().empty());
  // Third sighting triggers the request...
  disseminator.Execute(Env(Message(MakeDoc(3, 30, {1, 2}))), emitter);
  auto uncovered = emitter.All<UncoveredTagset>();
  ASSERT_EQ(uncovered.size(), 1u);
  EXPECT_EQ(uncovered[0].tags, TagSet({1, 2}));
  // ...and only once while awaiting the verdict.
  disseminator.Execute(Env(Message(MakeDoc(4, 40, {1, 2}))), emitter);
  EXPECT_EQ(emitter.All<UncoveredTagset>().size(), 1u);

  // The verdict updates the index: the next document routes in one piece.
  SingleAdditionDecision decision;
  decision.tags = TagSet({1, 2});
  decision.calculator = 1;
  decision.epoch = 1;
  emitter.direct.clear();
  disseminator.Execute(Env(Message(decision)), emitter);
  disseminator.Execute(Env(Message(MakeDoc(5, 50, {1, 2}))), emitter);
  std::set<int> targets;
  TagSet full;
  for (auto& [instance, msg] : emitter.direct) {
    targets.insert(instance);
    const auto* n = std::get_if<Notification>(&msg);
    ASSERT_NE(n, nullptr);
    full = full.Union(n->tags);
  }
  EXPECT_TRUE(targets.count(1));
  // Calculator 1 now receives the complete tagset.
  EXPECT_EQ(full, TagSet({1, 2}));
}

TEST(DisseminatorBolt, QualityViolationTriggersRepartition) {
  PipelineConfig config = SmallConfig();
  config.quality_batch_size = 5;
  config.repartition_threshold = 0.5;
  DisseminatorBolt disseminator(config, nullptr);
  disseminator.Prepare({0, 0}, 1);
  CapturingEmitter emitter;
  // Reference claims avgCom 1.0; tag 1 is replicated to both partitions,
  // so every {1} document costs 2 notifications -> violation at the first
  // full batch.
  disseminator.Execute(
      Env(Message(MakeFinal(1, {{0, TagSet({1})}, {1, TagSet({1})}}, 2,
                            1.0, 0.6))),
      emitter);
  for (int i = 0; i < 5; ++i) {
    disseminator.Execute(
        Env(Message(MakeDoc(static_cast<DocId>(i), 10 + i, {1}))), emitter);
  }
  const auto requests = emitter.All<RepartitionRequest>();
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].cause, kCauseCommunication);
  EXPECT_EQ(disseminator.repartitions_requested(), 1u);
  // No duplicate requests while one is pending.
  for (int i = 0; i < 5; ++i) {
    disseminator.Execute(
        Env(Message(MakeDoc(static_cast<DocId>(10 + i), 100, {1}))),
        emitter);
  }
  EXPECT_EQ(emitter.All<RepartitionRequest>().size(), 1u);
}

TEST(DisseminatorBolt, LoadViolationReportsLoadCause) {
  PipelineConfig config = SmallConfig();
  config.quality_batch_size = 4;
  config.repartition_threshold = 0.2;
  DisseminatorBolt disseminator(config, nullptr);
  disseminator.Prepare({0, 0}, 1);
  CapturingEmitter emitter;
  // Reference: perfectly balanced (max_load 0.5). All traffic hits
  // partition 0 only -> maxLoad' = 1.0 > 0.5 * 1.2.
  disseminator.Execute(
      Env(Message(MakeFinal(1, {{0, TagSet({1})}, {1, TagSet({2})}}, 2,
                            1.0, 0.5))),
      emitter);
  for (int i = 0; i < 4; ++i) {
    disseminator.Execute(
        Env(Message(MakeDoc(static_cast<DocId>(i), 10, {1}))), emitter);
  }
  const auto requests = emitter.All<RepartitionRequest>();
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].cause, kCauseLoad);
}

TEST(DisseminatorBolt, StaleFinalPartitionsIgnored) {
  PipelineConfig config = SmallConfig();
  DisseminatorBolt disseminator(config, nullptr);
  disseminator.Prepare({0, 0}, 1);
  CapturingEmitter emitter;
  disseminator.Execute(
      Env(Message(MakeFinal(2, {{0, TagSet({1})}}, 2, 1.0, 0.5))), emitter);
  EXPECT_EQ(disseminator.current_epoch(), 2u);
  disseminator.Execute(
      Env(Message(MakeFinal(1, {{0, TagSet({9})}}, 2, 1.0, 0.5))), emitter);
  EXPECT_EQ(disseminator.current_epoch(), 2u);
  EXPECT_TRUE(disseminator.partitions()->PartitionContains(0, 1));
}

TEST(DisseminatorBolt, CooldownSuppressesQualityAccounting) {
  PipelineConfig config = SmallConfig();
  config.quality_batch_size = 3;
  config.repartition_latency_docs = 5;
  DisseminatorBolt disseminator(config, nullptr);
  disseminator.Prepare({0, 0}, 1);
  CapturingEmitter emitter;
  disseminator.Execute(
      Env(Message(MakeFinal(1, {{0, TagSet({1})}, {1, TagSet({1})}}, 2,
                            1.0, 0.6))),
      emitter);
  // 5 cooldown docs + 2 batch docs: no violation yet despite comm = 2.
  for (int i = 0; i < 7; ++i) {
    disseminator.Execute(
        Env(Message(MakeDoc(static_cast<DocId>(i), 10, {1}))), emitter);
  }
  EXPECT_TRUE(emitter.All<RepartitionRequest>().empty());
  // The 8th document completes the batch -> violation.
  disseminator.Execute(Env(Message(MakeDoc(99, 10, {1}))), emitter);
  EXPECT_EQ(emitter.All<RepartitionRequest>().size(), 1u);
}

TEST(TrackerBolt, AdditiveMergeSumsDisjointPartials) {
  // Elastic resizes split one tagset's period across owners; the additive
  // policy must sum the disjoint partials and recompute the coefficient
  // the way the oracle computes it (CN / U), not keep the max.
  TrackerBolt tracker(nullptr, EstimateMerge::kAdditive);
  CapturingEmitter emitter;
  JaccardReport report;
  report.calculator = 0;
  report.epoch = 2;
  report.period_end = 500;
  JaccardEstimate e;
  e.tags = TagSet({1, 2});
  e.intersection_count = 4;
  e.union_count = 8;
  e.coefficient = 0.5;
  report.estimates.push_back(e);
  tracker.Execute(Env(Message(report)), emitter);

  report.calculator = 5;  // The retiring owner's quiesce flush.
  report.epoch = 3;
  report.estimates[0].intersection_count = 2;
  report.estimates[0].union_count = 4;
  report.estimates[0].coefficient = 0.5;
  tracker.Execute(Env(Message(report)), emitter);

  const auto& results = tracker.periods().at(500);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results.at(TagSet({1, 2})).intersection_count, 6u);
  EXPECT_EQ(results.at(TagSet({1, 2})).union_count, 12u);
  EXPECT_DOUBLE_EQ(results.at(TagSet({1, 2})).coefficient, 0.5);
  EXPECT_EQ(tracker.reports_received(), 2u);
  EXPECT_EQ(tracker.latest_epoch(), 3u);
}

TEST(CalculatorBolt, QuiesceHandsOffCountersAndResets) {
  // The install protocol's quiesce marker: the Calculator must export its
  // entire unreported counter table as a CounterHandoff (for the
  // Disseminator to re-route to the new owners) and reset.
  CalculatorBolt calculator(SmallConfig(), /*instance=*/1);
  CapturingEmitter emitter;
  Notification n;
  n.tags = TagSet({1, 2});
  n.epoch = 1;
  calculator.Execute(Env(Message(n), /*time=*/1100), emitter);
  calculator.Execute(Env(Message(n), /*time=*/1200), emitter);

  CalculatorQuiesce quiesce;
  quiesce.epoch = 2;
  calculator.Execute(Env(Message(quiesce), /*time=*/1300), emitter);

  const auto handoffs = emitter.All<CounterHandoff>();
  ASSERT_EQ(handoffs.size(), 1u);
  EXPECT_EQ(handoffs[0].from_calculator, 1);
  EXPECT_EQ(handoffs[0].epoch, 2u);
  // Every live counter travels: {1}, {1,2}, {2}, each with count 2.
  ASSERT_EQ(handoffs[0].entries.size(), 3u);
  bool pair_seen = false;
  for (const auto& [tags, count] : handoffs[0].entries) {
    EXPECT_EQ(count, 2u) << tags.ToString();
    if (tags == TagSet({1, 2})) pair_seen = true;
  }
  EXPECT_TRUE(pair_seen);
  EXPECT_EQ(calculator.quiesces(), 1u);
  EXPECT_EQ(calculator.counters().num_counters(), 0u);

  // A quiesce on an empty table hands off nothing.
  calculator.Execute(Env(Message(quiesce), /*time=*/1400), emitter);
  EXPECT_EQ(emitter.All<CounterHandoff>().size(), 1u);
}

TEST(CalculatorBolt, InjectMergesLinearly) {
  // Migrated fragments merge entry-wise: injecting an exported table into
  // another owner reproduces the table that would have counted both
  // observation sets directly — intersection AND union counts.
  const PipelineConfig config = SmallConfig();
  CalculatorBolt donor(config, 0);
  CalculatorBolt receiver(config, 1);
  CalculatorBolt oracle(config, 2);
  CapturingEmitter emitter;

  Notification n;
  n.tags = TagSet({1, 2});
  donor.Execute(Env(Message(n), 100), emitter);
  oracle.Execute(Env(Message(n), 100), emitter);
  n.tags = TagSet({1});  // Union contribution without the pair.
  donor.Execute(Env(Message(n), 110), emitter);
  oracle.Execute(Env(Message(n), 110), emitter);
  n.tags = TagSet({1, 2});
  receiver.Execute(Env(Message(n), 120), emitter);
  oracle.Execute(Env(Message(n), 120), emitter);

  CalculatorQuiesce quiesce;
  quiesce.epoch = 2;
  CapturingEmitter donor_out;
  donor.Execute(Env(Message(quiesce), 130), donor_out);
  const auto handoffs = donor_out.All<CounterHandoff>();
  ASSERT_EQ(handoffs.size(), 1u);

  CounterInject inject;
  inject.epoch = 2;
  inject.entries = handoffs[0].entries;
  receiver.Execute(Env(Message(inject), 140), emitter);

  CapturingEmitter merged_out;
  CapturingEmitter oracle_out;
  receiver.OnTick(1000, merged_out);
  oracle.OnTick(1000, oracle_out);
  const auto merged = merged_out.All<JaccardReport>();
  const auto expected = oracle_out.All<JaccardReport>();
  ASSERT_EQ(merged.size(), 1u);
  ASSERT_EQ(expected.size(), 1u);
  ASSERT_EQ(merged[0].estimates.size(), expected[0].estimates.size());
  for (size_t i = 0; i < merged[0].estimates.size(); ++i) {
    EXPECT_EQ(merged[0].estimates[i].intersection_count,
              expected[0].estimates[i].intersection_count);
    EXPECT_EQ(merged[0].estimates[i].union_count,
              expected[0].estimates[i].union_count);
    EXPECT_EQ(merged[0].estimates[i].coefficient,
              expected[0].estimates[i].coefficient);
  }
}

TEST(DisseminatorBolt, ReRoutesHandoffFragmentsToCoveringOwners) {
  PipelineConfig config = SmallConfig();
  config.tracker_merge = EstimateMerge::kAdditive;
  DisseminatorBolt disseminator(config, nullptr);
  disseminator.Prepare({0, 0}, 1);
  CapturingEmitter emitter;

  // Install partitions: {1,2} -> calculator 0, {3,4} -> calculator 1.
  auto partitions = std::make_shared<PartitionSet>(2);
  partitions->AddTags(0, TagSet({1, 2}));
  partitions->AddTags(1, TagSet({3, 4}));
  FinalPartitions install;
  install.epoch = 1;
  install.partitions = partitions;
  disseminator.Execute(Env(Message(install)), emitter);

  CounterHandoff handoff;
  handoff.from_calculator = 3;
  handoff.epoch = 1;
  handoff.entries.emplace_back(TagSet({1, 2}), 5);
  handoff.entries.emplace_back(TagSet({3}), 2);
  handoff.entries.emplace_back(TagSet({1, 9}), 7);  // 9 uncovered: dropped.
  disseminator.Execute(Env(Message(handoff)), emitter);

  EXPECT_EQ(disseminator.handoffs_routed(), 1u);
  EXPECT_EQ(disseminator.handoff_entries_dropped(), 1u);
  std::map<int, CounterInject> injects;
  for (const auto& [instance, msg] : emitter.direct) {
    if (const auto* inject = std::get_if<CounterInject>(&msg)) {
      injects[instance] = *inject;
    }
  }
  ASSERT_EQ(injects.size(), 2u);
  ASSERT_EQ(injects[0].entries.size(), 1u);
  EXPECT_EQ(injects[0].entries[0].first, TagSet({1, 2}));
  EXPECT_EQ(injects[0].entries[0].second, 5u);
  ASSERT_EQ(injects[1].entries.size(), 1u);
  EXPECT_EQ(injects[1].entries[0].first, TagSet({3}));
  EXPECT_EQ(injects[1].entries[0].second, 2u);
}

}  // namespace
}  // namespace corrtrack::ops
