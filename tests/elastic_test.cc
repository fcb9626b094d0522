// Elastic repartitioning (§7.3 tentpole): the Merger resizes the live
// Calculator set at run time — activate on grow, quiesce-flush + retire
// on shrink — and the install protocol must neither drop nor double-count a
// single observation across a resize.
//
// The oracle: with the DS algorithm (tag-disjoint partitions) and a
// topic-pure workload (no joint vocabulary, no cross-topic events, no
// fresh tags), every tagset is held by exactly one Calculator at a time,
// so the partial reports a resize splits across owners cover *disjoint*
// document sets. Under the additive Tracker merge they sum to exactly the
// centralised baseline's counters — the final period map must be
// bit-identical to the centralised oracle on every substrate, no matter
// where in the stream the resizes land.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "exp/driver.h"
#include "exp/metrics.h"
#include "gen/tweet_generator.h"
#include "ops/centralized.h"
#include "ops/source.h"
#include "ops/topology_builder.h"
#include "ops/tracker_op.h"
#include "stream/runtime_factory.h"

namespace corrtrack {
namespace {

/// Topic-pure deterministic workload: every document draws all tags from
/// one topic's fixed vocabulary, so the co-occurrence graph stays one
/// component per topic and DS partitions cover every tagset — the regime
/// where the additive Tracker is exact (see core/jaccard.h).
gen::GeneratorConfig TopicPureWorkload() {
  gen::GeneratorConfig workload;
  workload.seed = 11;
  workload.topics.num_topics = 12;
  workload.topics.tags_per_topic = 8;
  workload.topics.joint_prob = 0.0;   // No cross-topic bridge tags.
  workload.topics.tag_skew = 0.3;     // Cold tags circulate early.
  workload.fresh_tag_prob = 0.0;      // Fixed vocabulary.
  workload.event_prob = 0.0;          // No cross-topic mixing.
  return workload;
}

/// The forced k: 4 -> 8 -> 3 schedule of the acceptance criterion. The
/// second resize lands *inside* the final reporting period, so its quiesce
/// flushes and ownership splits are what the oracle comparison checks.
ops::PipelineConfig ElasticPipeline() {
  ops::PipelineConfig pipeline;
  pipeline.algorithm = AlgorithmKind::kDS;
  pipeline.num_calculators = 4;
  pipeline.max_calculators = 8;
  pipeline.num_partitioners = 3;
  // Cumulative windows: every install covers all tags seen so far.
  pipeline.window_span = 1000 * kMillisPerMinute;
  pipeline.report_period = kMillisPerMinute;
  pipeline.bootstrap_time = kMillisPerMinute;
  pipeline.forced_repartition_docs = {10000, 16000};
  pipeline.forced_k_schedule = {4, 8, 3};
  pipeline.tracker_merge = EstimateMerge::kAdditive;
  return pipeline;
}

constexpr uint64_t kNumDocs = 20000;

/// Records the install protocol's resize notifications.
class ResizeRecordingSink : public ops::MetricsSink {
 public:
  void OnTopologyResize(Epoch epoch, int old_k, int new_k,
                        Timestamp /*time*/) override {
    epochs.push_back(epoch);
    old_ks.push_back(old_k);
    new_ks.push_back(new_k);
  }
  std::vector<Epoch> epochs;
  std::vector<int> old_ks;
  std::vector<int> new_ks;
};

/// Runs the forced-resize schedule on `kind` and checks the final period
/// map of the (additive) Tracker bit-identically against the centralised
/// oracle, restricted — as the oracle itself is — to tagsets with counter
/// CN > sn.
void RunForcedResizeDifferential(stream::RuntimeKind kind) {
  const ops::PipelineConfig pipeline = ElasticPipeline();
  const gen::GeneratorConfig workload = TopicPureWorkload();

  stream::Topology<ops::Message> topology;
  ResizeRecordingSink resizes;
  const ops::TopologyHandles handles = ops::BuildCorrelationTopology(
      &topology, std::make_unique<ops::GeneratorSpout>(workload, kNumDocs),
      pipeline, &resizes, /*with_centralized_baseline=*/true);

  ops::PipelineConfig run_config = pipeline;
  run_config.runtime = kind;
  run_config.num_threads = 4;   // Pool only; others ignore it.
  run_config.queue_capacity = 256;  // Bounds spout/control-loop skew.
  std::unique_ptr<stream::Runtime<ops::Message>> runtime =
      ops::MakeConfiguredRuntime(&topology, run_config);
  runtime->Run(pipeline.report_period);

  EXPECT_EQ(runtime->TuplesDelivered(handles.parser), kNumDocs);

  // The schedule actually resized the live topology: 4 -> 8 (Merger grow,
  // epoch 2), then 8 -> 3 (Disseminator shrink, epoch 3).
  const stream::RuntimeStats stats = runtime->stats();
  EXPECT_GE(stats.tasks_spawned, 4u);
  EXPECT_GE(stats.tasks_retired, 5u);
  EXPECT_EQ(runtime->ActiveParallelism(handles.calculator), 3);
  EXPECT_EQ(runtime->MaxParallelism(handles.calculator), 8);
  ASSERT_EQ(resizes.new_ks.size(), 2u);
  EXPECT_EQ(resizes.old_ks[0], 4);
  EXPECT_EQ(resizes.new_ks[0], 8);
  EXPECT_EQ(resizes.epochs[0], 2u);
  EXPECT_EQ(resizes.old_ks[1], 8);
  EXPECT_EQ(resizes.new_ks[1], 3);
  EXPECT_EQ(resizes.epochs[1], 3u);

  const auto* tracker =
      static_cast<ops::TrackerBolt*>(runtime->bolt(handles.tracker, 0));
  const auto* oracle = static_cast<ops::CentralizedBolt*>(
      runtime->bolt(handles.centralized, 0));
  // Reports arrive epoch-stamped; at least the 4->8 install's epoch must
  // have reached the Tracker (the 8->3 install may land arbitrarily close
  // to end-of-stream on the concurrent substrates).
  EXPECT_GE(tracker->latest_epoch(), 2u);

  ASSERT_FALSE(oracle->periods().empty());
  const auto& [final_period, oracle_map] = *oracle->periods().rbegin();
  const auto tracker_it = tracker->periods().find(final_period);
  ASSERT_NE(tracker_it, tracker->periods().end())
      << "tracker reported nothing for the final period " << final_period;

  // Every oracle entry must be served bit-identically by the tracker...
  const uint64_t sn =
      static_cast<uint64_t>(pipeline.single_addition_threshold);
  for (const auto& [tags, oracle_estimate] : oracle_map) {
    const auto entry = tracker_it->second.find(tags);
    ASSERT_NE(entry, tracker_it->second.end())
        << "missing " << tags.ToString() << " in final period";
    EXPECT_EQ(entry->second.intersection_count,
              oracle_estimate.intersection_count)
        << tags.ToString();
    EXPECT_EQ(entry->second.union_count, oracle_estimate.union_count)
        << tags.ToString();
    EXPECT_EQ(entry->second.coefficient, oracle_estimate.coefficient)
        << tags.ToString();
  }
  // ...and the tracker must not claim sets the oracle does not have (the
  // oracle screens at CN > sn; the tracker keeps everything, so apply the
  // same screen before comparing).
  uint64_t tracker_above_sn = 0;
  for (const auto& [tags, estimate] : tracker_it->second) {
    if (estimate.intersection_count > sn) ++tracker_above_sn;
  }
  EXPECT_EQ(tracker_above_sn, oracle_map.size());
}

TEST(ElasticResize, ForcedScheduleMatchesOracleOnSimulation) {
  RunForcedResizeDifferential(stream::RuntimeKind::kSimulation);
}

TEST(ElasticResize, ForcedScheduleMatchesOracleOnPool) {
  RunForcedResizeDifferential(stream::RuntimeKind::kPool);
}

TEST(ElasticResize, PoolStressWithTinyMailboxes) {
  // TSan target: repeated resize schedules under maximal backpressure —
  // task activation/retirement racing work stealing, inline helping and the
  // bounded-stall escape. Liveness and conservation only; the schedule's
  // timing under 2 workers with 8-slot mailboxes is deliberately hostile.
  for (int round = 0; round < 3; ++round) {
    ops::PipelineConfig pipeline = ElasticPipeline();
    // ~130 tagged docs/s: bootstrap by doc ~1300 so both forced rounds
    // land well inside the 8000-doc stream.
    pipeline.bootstrap_time = kMillisPerMinute / 6;
    pipeline.forced_repartition_docs = {3000, 5000};
    gen::GeneratorConfig workload = TopicPureWorkload();
    workload.seed = 100 + static_cast<uint64_t>(round);
    const uint64_t num_docs = 8000;

    stream::Topology<ops::Message> topology;
    const ops::TopologyHandles handles = ops::BuildCorrelationTopology(
        &topology, std::make_unique<ops::GeneratorSpout>(workload, num_docs),
        pipeline, nullptr, /*with_centralized_baseline=*/true);
    stream::RuntimeOptions options;
    options.num_threads = 2;
    options.queue_capacity = 8;
    auto runtime = stream::MakeRuntime<ops::Message>(
        stream::RuntimeKind::kPool, &topology, options);
    runtime->Run(pipeline.report_period);
    EXPECT_EQ(runtime->TuplesDelivered(handles.parser), num_docs);
    EXPECT_GE(runtime->stats().tasks_spawned, 4u);
    const auto* tracker =
        static_cast<ops::TrackerBolt*>(runtime->bolt(handles.tracker, 0));
    EXPECT_FALSE(tracker->periods().empty());
  }
}

TEST(ElasticResize, DriverRecordsResizeTrail) {
  // The experiment harness surfaces the resize protocol end to end:
  // events, epoch counts, per-segment k, and a serve index that stays
  // bit-identical to the (additive) tracker it ingests from.
  exp::ExperimentConfig config;
  config.label = "elastic";
  config.pipeline = ElasticPipeline();
  config.generator = TopicPureWorkload();
  config.num_documents = kNumDocs;
  config.series_stride = 5000;
  config.with_serve_index = true;
  const exp::ExperimentResult result = exp::RunExperiment(config);

  EXPECT_GT(result.documents, 0u);  // Routed documents (post-bootstrap).
  EXPECT_EQ(result.topology_resizes, 2u);
  ASSERT_EQ(result.resize_events.size(), 2u);
  EXPECT_EQ(result.resize_events[0].old_k, 4);
  EXPECT_EQ(result.resize_events[0].new_k, 8);
  EXPECT_EQ(result.resize_events[1].old_k, 8);
  EXPECT_EQ(result.resize_events[1].new_k, 3);
  EXPECT_EQ(result.epochs_installed, 3u);
  EXPECT_EQ(result.initial_calculators, 4);
  EXPECT_EQ(result.peak_calculators, 8);
  EXPECT_EQ(result.final_calculators, 3);
  ASSERT_FALSE(result.series.empty());
  EXPECT_EQ(result.series.back().active_calculators, 3);
  // Epoch-stamped reports from the resizing tracker kept the serve index
  // bit-identical to the tracker's period map.
  EXPECT_GT(result.serve_sets, 0u);
  EXPECT_GT(result.serve_lookups_checked, 0u);
  EXPECT_EQ(result.serve_mismatches, 0u);
  // The runtime counters flow into the result as well (Runtime::stats()
  // after the run).
  EXPECT_GE(result.runtime_stats.tasks_spawned, 4u);
  EXPECT_GE(result.runtime_stats.tasks_retired, 5u);
}

TEST(ElasticResize, CostModelPolicyGrowsWithLoad) {
  // No forced k: the Merger's target-k policy alone must scale the
  // topology past the build-time count when the window load warrants it.
  exp::ExperimentConfig config;
  config.label = "elastic-policy";
  config.pipeline = ElasticPipeline();
  config.pipeline.forced_k_schedule.clear();
  config.pipeline.num_calculators = 2;
  config.pipeline.max_calculators = 16;
  config.pipeline.elastic.enabled = true;
  config.pipeline.elastic.partition_overhead_load = 50;
  config.generator = TopicPureWorkload();
  config.num_documents = kNumDocs;
  const exp::ExperimentResult result = exp::RunExperiment(config);

  EXPECT_GE(result.topology_resizes, 1u);
  EXPECT_GT(result.peak_calculators, 2);
  EXPECT_LE(result.peak_calculators, 16);
  EXPECT_GE(result.runtime_stats.tasks_spawned, 1u);
}

TEST(ElasticResize, PolicyOptimumClampsToProvisionedMaximum) {
  // A near-zero per-partition overhead puts the cost-model optimum far
  // above the provisioned ceiling; the Merger clamps every round to it.
  exp::ExperimentConfig config;
  config.label = "elastic-clamp";
  config.pipeline = ElasticPipeline();
  config.pipeline.forced_k_schedule.clear();
  config.pipeline.num_calculators = 2;
  config.pipeline.max_calculators = 6;
  config.pipeline.elastic.enabled = true;
  config.pipeline.elastic.partition_overhead_load = 1;
  config.generator = TopicPureWorkload();
  config.num_documents = kNumDocs;
  const exp::ExperimentResult result = exp::RunExperiment(config);

  EXPECT_GE(result.topology_resizes, 1u);
  EXPECT_EQ(result.peak_calculators, 6);
  EXPECT_EQ(result.final_calculators, 6);
}

}  // namespace
}  // namespace corrtrack
