// Kill-restore differential (the tentpole's acceptance criterion): a run
// that is checkpointed, killed, and restored from durable storage must
// finish with Tracker period maps — and a serving index fed from them —
// bit-identical to an uninterrupted run, on every substrate, including
// with a forced elastic resize landing *before* the checkpoint cut.
//
// The oracle setup is elastic_test.cc's: DS + topic-pure workload +
// additive Tracker merge makes the distributed period map bit-identical to
// the centralised baseline's, so any state lost or doubled across the
// kill/restore shows up as a counter mismatch.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/driver.h"
#include "exp/sweep.h"
#include "gen/tweet_generator.h"
#include "ops/centralized.h"
#include "ops/checkpoint_runner.h"
#include "ops/checkpoint_state.h"
#include "ops/pipeline_checkpoint.h"
#include "ops/source.h"
#include "ops/topology_builder.h"
#include "ops/tracker_op.h"
#include "serve/correlation_index.h"
#include "serve/index_sink.h"
#include "storage/checkpoint.h"
#include "storage/serialize.h"
#include "storage/storage.h"
#include "telemetry/pipeline_telemetry.h"

namespace corrtrack {
namespace {

/// See elastic_test.cc: no joint vocabulary, no fresh tags, no events —
/// the regime where the additive Tracker is exact.
gen::GeneratorConfig TopicPureWorkload() {
  gen::GeneratorConfig workload;
  workload.seed = 23;
  workload.topics.num_topics = 12;
  workload.topics.tags_per_topic = 8;
  workload.topics.joint_prob = 0.0;
  workload.topics.tag_skew = 0.3;
  workload.fresh_tag_prob = 0.0;
  workload.event_prob = 0.0;
  return workload;
}

/// Forced k: 4 -> 8 at 10k docs, 8 -> 3 at 16k. With checkpoint cuts at
/// 6.5k/13k, the 13k cut lands after the grow and before the shrink — a
/// resize is durably captured and another happens post-restore. Cuts stay
/// >= 3000 docs away from both repartition points, so control rounds are
/// never in flight at a cut.
ops::PipelineConfig ElasticPipeline(stream::RuntimeKind kind) {
  ops::PipelineConfig pipeline;
  pipeline.algorithm = AlgorithmKind::kDS;
  pipeline.num_calculators = 4;
  pipeline.max_calculators = 8;
  pipeline.num_partitioners = 3;
  pipeline.window_span = 1000 * kMillisPerMinute;  // Cumulative windows.
  pipeline.report_period = kMillisPerMinute;
  pipeline.bootstrap_time = kMillisPerMinute;
  pipeline.forced_repartition_docs = {10000, 16000};
  pipeline.forced_k_schedule = {4, 8, 3};
  pipeline.tracker_merge = EstimateMerge::kAdditive;
  pipeline.runtime = kind;
  pipeline.num_threads = 4;       // Pool only; others ignore it.
  pipeline.queue_capacity = 256;  // Bounds spout/control-loop skew.
  return pipeline;
}

constexpr uint64_t kNumDocs = 20000;
constexpr uint64_t kKillAfterDocs = 14000;  // Last durable cut: 13000.
constexpr uint64_t kEveryDocs = 6500;

void ExpectOnePeriodIdentical(
    Timestamp period_end, const ops::TrackerBolt::PeriodResults& got_results,
    const ops::TrackerBolt::PeriodResults& want_results) {
  ASSERT_EQ(got_results.size(), want_results.size()) << "period " << period_end;
  for (const auto& [tags, want_estimate] : want_results) {
    const auto entry = got_results.find(tags);
    ASSERT_NE(entry, got_results.end())
        << "period " << period_end << " missing " << tags.ToString();
    EXPECT_EQ(entry->second.coefficient, want_estimate.coefficient)
        << tags.ToString();
    EXPECT_EQ(entry->second.intersection_count,
              want_estimate.intersection_count)
        << tags.ToString();
    EXPECT_EQ(entry->second.union_count, want_estimate.union_count)
        << tags.ToString();
  }
}

void ExpectPeriodsIdentical(
    const std::map<Timestamp, ops::TrackerBolt::PeriodResults>& got,
    const std::map<Timestamp, ops::TrackerBolt::PeriodResults>& want) {
  ASSERT_EQ(got.size(), want.size());
  auto got_it = got.begin();
  for (const auto& [period_end, want_results] : want) {
    ASSERT_EQ(got_it->first, period_end);
    ExpectOnePeriodIdentical(period_end, got_it->second, want_results);
    ++got_it;
  }
}

/// The cross-run invariant every substrate guarantees: the final cumulative
/// period covers the whole stream, so its counters are independent of how
/// thread scheduling interleaved ticks with in-flight documents. Interior
/// period boundaries are schedule-dependent on the concurrent substrates
/// (a tick can land a few documents earlier or later run-to-run — true of
/// two *uninterrupted* pool runs as well, nothing to do with restore),
/// so only the simulation runtime additionally pins every interior period.
void ExpectFinalPeriodIdentical(
    const std::map<Timestamp, ops::TrackerBolt::PeriodResults>& got,
    const std::map<Timestamp, ops::TrackerBolt::PeriodResults>& want) {
  ASSERT_FALSE(got.empty());
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.rbegin()->first, want.rbegin()->first);
  ExpectOnePeriodIdentical(want.rbegin()->first, got.rbegin()->second,
                           want.rbegin()->second);
}

/// Every entry of the tracker's newest period must Lookup bit-identically
/// in `index`. `pin_universe` additionally compares the total served-set
/// count across the two runs — only valid on the deterministic substrate:
/// the index unions over *all* periods, and interior-period set discovery
/// is schedule-dependent on the concurrent ones (see
/// ExpectFinalPeriodIdentical).
void ExpectServeMatches(const serve::CorrelationIndex& index,
                        const serve::CorrelationIndex& reference,
                        const ops::TrackerBolt& tracker, bool pin_universe) {
  serve::CorrelationIndex::Reader reader = index.NewReader();
  serve::CorrelationIndex::Reader ref_reader = reference.NewReader();
  if (pin_universe) {
    EXPECT_EQ(reader.TotalSets(), ref_reader.TotalSets());
  }
  ASSERT_FALSE(tracker.periods().empty());
  const auto& [newest_period, newest_results] = *tracker.periods().rbegin();
  for (const auto& [tags, estimate] : newest_results) {
    const std::optional<serve::LookupResult> lookup = reader.Lookup(tags);
    ASSERT_TRUE(lookup.has_value()) << tags.ToString();
    EXPECT_EQ(lookup->period_end, newest_period) << tags.ToString();
    EXPECT_EQ(lookup->coefficient, estimate.coefficient) << tags.ToString();
    EXPECT_EQ(lookup->intersection_count, estimate.intersection_count);
    EXPECT_EQ(lookup->union_count, estimate.union_count);
  }
}

/// The full acceptance differential on one substrate:
///  A. uninterrupted run (the ground truth);
///  B. checkpointing run killed at 14k docs (durable cuts at 6.5k/13k);
///  C. restored run over the full stream, resuming from the 13k cut.
/// A and C must agree bit-identically on tracker periods, serve answers,
/// and the centralised oracle.
void RunKillRestoreDifferential(stream::RuntimeKind kind) {
  const ops::PipelineConfig pipeline = ElasticPipeline(kind);
  const gen::GeneratorConfig workload = TopicPureWorkload();
  const std::string store =
      std::string("mem://kill_restore_") + stream::RuntimeKindName(kind);
  storage::MemoryStorage::Global()->Clear();

  // --- A: uninterrupted ---------------------------------------------------
  serve::CorrelationIndex index_a;
  serve::IndexSink sink_a(&index_a);
  stream::Topology<ops::Message> topology_a;
  const ops::TopologyHandles handles_a = ops::BuildCorrelationTopology(
      &topology_a, std::make_unique<ops::GeneratorSpout>(workload, kNumDocs),
      pipeline, nullptr, /*with_centralized_baseline=*/true, &sink_a);
  std::unique_ptr<stream::Runtime<ops::Message>> runtime_a =
      ops::MakeConfiguredRuntime(&topology_a, pipeline);
  runtime_a->Run(pipeline.report_period);
  const auto* tracker_a =
      static_cast<ops::TrackerBolt*>(runtime_a->bolt(handles_a.tracker, 0));
  ASSERT_FALSE(tracker_a->periods().empty());

  // --- B: checkpointed, killed mid-stream ---------------------------------
  {
    serve::CorrelationIndex index_b;
    serve::IndexSink sink_b(&index_b);
    ops::CheckpointRunnerOptions options;
    options.checkpoint_uri = store;
    options.every_docs = kEveryDocs;
    options.export_serve = [&index_b](std::string* out) {
      index_b.ExportState(out);
    };
    ops::CheckpointedRun run;
    std::string error;
    ASSERT_TRUE(ops::RunCheckpointedPipeline(
        std::make_unique<ops::GeneratorSpout>(workload, kKillAfterDocs),
        pipeline, options, nullptr, /*with_centralized_baseline=*/true,
        &sink_b, /*baseline_sink=*/nullptr,
        /*final_flush_horizon=*/pipeline.report_period, &run, &error))
        << error;
    EXPECT_EQ(run.stats.checkpoints_written, 2u);
    EXPECT_EQ(run.stats.checkpoints_failed, 0u);
    EXPECT_GT(run.stats.checkpoint_bytes, 0u);
    ASSERT_EQ(run.stats.events.size(), 2u);
    EXPECT_EQ(run.stats.events[0].docs_ingested, kEveryDocs);
    EXPECT_EQ(run.stats.events[1].docs_ingested, 2 * kEveryDocs);
    // The forced 4 -> 8 grow (at 10k docs) happened before the second cut,
    // so the durable checkpoint must carry the resized topology.
    EXPECT_TRUE(run.stats.events[1].ok);
    // Run B's pipeline (topology, runtime, serve index) now goes out of
    // scope — the "kill". Only the mem:// store survives.
  }

  // --- C: restored over the full stream -----------------------------------
  serve::CorrelationIndex index_c;
  serve::IndexSink sink_c(&index_c);
  ops::CheckpointRunnerOptions restore_options;
  restore_options.restore_uri = store;
  restore_options.restore_serve = [&index_c](std::string_view blob) {
    return index_c.RestoreState(blob);
  };
  ops::CheckpointedRun run_c;
  std::string error;
  ASSERT_TRUE(ops::RunCheckpointedPipeline(
      std::make_unique<ops::GeneratorSpout>(workload, kNumDocs), pipeline,
      restore_options, nullptr, /*with_centralized_baseline=*/true, &sink_c,
      /*baseline_sink=*/nullptr,
      /*final_flush_horizon=*/pipeline.report_period, &run_c, &error))
      << error;
  EXPECT_TRUE(run_c.stats.restored);
  EXPECT_EQ(run_c.stats.restored_docs, 2 * kEveryDocs);
  EXPECT_GT(run_c.stats.restore_chunks, 0u);
  EXPECT_EQ(run_c.docs_ingested, kNumDocs);

  const auto* tracker_c = static_cast<ops::TrackerBolt*>(
      run_c.runtime->bolt(run_c.handles.tracker, 0));

  // The differential: the final period map bit-identical on every
  // substrate; on the deterministic one, every interior period too.
  ExpectFinalPeriodIdentical(tracker_c->periods(), tracker_a->periods());
  if (kind == stream::RuntimeKind::kSimulation) {
    ExpectPeriodsIdentical(tracker_c->periods(), tracker_a->periods());
  }
  // ...the serving layer agrees with both trackers...
  ExpectServeMatches(index_c, index_a, *tracker_c,
                     kind == stream::RuntimeKind::kSimulation);
  // ...and the restored run still matches the centralised oracle (which
  // itself was checkpointed and restored) on the final period, screened —
  // as the oracle is — at CN > sn.
  const auto* oracle_c = static_cast<ops::CentralizedBolt*>(
      run_c.runtime->bolt(run_c.handles.centralized, 0));
  ASSERT_FALSE(oracle_c->periods().empty());
  const auto& [final_period, oracle_map] = *oracle_c->periods().rbegin();
  const auto tracker_it = tracker_c->periods().find(final_period);
  ASSERT_NE(tracker_it, tracker_c->periods().end());
  for (const auto& [tags, oracle_estimate] : oracle_map) {
    const auto entry = tracker_it->second.find(tags);
    ASSERT_NE(entry, tracker_it->second.end()) << tags.ToString();
    EXPECT_EQ(entry->second.intersection_count,
              oracle_estimate.intersection_count)
        << tags.ToString();
    EXPECT_EQ(entry->second.union_count, oracle_estimate.union_count);
    EXPECT_EQ(entry->second.coefficient, oracle_estimate.coefficient);
  }

  // The post-restore forced 8 -> 3 shrink (at 16k docs) executed too.
  EXPECT_EQ(run_c.runtime->ActiveParallelism(run_c.handles.calculator), 3);
}

TEST(KillRestore, DifferentialOnSimulation) {
  RunKillRestoreDifferential(stream::RuntimeKind::kSimulation);
}

TEST(KillRestore, DifferentialOnPool) {
  RunKillRestoreDifferential(stream::RuntimeKind::kPool);
}

TEST(KillRestore, CheckpointedRunItselfMatchesUninterrupted) {
  // Segmented execution alone (checkpoints written, never restored) must
  // not perturb the computation.
  const ops::PipelineConfig pipeline =
      ElasticPipeline(stream::RuntimeKind::kSimulation);
  const gen::GeneratorConfig workload = TopicPureWorkload();
  storage::MemoryStorage::Global()->Clear();

  stream::Topology<ops::Message> topology_a;
  const ops::TopologyHandles handles_a = ops::BuildCorrelationTopology(
      &topology_a, std::make_unique<ops::GeneratorSpout>(workload, kNumDocs),
      pipeline, nullptr, /*with_centralized_baseline=*/false);
  std::unique_ptr<stream::Runtime<ops::Message>> runtime_a =
      ops::MakeConfiguredRuntime(&topology_a, pipeline);
  runtime_a->Run(pipeline.report_period);
  const auto* tracker_a =
      static_cast<ops::TrackerBolt*>(runtime_a->bolt(handles_a.tracker, 0));

  ops::CheckpointRunnerOptions options;
  options.checkpoint_uri = "mem://segmented_only";
  options.every_docs = kEveryDocs;
  ops::CheckpointedRun run;
  std::string error;
  ASSERT_TRUE(ops::RunCheckpointedPipeline(
      std::make_unique<ops::GeneratorSpout>(workload, kNumDocs), pipeline,
      options, nullptr, /*with_centralized_baseline=*/false,
      /*tracker_sink=*/nullptr, /*baseline_sink=*/nullptr,
      /*final_flush_horizon=*/pipeline.report_period, &run, &error))
      << error;
  EXPECT_EQ(run.stats.checkpoints_written, 3u);  // 6.5k, 13k, 19.5k.
  const auto* tracker_b = static_cast<ops::TrackerBolt*>(
      run.runtime->bolt(run.handles.tracker, 0));
  ExpectPeriodsIdentical(tracker_b->periods(), tracker_a->periods());
}

TEST(KillRestore, FingerprintMismatchRefused) {
  const gen::GeneratorConfig workload = TopicPureWorkload();
  storage::MemoryStorage::Global()->Clear();
  const ops::PipelineConfig pipeline =
      ElasticPipeline(stream::RuntimeKind::kSimulation);

  ops::CheckpointRunnerOptions options;
  options.checkpoint_uri = "mem://fingerprint_case";
  options.every_docs = 5000;
  ops::CheckpointedRun run;
  std::string error;
  ASSERT_TRUE(ops::RunCheckpointedPipeline(
      std::make_unique<ops::GeneratorSpout>(workload, 12000), pipeline,
      options, nullptr, false, nullptr, nullptr, pipeline.report_period,
      &run, &error))
      << error;
  ASSERT_GT(run.stats.checkpoints_written, 0u);

  // Same store, different semantics: restore must refuse, not compute.
  ops::PipelineConfig other = pipeline;
  other.single_addition_threshold += 1;
  ops::CheckpointRunnerOptions restore_options;
  restore_options.restore_uri = "mem://fingerprint_case";
  ops::CheckpointedRun run2;
  error.clear();
  EXPECT_FALSE(ops::RunCheckpointedPipeline(
      std::make_unique<ops::GeneratorSpout>(workload, 12000), other,
      restore_options, nullptr, false, nullptr, nullptr, other.report_period,
      &run2, &error));
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
}

TEST(KillRestore, NonCanonicalTagListIsRefusedNotFatal) {
  // A checkpoint whose frames are CRC-valid but whose calculator section
  // holds a tag list FromSorted would abort on (descending, repeated, or
  // kInvalidTag): restore must refuse it and the process keep running.
  const ops::PipelineConfig pipeline =
      ElasticPipeline(stream::RuntimeKind::kSimulation);
  const std::vector<std::vector<TagId>> bad = {
      {5, 3}, {4, 4}, {1, kInvalidTag}};
  for (const std::vector<TagId>& tags : bad) {
    storage::MemoryStorage::Global()->Clear();
    storage::ByteWriter calc;  // EncodeCalculator's layout.
    calc.PutI64(0);            // instance
    calc.PutU32(0);            // epoch
    calc.PutU64(0);            // quiesces
    calc.PutU64(1);            // one counter
    calc.PutU32(static_cast<uint32_t>(tags.size()));
    for (const TagId tag : tags) calc.PutU32(tag);
    calc.PutU64(3);
    storage::CheckpointData data = ops::EncodeCheckpoint(
        ops::PipelineCheckpointState(), /*seq=*/1,
        ops::PipelineConfigFingerprint(pipeline));
    data.sections.push_back({"calc_0000", calc.Take()});
    storage::OpenedStorage opened;
    ASSERT_TRUE(storage::OpenStorage("mem://bad_tags", &opened).ok());
    ASSERT_TRUE(
        storage::CheckpointWriter(opened.storage, opened.root).Write(data).ok());

    ops::CheckpointRunnerOptions options;
    options.restore_uri = "mem://bad_tags";
    ops::CheckpointedRun run;
    std::string error;
    EXPECT_FALSE(ops::RunCheckpointedPipeline(
        std::make_unique<ops::GeneratorSpout>(TopicPureWorkload(), 1000),
        pipeline, options, nullptr, false, nullptr, nullptr,
        pipeline.report_period, &run, &error));
    EXPECT_NE(error.find("malformed"), std::string::npos) << error;
  }
}

JaccardEstimate Estimate(std::vector<TagId> tags, double coefficient,
                         uint64_t intersection, uint64_t unioned) {
  JaccardEstimate e;
  e.tags = TagSet(tags);
  e.coefficient = coefficient;
  e.intersection_count = intersection;
  e.union_count = unioned;
  return e;
}

/// Restores, through the runner, a checkpoint whose tracker section (or,
/// with `central`, centralized section) retains `estimates` in one period.
/// Returns whether the restored run ran.
bool RestoresRetained(const std::vector<JaccardEstimate>& estimates,
                      bool central, std::string* error) {
  ops::PipelineConfig pipeline;
  pipeline.report_period = kMillisPerMinute;
  pipeline.bootstrap_time = kMillisPerMinute;
  ops::PipelineCheckpointState state;
  state.has_centralized = central;
  (central ? state.centralized.periods : state.tracker.periods)
      [kMillisPerMinute] = estimates;
  storage::MemoryStorage::Global()->Clear();
  storage::OpenedStorage opened;
  if (!storage::OpenStorage("mem://retained", &opened).ok() ||
      !storage::CheckpointWriter(opened.storage, opened.root)
           .Write(ops::EncodeCheckpoint(
               state, /*seq=*/1, ops::PipelineConfigFingerprint(pipeline)))
           .ok()) {
    *error = "could not write the checkpoint";
    return false;
  }
  ops::CheckpointRunnerOptions options;
  options.restore_uri = "mem://retained";
  ops::CheckpointedRun run;
  return ops::RunCheckpointedPipeline(
      std::make_unique<ops::GeneratorSpout>(TopicPureWorkload(), 2000),
      pipeline, options, nullptr, /*with_centralized_baseline=*/central,
      nullptr, nullptr, pipeline.report_period, &run, error);
}

/// A CRC-valid tracker or centralized section retaining `forged`, an
/// estimate set no Calculator reports, is refused; the same section
/// retaining estimates a Calculator does report restores and runs.
void ExpectRetainedRefused(const std::vector<JaccardEstimate>& forged) {
  const std::vector<JaccardEstimate> reported = {
      Estimate({1, 2}, 0.5, 5, 10), Estimate({1, 2, 3}, 0.25, 2, 8)};
  for (const bool central : {false, true}) {
    std::string error;
    EXPECT_TRUE(RestoresRetained(reported, central, &error)) << error;
    error.clear();
    EXPECT_FALSE(RestoresRetained(forged, central, &error))
        << (central ? "central" : "tracker");
    EXPECT_NE(error.find("malformed"), std::string::npos) << error;
  }
}

TEST(RetainedRestore, ZeroCnIsRefused) {
  ExpectRetainedRefused({Estimate({1, 2}, 0.0, 0, 10)});
}

TEST(RetainedRestore, UnionBelowCnIsRefused) {
  ExpectRetainedRefused({Estimate({1, 2}, 5.0 / 4.0, 5, 4)});
}

TEST(RetainedRestore, CoefficientOffItsCountsIsRefused) {
  // One ulp above 5 / 10: only the bits give it away.
  ExpectRetainedRefused({Estimate({1, 2}, std::nextafter(0.5, 1.0), 5, 10)});
}

TEST(RetainedRestore, FewerThanTwoTagsIsRefused) {
  ExpectRetainedRefused({Estimate({7}, 0.5, 5, 10)});
}

TEST(RetainedRestore, TagsetTwiceInAPeriodIsRefused) {
  // Each estimate alone is one a Calculator reports; apart by another set.
  ExpectRetainedRefused({Estimate({1, 2}, 0.5, 5, 10),
                         Estimate({1, 2, 3}, 0.25, 2, 8),
                         Estimate({1, 2}, 0.6, 6, 10)});
}

TEST(KillRestore, RestoreFromEmptyStoreFails) {
  storage::MemoryStorage::Global()->Clear();
  ops::CheckpointRunnerOptions options;
  options.restore_uri = "mem://nothing_here";
  ops::CheckpointedRun run;
  std::string error;
  EXPECT_FALSE(ops::RunCheckpointedPipeline(
      std::make_unique<ops::GeneratorSpout>(TopicPureWorkload(), 1000),
      ElasticPipeline(stream::RuntimeKind::kSimulation), options, nullptr,
      false, nullptr, nullptr, kMillisPerMinute, &run, &error));
  EXPECT_FALSE(error.empty());
}

TEST(KillRestore, UnknownSchemeDegradesGracefully) {
  // An unusable checkpoint *store* must not stall or fail ingest: the run
  // completes without durability, the failure is counted.
  ops::CheckpointRunnerOptions options;
  options.checkpoint_uri = "s3://not-supported/ckpt";
  options.every_docs = 5000;
  ops::CheckpointedRun run;
  std::string error;
  ASSERT_TRUE(ops::RunCheckpointedPipeline(
      std::make_unique<ops::GeneratorSpout>(TopicPureWorkload(), 8000),
      ElasticPipeline(stream::RuntimeKind::kSimulation), options, nullptr,
      false, nullptr, nullptr, kMillisPerMinute, &run, &error))
      << error;
  EXPECT_EQ(run.docs_ingested, 8000u);
  EXPECT_EQ(run.stats.checkpoints_written, 0u);
  EXPECT_EQ(run.stats.checkpoints_failed, 1u);
}

TEST(KillRestore, CheckpointInstrumentsRecordThroughPipelineTelemetry) {
  // The runner records its write/restore instruments into the run's one
  // telemetry bundle (PipelineConfig::telemetry): one write sample per
  // attempt, one restore sample per restore, counters equal to the stats.
  storage::MemoryStorage::Global()->Clear();
  const gen::GeneratorConfig workload = TopicPureWorkload();
  telemetry::PipelineTelemetry written;
  ops::PipelineConfig pipeline =
      ElasticPipeline(stream::RuntimeKind::kSimulation);
  pipeline.telemetry = &written;
  ops::CheckpointRunnerOptions options;
  options.checkpoint_uri = "mem://instrumented";
  options.every_docs = kEveryDocs;
  ops::CheckpointedRun run;
  std::string error;
  ASSERT_TRUE(ops::RunCheckpointedPipeline(
      std::make_unique<ops::GeneratorSpout>(workload, kNumDocs), pipeline,
      options, nullptr, /*with_centralized_baseline=*/false,
      /*tracker_sink=*/nullptr, /*baseline_sink=*/nullptr,
      /*final_flush_horizon=*/pipeline.report_period, &run, &error))
      << error;
  telemetry::MetricRegistry& registry = written.registry;
  EXPECT_EQ(run.stats.checkpoints_written, 3u);
  EXPECT_EQ(
      registry.GetCounter("corrtrack_checkpoints_written_total")->value(),
      run.stats.checkpoints_written);
  EXPECT_EQ(registry.GetCounter("corrtrack_checkpoints_failed_total")->value(),
            0u);
  EXPECT_EQ(registry.GetCounter("corrtrack_storage_retries_total")->value(),
            run.stats.storage_retries);
  EXPECT_EQ(registry.GetHistogram("corrtrack_checkpoint_write_us")->count(),
            run.stats.events.size());
  EXPECT_EQ(registry.GetHistogram("corrtrack_checkpoint_restore_us")->count(),
            0u);

  telemetry::PipelineTelemetry restored;
  pipeline.telemetry = &restored;
  ops::CheckpointRunnerOptions restore_options;
  restore_options.restore_uri = "mem://instrumented";
  ops::CheckpointedRun run2;
  ASSERT_TRUE(ops::RunCheckpointedPipeline(
      std::make_unique<ops::GeneratorSpout>(workload, kNumDocs), pipeline,
      restore_options, nullptr, /*with_centralized_baseline=*/false,
      /*tracker_sink=*/nullptr, /*baseline_sink=*/nullptr,
      /*final_flush_horizon=*/pipeline.report_period, &run2, &error))
      << error;
  EXPECT_TRUE(run2.stats.restored);
  EXPECT_EQ(restored.registry.GetHistogram("corrtrack_checkpoint_restore_us")
                ->count(),
            1u);
  EXPECT_EQ(
      restored.registry.GetHistogram("corrtrack_checkpoint_write_us")->count(),
      0u);
  EXPECT_EQ(restored.registry.GetCounter("corrtrack_storage_retries_total")
                ->value(),
            run2.stats.storage_retries);
}

TEST(KillRestore, FaultedWritesDegradeGracefullyAndNeverPerturbIngest) {
  // Random storage faults under the writer: whatever fails, the pipeline's
  // computation must equal the uninterrupted run's, failures are logged
  // and counted, and ingest never stalls.
  const ops::PipelineConfig pipeline =
      ElasticPipeline(stream::RuntimeKind::kSimulation);
  const gen::GeneratorConfig workload = TopicPureWorkload();
  storage::MemoryStorage::Global()->Clear();

  stream::Topology<ops::Message> topology_a;
  const ops::TopologyHandles handles_a = ops::BuildCorrelationTopology(
      &topology_a, std::make_unique<ops::GeneratorSpout>(workload, kNumDocs),
      pipeline, nullptr, /*with_centralized_baseline=*/false);
  std::unique_ptr<stream::Runtime<ops::Message>> runtime_a =
      ops::MakeConfiguredRuntime(&topology_a, pipeline);
  runtime_a->Run(pipeline.report_period);
  const auto* tracker_a =
      static_cast<ops::TrackerBolt*>(runtime_a->bolt(handles_a.tracker, 0));

  ops::CheckpointRunnerOptions options;
  options.checkpoint_uri = "mem://faulted_writes";
  options.every_docs = 4000;
  options.retry.sleeper = [](int) {};  // No wall-clock sleeps in tests.
  options.faults.seed = 3;
  options.faults.probability = 0.2;
  ops::CheckpointedRun run;
  std::string error;
  ASSERT_TRUE(ops::RunCheckpointedPipeline(
      std::make_unique<ops::GeneratorSpout>(workload, kNumDocs), pipeline,
      options, nullptr, /*with_centralized_baseline=*/false,
      /*tracker_sink=*/nullptr, /*baseline_sink=*/nullptr,
      /*final_flush_horizon=*/pipeline.report_period, &run, &error))
      << error;
  EXPECT_EQ(run.docs_ingested, kNumDocs);
  EXPECT_GT(run.stats.storage_faults_injected, 0u);
  EXPECT_EQ(run.stats.events.size(),
            run.stats.checkpoints_written + run.stats.checkpoints_failed);
  const auto* tracker_b = static_cast<ops::TrackerBolt*>(
      run.runtime->bolt(run.handles.tracker, 0));
  ExpectPeriodsIdentical(tracker_b->periods(), tracker_a->periods());
}

// ---------------------------------------------------------------------------
// Capture codec: the storage-facing encoding round-trips every field.

TEST(PipelineCheckpointCodec, EncodeDecodeRoundTrip) {
  ops::PipelineCheckpointState state;
  state.docs_ingested = 12345;
  state.last_time = 98765;
  state.epoch = 4;
  state.live_calculators = 6;
  state.max_calculators = 8;
  state.clean_cut = false;
  {
    ops::CalculatorState cs;
    cs.instance = 2;
    cs.epoch = 4;
    cs.quiesces = 1;
    const TagId tags[] = {3, 9};
    cs.counters.emplace_back(TagSet::FromSorted(tags, tags + 2), 17u);
    state.calculators.push_back(std::move(cs));
  }
  {
    ops::PartitionerState ps;
    ps.instance = 0;
    ps.last_token = 5;
    ps.answered_any = true;
    Document doc;
    doc.id = 77;
    doc.time = 1234;
    const TagId tags[] = {1, 2, 3};
    doc.tags = TagSet::FromSorted(tags, tags + 3);
    ps.window.push_back(doc);
    state.partitioners.push_back(std::move(ps));
  }
  state.parser.tags = {"earthquake", "sanfrancisco", "breaking"};
  state.tracker.reports_received = 9;
  state.tracker.latest_epoch = 4;
  {
    JaccardEstimate e;
    const TagId tags[] = {3, 9};
    e.tags = TagSet::FromSorted(tags, tags + 2);
    e.coefficient = 0.625;
    e.intersection_count = 5;
    e.union_count = 8;
    state.tracker.periods[60000].push_back(e);
  }
  state.disseminator.has_partitions = true;
  state.disseminator.partitions.partition_tags = {{1, 2}, {3, 9}};
  state.disseminator.partitions.loads = {10, 20};
  state.disseminator.epoch = 4;
  state.disseminator.next_token = 6;
  state.disseminator.docs_seen = 12345;
  const TagId uncovered[] = {5, 6};
  state.disseminator.uncovered_counts.emplace_back(
      TagSet::FromSorted(uncovered, uncovered + 2), -1);
  state.merger.has_master = true;
  state.merger.master = state.disseminator.partitions;
  state.merger.epoch = 4;
  state.merger.had_pending_rounds = true;
  state.serve_blob = "opaque serve bytes";

  const storage::CheckpointData data =
      ops::EncodeCheckpoint(state, /*seq=*/7, /*fingerprint=*/0xABCDu);
  EXPECT_EQ(data.seq, 7u);
  EXPECT_EQ(data.docs_ingested, 12345u);
  EXPECT_EQ(data.config_fingerprint, 0xABCDu);
  EXPECT_FALSE(data.clean_cut);

  ops::PipelineCheckpointState decoded;
  ASSERT_TRUE(ops::DecodeCheckpoint(data, &decoded));
  EXPECT_EQ(decoded.docs_ingested, state.docs_ingested);
  EXPECT_EQ(decoded.last_time, state.last_time);
  EXPECT_EQ(decoded.epoch, state.epoch);
  EXPECT_EQ(decoded.live_calculators, state.live_calculators);
  EXPECT_EQ(decoded.clean_cut, state.clean_cut);
  ASSERT_EQ(decoded.calculators.size(), 1u);
  EXPECT_EQ(decoded.calculators[0].instance, 2);
  ASSERT_EQ(decoded.calculators[0].counters.size(), 1u);
  EXPECT_EQ(decoded.calculators[0].counters[0].second, 17u);
  EXPECT_EQ(decoded.calculators[0].counters[0].first,
            state.calculators[0].counters[0].first);
  ASSERT_EQ(decoded.partitioners.size(), 1u);
  ASSERT_EQ(decoded.partitioners[0].window.size(), 1u);
  EXPECT_EQ(decoded.partitioners[0].window[0].id, 77u);
  EXPECT_EQ(decoded.parser.tags, state.parser.tags);
  ASSERT_EQ(decoded.tracker.periods.size(), 1u);
  EXPECT_EQ(decoded.tracker.periods.begin()->second[0].coefficient, 0.625);
  EXPECT_TRUE(decoded.disseminator.has_partitions);
  EXPECT_EQ(decoded.disseminator.partitions.partition_tags,
            state.disseminator.partitions.partition_tags);
  ASSERT_EQ(decoded.disseminator.uncovered_counts.size(), 1u);
  EXPECT_EQ(decoded.disseminator.uncovered_counts[0].second, -1);
  EXPECT_TRUE(decoded.merger.has_master);
  EXPECT_TRUE(decoded.merger.had_pending_rounds);
  EXPECT_EQ(decoded.serve_blob, state.serve_blob);
}

TEST(PipelineCheckpointCodec, FingerprintTracksSemanticKnobs) {
  const ops::PipelineConfig base =
      ElasticPipeline(stream::RuntimeKind::kSimulation);
  const uint64_t fp = ops::PipelineConfigFingerprint(base);
  EXPECT_EQ(fp, ops::PipelineConfigFingerprint(base));  // Deterministic.
  // Pinned values: checkpoints already written carry these fingerprints,
  // and restore refuses any other. Removing a knob must keep its old value
  // mixed in at its old position, or those checkpoints stop restoring.
  EXPECT_EQ(ops::PipelineConfigFingerprint(ops::PipelineConfig{}),
            0x1c8ec5d593cc129aull);
  EXPECT_EQ(fp, 0x5f9f7375df57dfa1ull);

  ops::PipelineConfig changed = base;
  changed.single_addition_threshold += 1;
  EXPECT_NE(ops::PipelineConfigFingerprint(changed), fp);
  changed = base;
  changed.num_calculators = 5;
  EXPECT_NE(ops::PipelineConfigFingerprint(changed), fp);
  changed = base;
  changed.forced_k_schedule = {4, 8, 4};
  EXPECT_NE(ops::PipelineConfigFingerprint(changed), fp);

  // Substrate knobs are execution detail, not semantics: a checkpoint
  // taken on one runtime restores on another.
  changed = base;
  changed.runtime = stream::RuntimeKind::kPool;
  changed.num_threads = 2;
  changed.queue_capacity = 64;
  EXPECT_EQ(ops::PipelineConfigFingerprint(changed), fp);
}

TEST(PipelineCheckpointCodec, CaptureListsEveryProvisionedCalculator) {
  // Ten provisioned Calculators, of which the forced schedule activates at
  // most eight: both substrates build all ten, so a capture after either
  // run lists instances 0..9 and the checkpoint does not depend on the
  // substrate it was taken on.
  ops::PipelineConfig pipeline =
      ElasticPipeline(stream::RuntimeKind::kSimulation);
  pipeline.max_calculators = 10;
  for (const stream::RuntimeKind kind :
       {stream::RuntimeKind::kSimulation, stream::RuntimeKind::kPool}) {
    SCOPED_TRACE(stream::RuntimeKindName(kind));
    pipeline.runtime = kind;
    stream::Topology<ops::Message> topology;
    const ops::TopologyHandles handles = ops::BuildCorrelationTopology(
        &topology,
        std::make_unique<ops::GeneratorSpout>(TopicPureWorkload(), kNumDocs),
        pipeline, nullptr, /*with_centralized_baseline=*/true);
    auto runtime = ops::MakeConfiguredRuntime(&topology, pipeline);
    runtime->Run(pipeline.report_period);
    EXPECT_GE(runtime->stats().tasks_spawned, 4u);  // The 4 -> 8 grow ran.
    for (int i = 0; i < 10; ++i) {
      EXPECT_NE(runtime->bolt(handles.calculator, i), nullptr) << i;
    }
    const ops::PipelineCheckpointState state = ops::CapturePipelineState(
        *runtime, handles, pipeline, kNumDocs, /*last_time=*/0);
    EXPECT_EQ(state.max_calculators, 10);
    ASSERT_EQ(state.calculators.size(), 10u);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(state.calculators[static_cast<size_t>(i)].instance, i);
    }
  }
}

// ---------------------------------------------------------------------------
// Driver surface: the experiment harness exposes the durability trail.

TEST(KillRestore, DriverRecordsCheckpointTrail) {
  storage::MemoryStorage::Global()->Clear();
  exp::ExperimentConfig config;
  config.label = "durable";
  config.pipeline = ElasticPipeline(stream::RuntimeKind::kSimulation);
  config.generator = TopicPureWorkload();
  config.num_documents = kNumDocs;
  config.series_stride = 5000;
  config.with_serve_index = true;
  config.checkpoint_uri = "mem://driver_trail";
  config.checkpoint_every_docs = kEveryDocs;
  const exp::ExperimentResult result = exp::RunExperiment(config);
  EXPECT_EQ(result.checkpoint.checkpoints_written, 3u);
  EXPECT_EQ(result.checkpoint.checkpoints_failed, 0u);
  EXPECT_GT(result.checkpoint.checkpoint_bytes, 0u);
  EXPECT_EQ(result.checkpoint.events.size(), 3u);
  EXPECT_FALSE(result.checkpoint.restored);
  EXPECT_EQ(result.serve_mismatches, 0u);

  // Second run restores from the first one's store and finishes clean —
  // the serve index (restored from the blob) still validates against the
  // tracker bit-identically.
  exp::ExperimentConfig resume = config;
  resume.checkpoint_uri.clear();
  resume.checkpoint_every_docs = 0;
  resume.restore_uri = "mem://driver_trail";
  const exp::ExperimentResult resumed = exp::RunExperiment(resume);
  EXPECT_TRUE(resumed.checkpoint.restored);
  EXPECT_EQ(resumed.checkpoint.restored_docs, 3 * kEveryDocs);
  EXPECT_GT(resumed.checkpoint.restore_chunks, 0u);
  EXPECT_EQ(resumed.serve_mismatches, 0u);
}

TEST(KillRestore, DriverReportsNoAccuracyAfterRestore) {
  // The restored run's collector sees only the documents after the cut, so
  // its oracle compares no tagset: coverage and error read NaN, not a 0
  // that looks like a measured failure. The uninterrupted run measures.
  storage::MemoryStorage::Global()->Clear();
  exp::ExperimentConfig config = exp::PaperBaseConfig();
  config.pipeline.window_span = kMillisPerMinute;
  config.pipeline.report_period = kMillisPerMinute;
  config.pipeline.bootstrap_time = kMillisPerMinute;
  config.num_documents = 40000;
  config.checkpoint_uri = "mem://driver_accuracy";
  config.checkpoint_every_docs = 25000;
  const exp::ExperimentResult full = exp::RunExperiment(config);
  ASSERT_TRUE(full.error.empty()) << full.error;
  EXPECT_GT(full.compared_tagsets, 0u);
  EXPECT_GT(full.coverage, 0.0);
  EXPECT_GT(full.jaccard_error, 0.0);

  exp::ExperimentConfig resume = config;
  resume.checkpoint_uri.clear();
  resume.checkpoint_every_docs = 0;
  resume.restore_uri = "mem://driver_accuracy";
  const exp::ExperimentResult restored = exp::RunExperiment(resume);
  ASSERT_TRUE(restored.error.empty()) << restored.error;
  EXPECT_TRUE(restored.checkpoint.restored);
  EXPECT_EQ(restored.compared_tagsets, 0u);
  EXPECT_TRUE(std::isnan(restored.coverage));
  EXPECT_TRUE(std::isnan(restored.jaccard_error));
}

TEST(KillRestore, DriverReturnsRestoreErrorForMissingRoot) {
  // A failed restore is the run's result, not a process abort.
  storage::MemoryStorage::Global()->Clear();
  exp::ExperimentConfig config = exp::PaperBaseConfig();
  config.restore_uri = "mem://no_such_root";
  const exp::ExperimentResult result = exp::RunExperiment(config);
  EXPECT_NE(result.error.find("restore"), std::string::npos) << result.error;
  EXPECT_FALSE(result.checkpoint.restored);
  EXPECT_EQ(result.documents, 0u);
  EXPECT_EQ(result.compared_tagsets, 0u);
}

TEST(KillRestore, DriverReturnsRestoreErrorForFingerprintMismatch) {
  storage::MemoryStorage::Global()->Clear();
  exp::ExperimentConfig config;
  config.label = "mismatch";
  config.pipeline = ElasticPipeline(stream::RuntimeKind::kSimulation);
  config.generator = TopicPureWorkload();
  config.num_documents = 12000;
  config.with_centralized_baseline = false;
  config.checkpoint_uri = "mem://driver_mismatch";
  config.checkpoint_every_docs = 5000;
  const exp::ExperimentResult written = exp::RunExperiment(config);
  ASSERT_TRUE(written.error.empty()) << written.error;
  ASSERT_GT(written.checkpoint.checkpoints_written, 0u);

  // Same store, different semantics: the driver reports the refusal.
  exp::ExperimentConfig other = config;
  other.checkpoint_uri.clear();
  other.checkpoint_every_docs = 0;
  other.restore_uri = "mem://driver_mismatch";
  other.with_centralized_baseline = true;
  other.with_serve_index = true;
  other.pipeline.single_addition_threshold += 1;
  const exp::ExperimentResult result = exp::RunExperiment(other);
  EXPECT_NE(result.error.find("fingerprint"), std::string::npos)
      << result.error;
  EXPECT_FALSE(result.checkpoint.restored);
  EXPECT_EQ(result.documents, 0u);
  EXPECT_EQ(result.serve_lookups_checked, 0u);
}

}  // namespace
}  // namespace corrtrack
