#include "exp/driver.h"

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "ops/centralized.h"
#include "ops/source.h"
#include "ops/topology_builder.h"
#include "ops/tracker_op.h"
#include "serve/correlation_index.h"
#include "serve/index_sink.h"
#include "stream/runtime.h"
#include "telemetry/exposition.h"
#include "telemetry/log.h"
#include "telemetry/pipeline_telemetry.h"

namespace corrtrack::exp {

namespace {

/// §8.2.3's two measures.
///
/// Error: average |J_distributed − J_centralised| over period-matched
/// tagsets (the baseline only reports tagsets seen more than sn times in
/// the period). Periods that ended before the first partitions existed are
/// skipped — the distributed system was not running yet.
///
/// Coverage: the paper's "coefficient computed for more than 97 % of the
/// tagsets seen more than 3 times in the input" — a tagset counts as
/// covered when the Tracker reported it in *any* period, not necessarily
/// the same one the baseline did (single additions lag by sn sightings, so
/// the first report can land one period late).
void CompareAgainstBaseline(const ops::TrackerBolt& tracker,
                            const ops::CentralizedBolt& baseline,
                            Timestamp first_full_period_end,
                            ExperimentResult* result) {
  std::unordered_map<TagSet, bool, TagSetHash> ever_tracked;
  for (const auto& [period_end, results] : tracker.periods()) {
    for (const auto& [tags, estimate] : results) {
      ever_tracked[tags] = true;
    }
  }
  double error_sum = 0.0;
  uint64_t matched = 0;
  std::unordered_map<TagSet, bool, TagSetHash> baseline_tagsets;
  for (const auto& [period_end, base_results] : baseline.periods()) {
    if (period_end < first_full_period_end) continue;
    const auto tracker_period_it = tracker.periods().find(period_end);
    for (const auto& [tags, base_estimate] : base_results) {
      auto [slot, inserted] = baseline_tagsets.emplace(tags, false);
      if (ever_tracked.count(tags) > 0) slot->second = true;
      if (tracker_period_it == tracker.periods().end()) continue;
      const auto it = tracker_period_it->second.find(tags);
      if (it == tracker_period_it->second.end()) continue;
      ++matched;
      error_sum +=
          std::abs(it->second.coefficient - base_estimate.coefficient);
    }
  }
  uint64_t covered = 0;
  for (const auto& [tags, was_tracked] : baseline_tagsets) {
    if (was_tracked) ++covered;
  }
  result->compared_tagsets = matched;
  result->jaccard_error = matched > 0 ? error_sum / matched : 0.0;
  result->coverage = baseline_tagsets.empty()
                         ? 0.0
                         : static_cast<double>(covered) /
                               static_cast<double>(baseline_tagsets.size());
}

/// Differential oracle for the serving layer: every answer the
/// CorrelationIndex serves must be bit-identical to the Tracker's period
/// maps — same coefficient, same counters, same period — and the newest
/// period must be served completely (nothing newer can have overwritten
/// it). Retention may legitimately have dropped *older* periods, so
/// completeness is only asserted on the newest one.
void ValidateServeIndex(const serve::CorrelationIndex& index,
                        const ops::TrackerBolt& tracker,
                        ExperimentResult* result) {
  serve::CorrelationIndex::Reader reader = index.NewReader();
  result->serve_sets = reader.TotalSets();

  std::vector<serve::ScoredSet> served;
  reader.Snapshot(0.0, &served);
  for (const serve::ScoredSet& scored : served) {
    ++result->serve_lookups_checked;
    const std::optional<serve::LookupResult> lookup =
        reader.Lookup(scored.tags);
    const auto period_it = tracker.periods().find(scored.period_end);
    if (!lookup.has_value() || period_it == tracker.periods().end()) {
      ++result->serve_mismatches;
      continue;
    }
    const auto entry_it = period_it->second.find(scored.tags);
    if (entry_it == period_it->second.end() ||
        entry_it->second.coefficient != lookup->coefficient ||
        entry_it->second.intersection_count != lookup->intersection_count ||
        entry_it->second.union_count != lookup->union_count) {
      ++result->serve_mismatches;
    }
  }

  if (tracker.periods().empty()) return;
  const auto& [newest_period, newest_results] = *tracker.periods().rbegin();
  for (const auto& [tags, estimate] : newest_results) {
    ++result->serve_lookups_checked;
    const std::optional<serve::LookupResult> lookup = reader.Lookup(tags);
    if (!lookup.has_value() || lookup->period_end != newest_period ||
        lookup->coefficient != estimate.coefficient ||
        lookup->intersection_count != estimate.intersection_count ||
        lookup->union_count != estimate.union_count) {
      ++result->serve_mismatches;
    }
  }
}

/// Reduces the run's registry to the result surface: one LatencyStat per
/// recorded histogram (empty series are dropped — a substrate that never
/// blocked has no block-wait row) plus both full renderings.
void HarvestTelemetry(const telemetry::MetricRegistry& registry,
                      ExperimentResult* result) {
  const telemetry::MetricsSnapshot snapshot = registry.Snapshot();
  for (const auto& sample : snapshot.histograms) {
    if (sample.hist.count == 0) continue;
    LatencyStat stat;
    stat.name = sample.name;
    stat.count = sample.hist.count;
    stat.mean = sample.hist.mean();
    stat.p50 = sample.hist.ValueAtQuantile(0.5);
    stat.p90 = sample.hist.ValueAtQuantile(0.9);
    stat.p99 = sample.hist.ValueAtQuantile(0.99);
    stat.max = sample.hist.max;
    result->latency_stats.push_back(std::move(stat));
  }
  result->telemetry_json = telemetry::RenderJson(snapshot);
  result->telemetry_prometheus = telemetry::RenderPrometheus(snapshot);
}

}  // namespace

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  MetricsCollector metrics(config.pipeline.EffectiveMaxCalculators(),
                           config.series_stride,
                           config.pipeline.num_calculators);

  // Telemetry wiring happens on a config copy: the bundle lives on this
  // frame, outliving every borrower (bolts, runtime, checkpoint runner,
  // serving index, collector).
  std::unique_ptr<telemetry::PipelineTelemetry> telemetry;
  ops::PipelineConfig pipeline = config.pipeline;
  if (config.with_telemetry) {
    telemetry = std::make_unique<telemetry::PipelineTelemetry>(
        config.telemetry_sample_every);
    pipeline.telemetry = telemetry.get();
  }

  auto spout = std::make_unique<ops::GeneratorSpout>(config.generator,
                                                     config.num_documents);
  std::unique_ptr<serve::CorrelationIndex> serve_index;
  std::unique_ptr<serve::IndexSink> serve_sink;
  if (config.with_serve_index) {
    serve_index = std::make_unique<serve::CorrelationIndex>();
    if (telemetry != nullptr) {
      serve_index->AttachTelemetry(&telemetry->registry);
    }
    serve_sink = std::make_unique<serve::IndexSink>(serve_index.get());
  }

  // One run shape: the segmented checkpoint/restore protocol
  // (ops/checkpoint_runner.h), which without a checkpoint or restore URI
  // runs a single segment with the final flush horizon.
  ops::CheckpointRunnerOptions options;
  options.checkpoint_uri = config.checkpoint_uri;
  options.every_docs = config.checkpoint_every_docs;
  options.restore_uri = config.restore_uri;
  if (serve_index != nullptr) {
    serve::CorrelationIndex* index = serve_index.get();
    options.export_serve = [index](std::string* out) {
      index->ExportState(out);
    };
    options.restore_serve = [index](std::string_view blob) {
      return index->RestoreState(blob);
    };
  }
  ops::CheckpointedRun run;
  ExperimentResult result;
  result.label = config.label;
  const bool ok = ops::RunCheckpointedPipeline(
      std::move(spout), pipeline, options, &metrics,
      config.with_centralized_baseline, serve_sink.get(),
      /*baseline_sink=*/nullptr,
      /*final_flush_horizon=*/config.pipeline.report_period, &run,
      &result.error);
  result.checkpoint = std::move(run.stats);
  if (!ok) {
    CORRTRACK_LOG(kError, "exp", "RunExperiment: %s", result.error.c_str());
    return result;
  }
  stream::Runtime<ops::Message>& runtime = *run.runtime;
  const ops::TopologyHandles& handles = run.handles;
  metrics.FinishSeries();

  result.runtime = runtime.kind();
  result.runtime_stats = runtime.stats();
  result.documents = metrics.docs_routed();
  result.avg_communication = metrics.AvgCommunication();
  result.load_gini = metrics.LoadGini();
  result.max_load_share = metrics.MaxLoadShare();
  result.repartitions_communication =
      metrics.CountRepartitions(ops::kCauseCommunication);
  result.repartitions_load = metrics.CountRepartitions(ops::kCauseLoad);
  result.repartitions_both = metrics.CountRepartitions(
      ops::kCauseCommunication | ops::kCauseLoad);
  result.single_additions = metrics.single_additions();
  result.partitions_installed = metrics.installs();
  result.resize_events = metrics.resize_events();
  result.topology_resizes = metrics.resize_events().size();
  result.epochs_installed = metrics.max_epoch();
  result.initial_calculators = config.pipeline.num_calculators;
  result.final_calculators = metrics.current_calculators();
  result.peak_calculators = metrics.peak_calculators();
  result.series = metrics.series();

  if (config.with_centralized_baseline && metrics.any_install()) {
    const auto* tracker = static_cast<ops::TrackerBolt*>(
        runtime.bolt(handles.tracker, 0));
    const auto* baseline = static_cast<ops::CentralizedBolt*>(
        runtime.bolt(handles.centralized, 0));
    // First period whose full span the distributed system observed.
    const Timestamp period = config.pipeline.report_period;
    const Timestamp install = metrics.first_install_time();
    const Timestamp first_full_period_end =
        ((install + period - 1) / period + 1) * period;
    CompareAgainstBaseline(*tracker, *baseline, first_full_period_end,
                           &result);
  }
  if (config.with_centralized_baseline && result.compared_tagsets == 0) {
    result.coverage = std::numeric_limits<double>::quiet_NaN();
    result.jaccard_error = std::numeric_limits<double>::quiet_NaN();
  }
  if (serve_index != nullptr) {
    const auto* tracker = static_cast<ops::TrackerBolt*>(
        runtime.bolt(handles.tracker, 0));
    ValidateServeIndex(*serve_index, *tracker, &result);
  }
  if (telemetry != nullptr) {
    // Harvest AFTER the serve validation above so the serve query
    // histograms the oracle pass exercised are part of the surface.
    HarvestTelemetry(telemetry->registry, &result);
  }
  return result;
}

}  // namespace corrtrack::exp
