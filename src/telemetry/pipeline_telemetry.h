#ifndef CORRTRACK_TELEMETRY_PIPELINE_TELEMETRY_H_
#define CORRTRACK_TELEMETRY_PIPELINE_TELEMETRY_H_

#include <cstdint>

#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace corrtrack::telemetry {

/// One bundle wiring a whole pipeline run: the registry every component
/// records into, the document trace sampler, and pre-resolved handles for
/// the hot-path instruments so bolts never pay a registry lookup per
/// message. Attach via PipelineConfig::telemetry (bolts, and the checkpoint
/// runner's storage timing), RuntimeOptions::metrics (substrates) and
/// CorrelationIndex::AttachTelemetry (serve queries).
///
/// Metric catalogue (all durations in microseconds):
///   corrtrack_docs_parsed_total            raw documents through the Parser
///   corrtrack_docs_sampled_total           documents stamped with a trace
///   corrtrack_docs_rejected_total{reason="too_many_tags"}
///                                          Parser drops: more than
///                                          kMaxTagsPerDocument distinct tags
///   corrtrack_tag_dictionary_size          tags the Parser has interned
///                                          (gauge; see tag_dictionary_size)
///   corrtrack_notifications_routed_total   Disseminator -> Calculator sends
///   corrtrack_reports_tracked_total        JaccardReports into the Tracker
///   corrtrack_stage_proc_us{stage=...}     per-stage processing time
///   corrtrack_stage_dwell_us{stage=...}    queue dwell before the stage
///   corrtrack_doc_e2e_us                   Parser -> Calculator wall time
///   corrtrack_doc_virtual_lag              virtual-time lag at observation
///   corrtrack_report_e2e_us                Calculator tick -> Tracker wall
///   corrtrack_report_virtual_lag           period close -> Tracker virtual
struct PipelineTelemetry {
  explicit PipelineTelemetry(uint32_t sample_every = 64)
      : sampler(sample_every),
        docs_parsed(registry.GetCounter("corrtrack_docs_parsed_total")),
        docs_sampled(registry.GetCounter("corrtrack_docs_sampled_total")),
        docs_rejected_too_many_tags(registry.GetCounter(
            "corrtrack_docs_rejected_total{reason=\"too_many_tags\"}")),
        tag_dictionary_size(
            registry.GetGauge("corrtrack_tag_dictionary_size")),
        notifications_routed(
            registry.GetCounter("corrtrack_notifications_routed_total")),
        reports_tracked(
            registry.GetCounter("corrtrack_reports_tracked_total")),
        parser_proc(registry.GetHistogram(
            "corrtrack_stage_proc_us{stage=\"parser\"}")),
        diss_dwell(registry.GetHistogram(
            "corrtrack_stage_dwell_us{stage=\"disseminator\"}")),
        diss_proc(registry.GetHistogram(
            "corrtrack_stage_proc_us{stage=\"disseminator\"}")),
        calc_dwell(registry.GetHistogram(
            "corrtrack_stage_dwell_us{stage=\"calculator\"}")),
        calc_proc(registry.GetHistogram(
            "corrtrack_stage_proc_us{stage=\"calculator\"}")),
        tracker_dwell(registry.GetHistogram(
            "corrtrack_stage_dwell_us{stage=\"tracker\"}")),
        tracker_proc(registry.GetHistogram(
            "corrtrack_stage_proc_us{stage=\"tracker\"}")),
        doc_e2e(registry.GetHistogram("corrtrack_doc_e2e_us")),
        doc_virtual_lag(registry.GetHistogram("corrtrack_doc_virtual_lag")),
        report_e2e(registry.GetHistogram("corrtrack_report_e2e_us")),
        report_virtual_lag(
            registry.GetHistogram("corrtrack_report_virtual_lag")),
        checkpoints_written(
            registry.GetCounter("corrtrack_checkpoints_written_total")),
        checkpoints_failed(
            registry.GetCounter("corrtrack_checkpoints_failed_total")),
        storage_retries(
            registry.GetCounter("corrtrack_storage_retries_total")),
        checkpoint_write_us(
            registry.GetHistogram("corrtrack_checkpoint_write_us")),
        checkpoint_restore_us(
            registry.GetHistogram("corrtrack_checkpoint_restore_us")) {}

  MetricRegistry registry;
  TraceSampler sampler;

  Counter* docs_parsed;
  Counter* docs_sampled;
  Counter* docs_rejected_too_many_tags;
  /// Entries in the Parser's TagDictionary, set after each document that
  /// interns a new tag. The dictionary never forgets an accepted tag, so
  /// it grows by one entry per distinct tag ever seen in an accepted
  /// document (a dropped document's new tags are rolled back); memory is
  /// bounded only by the tag universe of the stream.
  Gauge* tag_dictionary_size;
  Counter* notifications_routed;
  Counter* reports_tracked;

  LatencyHistogram* parser_proc;
  LatencyHistogram* diss_dwell;
  LatencyHistogram* diss_proc;
  LatencyHistogram* calc_dwell;
  LatencyHistogram* calc_proc;
  LatencyHistogram* tracker_dwell;
  LatencyHistogram* tracker_proc;
  LatencyHistogram* doc_e2e;
  LatencyHistogram* doc_virtual_lag;
  LatencyHistogram* report_e2e;
  LatencyHistogram* report_virtual_lag;

  // Storage checkpoint path (ops/checkpoint_runner.cc).
  Counter* checkpoints_written;
  Counter* checkpoints_failed;
  Counter* storage_retries;
  LatencyHistogram* checkpoint_write_us;
  LatencyHistogram* checkpoint_restore_us;
};

}  // namespace corrtrack::telemetry

#endif  // CORRTRACK_TELEMETRY_PIPELINE_TELEMETRY_H_
