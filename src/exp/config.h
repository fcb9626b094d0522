#ifndef CORRTRACK_EXP_CONFIG_H_
#define CORRTRACK_EXP_CONFIG_H_

#include <cstdint>
#include <string>

#include "gen/tweet_generator.h"
#include "ops/pipeline_config.h"

namespace corrtrack::exp {

/// One experiment run: the pipeline knobs (§8.1's k, P, thr; sn, z, W, y)
/// plus the workload (tps lives in the generator config) and the run
/// length.
///
/// Scale note: the paper replays 6 h of tweets (~1.4 M tagged documents,
/// Figures 8/9). The default here is a 10× shorter stream so the full
/// figure grid regenerates in minutes on a laptop; the shapes are stable
/// from ~10^5 documents on (see EXPERIMENTS.md).
struct ExperimentConfig {
  std::string label;
  ops::PipelineConfig pipeline;
  gen::GeneratorConfig generator;
  uint64_t num_documents = 140000;
  uint64_t series_stride = 10000;
  bool with_centralized_baseline = true;

  /// Attach a serve::CorrelationIndex to the Tracker and validate the
  /// served answers against the Tracker's own period maps after the run
  /// (ExperimentResult::serve_*). Off by default: the serving layer is not
  /// part of the paper's figures.
  bool with_serve_index = false;

  /// Durability (storage layer): write an epoch-consistent checkpoint to
  /// `checkpoint_uri` (file://…, mem://…) every `checkpoint_every_docs`
  /// ingested documents; both must be set for checkpointing to engage.
  /// `restore_uri` resumes from the newest valid checkpoint under that
  /// root before ingest starts; a missing or unreadable root or a
  /// config-fingerprint mismatch fails the run with
  /// ExperimentResult::error set — wrong state is worse than no state.
  std::string checkpoint_uri;
  uint64_t checkpoint_every_docs = 0;
  std::string restore_uri;

  /// Observability: attach a telemetry::PipelineTelemetry to the run —
  /// 1-in-`telemetry_sample_every` documents carry a trace span through
  /// the pipeline, every stage and substrate records into the run's
  /// metric registry, and the result surfaces per-stage / end-to-end
  /// latency percentiles plus full Prometheus and JSON snapshots
  /// (ExperimentResult::latency_stats and friends). Telemetry never
  /// changes what the pipeline computes — the period maps are
  /// bit-identical with it on or off (asserted by the differential test).
  bool with_telemetry = false;
  uint32_t telemetry_sample_every = 64;

  /// Applies the paper's tps parameter (raw tweets/second).
  void set_tps(double tps) { generator.tps = tps; }

  /// Selects the execution substrate for this experiment (the same sweep
  /// can then compare simulation vs pool on one workload).
  /// Non-simulation runs are concurrent and therefore not bit-repeatable;
  /// the figure experiments keep the deterministic default.
  void set_runtime(stream::RuntimeKind kind, int num_threads = 0) {
    pipeline.runtime = kind;
    pipeline.num_threads = num_threads;
  }
};

}  // namespace corrtrack::exp

#endif  // CORRTRACK_EXP_CONFIG_H_
