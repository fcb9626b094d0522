#ifndef CORRTRACK_OPS_PIPELINE_CONFIG_H_
#define CORRTRACK_OPS_PIPELINE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/jaccard.h"
#include "core/partitioning.h"
#include "core/types.h"
#include "stream/runtime.h"

namespace corrtrack::telemetry {
struct PipelineTelemetry;
}  // namespace corrtrack::telemetry

namespace corrtrack::ops {

/// Knobs of the Fig. 2 topology, defaults per §8.2: P=10, k=10, thr=0.5,
/// sn=3, quality statistics every 1000 notified tagsets, coefficients
/// reported every 5 minutes, partitions built from the last 5 minutes.
struct PipelineConfig {
  AlgorithmKind algorithm = AlgorithmKind::kDS;

  /// k: number of partitions == number of Calculators.
  int num_calculators = 10;

  /// P: number of Partitioner instances.
  int num_partitioners = 10;

  /// thr: repartition when avgCom' or maxLoad' exceeds the reference by
  /// more than this relative margin (0.5 = 50 % worse).
  double repartition_threshold = 0.5;

  /// sn: occurrences of an uncovered tagset before a Single Addition.
  int single_addition_threshold = 3;

  /// z: notified tagsets per quality-statistics batch.
  int quality_batch_size = 1000;

  /// Repartition latency, expressed in documents: in the real deployment,
  /// creating + merging + installing partitions takes seconds while the
  /// stream keeps flowing; the Disseminator cannot observe a violation of
  /// the *new* partitions during that time. The deterministic simulator
  /// installs instantly, so it skips quality accounting for this many
  /// documents after each install. The paper's measured cadence of "one
  /// repartition every 2750 processed documents" for SCL/SCI (§8.2.5) is
  /// z = 1000 violation detection plus ≈ 1750 documents of creation
  /// latency (≈ 13 s at 130 tagged docs/s).
  int repartition_latency_docs = 1750;

  /// W: Partitioner window span (time-based, > 0).
  Timestamp window_span = 5 * kMillisPerMinute;

  /// y: Calculator reporting period.
  Timestamp report_period = 5 * kMillisPerMinute;

  /// Virtual time at which the Disseminator requests the initial
  /// partitions (the Partitioners need one filled window first).
  Timestamp bootstrap_time = 5 * kMillisPerMinute;

  /// Seed for the algorithms' randomised choices (SCI phase 2).
  uint64_t seed = 7;

  /// §7.3 topology scaling: when `elastic.enabled`, the Merger chooses
  /// every round's partition count from the cost-model target-k policy
  /// (core/partitioning.h) and resizes the live Calculator set through
  /// stream::TopologyControl — activating instances up to
  /// `max_calculators` and retiring them (with a quiesce state-flush) when
  /// k shrinks. `num_calculators` stays the initial k.
  ElasticPolicy elastic;

  /// Provisioned Calculator ceiling for elastic resize; 0 or values below
  /// `num_calculators` mean num_calculators (static topology). Every
  /// provisioned instance is built with the runtime; the live count is a
  /// routing mask over them.
  int max_calculators = 0;

  int EffectiveMaxCalculators() const {
    return max_calculators > num_calculators ? max_calculators
                                             : num_calculators;
  }

  /// Experiment/test hook: routed-document counts at which the
  /// Disseminator requests a repartition unconditionally (ascending;
  /// rounds fire after the initial bootstrap install exists). Drives
  /// deterministic resize schedules — e.g. the k: 4->8->3 differential
  /// test — without waiting for a quality violation.
  std::vector<uint64_t> forced_repartition_docs;

  /// Experiment/test hook: epoch e (1-based) installs
  /// forced_k_schedule[e-1] partitions (clamped to the provisioned
  /// maximum) instead of the policy's choice. Epochs beyond the schedule
  /// fall back to the configured policy.
  std::vector<int> forced_k_schedule;

  /// Duplicate-estimate merge rule of the Tracker (a serving index stores
  /// what it settles on): the paper's max-CN heuristic by default, or the
  /// additive merge that is exact for disjoint partitionings (DS only) and
  /// makes resize-split partial reports sum to the centralised oracle's
  /// counts — see core/jaccard.h's EstimateMerge.
  EstimateMerge tracker_merge = EstimateMerge::kMaxCN;

  /// Execution substrate (stream/runtime.h): which runtime
  /// MakeConfiguredRuntime instantiates for this pipeline. The simulator is
  /// the deterministic default the experiments rely on; the pool runs the
  /// identical topology on real concurrency.
  stream::RuntimeKind runtime = stream::RuntimeKind::kSimulation;

  /// Pool runtime worker threads; 0 = hardware concurrency. Ignored by the
  /// simulation runtime (always 1).
  int num_threads = 0;

  /// Per-task input queue capacity for the pool runtime (envelopes;
  /// bounds producer/consumer skew — a full queue backpressures the
  /// pusher). Must be > 0 on the pool. Ignored by the simulation runtime.
  size_t queue_capacity = 4096;

  /// Optional observability bundle (telemetry/pipeline_telemetry.h): when
  /// set, the Parser samples trace spans, every stage records dwell/proc
  /// histograms, MakeConfiguredRuntime hands the bundle's registry to the
  /// substrate, and the checkpoint runner records its write/restore timing
  /// and outcome counters. Borrowed, not owned; must outlive the run. Not
  /// part of the checkpoint fingerprint — observability does not change
  /// semantics.
  telemetry::PipelineTelemetry* telemetry = nullptr;
};

}  // namespace corrtrack::ops

#endif  // CORRTRACK_OPS_PIPELINE_CONFIG_H_
