#ifndef CORRTRACK_EXP_DRIVER_H_
#define CORRTRACK_EXP_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/metrics.h"
#include "ops/checkpoint_runner.h"
#include "stream/runtime.h"

namespace corrtrack::exp {

/// One latency histogram of a telemetry-enabled run, reduced to the
/// percentiles the result surface reports (µs except the serve query
/// histograms, which are ns — the unit is in the name).
struct LatencyStat {
  std::string name;
  uint64_t count = 0;
  double mean = 0.0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;
};

/// Everything the evaluation section reports, for one run.
struct ExperimentResult {
  std::string label;

  /// Why the run did not complete (a failed restore: missing or corrupt
  /// checkpoint store, fingerprint mismatch); empty on success. A failed
  /// run carries only `label`, `error` and `checkpoint` — nothing ran, so
  /// the metrics and oracles below are left at their defaults.
  std::string error;

  // Figure 3: communication.
  double avg_communication = 0.0;
  // Figure 4: load distribution.
  double load_gini = 0.0;
  double max_load_share = 0.0;
  // Figure 5: accuracy vs the centralised baseline (tagsets with more than
  // sn occurrences in a reporting period). A run with the baseline whose
  // oracle compared no tagset has no accuracy data and reads quiet NaN in
  // both, not 0: a run too short to install partitions, or one restored
  // from a checkpoint that installs none after the cut (the collector sees
  // only the documents after it).
  double jaccard_error = 0.0;
  double coverage = 0.0;  // Fraction of baseline tagsets with a reported J.
  uint64_t compared_tagsets = 0;
  // Figure 6: repartitions by cause.
  uint64_t repartitions_communication = 0;
  uint64_t repartitions_load = 0;
  uint64_t repartitions_both = 0;
  uint64_t TotalRepartitions() const {
    return repartitions_communication + repartitions_load +
           repartitions_both;
  }
  // §7.1 dynamics.
  uint64_t single_additions = 0;
  uint64_t partitions_installed = 0;

  // Elastic repartitioning (§7.3 tentpole): every resize of the live
  // Calculator set, the epoch trail, and where k ended up — enough to
  // plot k tracking load (SeriesSample::active_calculators has the
  // per-segment series).
  std::vector<TopologyResizeEvent> resize_events;
  uint64_t topology_resizes = 0;
  uint64_t epochs_installed = 0;  // Newest epoch (== installs on one run).
  int initial_calculators = 0;
  int final_calculators = 0;
  int peak_calculators = 0;

  uint64_t documents = 0;

  // Execution substrate of the run and its backpressure counters
  // (Runtime::stats() after the run): which runtime executed the topology,
  // envelopes moved, steals, queue-full blocks, max queue depth.
  stream::RuntimeKind runtime = stream::RuntimeKind::kSimulation;
  stream::RuntimeStats runtime_stats;

  // Serving-layer validation (ExperimentConfig::with_serve_index): the
  // CorrelationIndex that ingested the Tracker's reports is checked
  // against the Tracker's period maps — every tagset of the newest period
  // must Lookup bit-identically, and every served entry must equal the
  // Tracker's value for its reporting period.
  uint64_t serve_sets = 0;             // Distinct sets servable at the end.
  uint64_t serve_lookups_checked = 0;  // Oracle comparisons performed.
  uint64_t serve_mismatches = 0;       // Disagreements (0 on a sound serve).

  // Figures 8/9 time series.
  std::vector<SeriesSample> series;

  // Durability (storage layer): the checkpoint runner's outcome counters
  // and per-attempt trail (ExperimentConfig::checkpoint_uri and friends).
  // All zero / empty when the run was neither checkpointed nor restored.
  ops::CheckpointRunStats checkpoint;

  // Observability (ExperimentConfig::with_telemetry): every latency
  // histogram the run recorded — per-stage dwell/processing, doc and
  // report end-to-end, runtime queue depths, serve query latency — as
  // p50/p90/p99 rows, plus the full registry rendered both ways. All
  // empty when telemetry is off.
  std::vector<LatencyStat> latency_stats;
  std::string telemetry_json;
  std::string telemetry_prometheus;
};

/// Builds the Fig. 2 topology for `config`, streams the synthetic workload
/// through the substrate the config selects (deterministic simulation by
/// default; the pool for concurrent runs), and assembles the
/// result (including the tracker-vs-centralised error comparison of
/// §8.2.3).
ExperimentResult RunExperiment(const ExperimentConfig& config);

}  // namespace corrtrack::exp

#endif  // CORRTRACK_EXP_DRIVER_H_
