#ifndef CORRTRACK_OPS_CHECKPOINT_RUNNER_H_
#define CORRTRACK_OPS_CHECKPOINT_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ops/messages.h"
#include "ops/metrics_sink.h"
#include "ops/period_sink.h"
#include "ops/pipeline_checkpoint.h"
#include "ops/pipeline_config.h"
#include "ops/topology_builder.h"
#include "storage/checkpoint.h"
#include "storage/fault_injection.h"
#include "stream/runtime.h"
#include "stream/topology.h"

namespace corrtrack::ops {

/// Segmented-run checkpointing: the driver splits ingest into segments of
/// `every_docs` documents and runs each as a bounded Run(flush_horizon=0).
/// The engine's end-of-stream drain *is* the epoch cut — every queue empty,
/// every in-flight feedback message accounted for by the shutdown contract
/// — so the state captured between segments is exactly the state a single
/// uninterrupted run would have passed through at that spout position. The
/// next segment rebuilds the topology with the captured state injected via
/// the bolt factories and resumes the virtual-time tick schedule at the
/// cut's timestamp (MakeConfiguredRuntime's `start_time`); a checkpointed
/// run and a restored run are therefore the same computation by
/// construction, which the kill-restore differential tests verify against
/// the centralised oracle.
///
/// Durability is decoupled from correctness: the captured state continues
/// the live pipeline in memory whether or not the write commits, so a
/// failed checkpoint (ENOSPC, torn rename, exhausted retries) degrades
/// gracefully — logged, counted, previous durable checkpoint untouched —
/// and never stalls or corrupts ingest.
///
/// Checkpoint write/restore timing and outcome counters are recorded into
/// PipelineConfig::telemetry when it is set. Retention and the restore
/// fan-out are the CheckpointWriter's and CheckpointReader's defaults.
struct CheckpointRunnerOptions {
  /// Storage URI checkpoints are written to (file://…, mem://…); empty or
  /// `every_docs == 0` disables checkpointing.
  std::string checkpoint_uri;
  uint64_t every_docs = 0;

  /// Storage URI to restore the newest valid checkpoint from before ingest
  /// starts; empty = fresh run. Restore refuses a config-fingerprint
  /// mismatch and fails the run (never silently computes on wrong state).
  std::string restore_uri;

  storage::RetryPolicy retry;  ///< Transient-error policy for I/O.

  /// Fault schedule injected under the checkpoint *writer* (the
  /// degradation tests). Restore reads are not wrapped: read-side fault
  /// handling is exercised against the storage layer directly.
  storage::FaultPlan faults;

  /// Serving-layer bridge (optional, both or neither): export is called at
  /// every capture and its blob rides in the checkpoint's "serve" section;
  /// restore is handed the blob before ingest resumes. Keeps this layer
  /// free of a serve:: dependency — exp::RunExperiment binds the index.
  std::function<void(std::string*)> export_serve;
  std::function<bool(std::string_view)> restore_serve;
};

/// One checkpoint attempt, for the experiment trail.
struct CheckpointEvent {
  uint64_t seq = 0;
  uint64_t docs_ingested = 0;
  uint64_t bytes = 0;
  uint64_t chunks = 0;
  bool ok = false;
  Timestamp time = 0;
};

/// Outcome counters and the per-attempt trail of one run (also the
/// durability record of exp::ExperimentResult::checkpoint).
struct CheckpointRunStats {
  uint64_t checkpoints_written = 0;
  uint64_t checkpoints_failed = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t checkpoint_chunks = 0;
  uint64_t restore_chunks = 0;
  uint64_t storage_retries = 0;
  uint64_t storage_faults_injected = 0;
  bool restored = false;
  uint64_t restored_seq = 0;
  uint64_t restored_docs = 0;
  std::vector<CheckpointEvent> events;
};

/// The finished run: the final segment's runtime (Run() returned; bolts
/// inspectable via `handles`) plus the checkpoint trail. The topology must
/// outlive the runtime, hence both travel together.
struct CheckpointedRun {
  std::unique_ptr<stream::Topology<Message>> topology;
  std::unique_ptr<stream::Runtime<Message>> runtime;
  TopologyHandles handles;
  uint64_t docs_ingested = 0;
  Timestamp last_time = 0;
  CheckpointRunStats stats;
};

/// Runs `spout` to exhaustion through the Fig. 2 topology under the
/// segmented checkpoint protocol above. `final_flush_horizon` is the tick
/// horizon of the *last* segment (mid-run cuts always use 0 — the cut must
/// not flush future periods). Returns false only on a restore failure
/// (unreadable/corrupt checkpoint store or fingerprint mismatch) with the
/// reason in `*error`; checkpoint WRITE failures degrade gracefully and
/// never fail the run.
bool RunCheckpointedPipeline(std::unique_ptr<stream::Spout<Message>> spout,
                             const PipelineConfig& config,
                             const CheckpointRunnerOptions& options,
                             MetricsSink* metrics,
                             bool with_centralized_baseline,
                             PeriodSink* tracker_sink,
                             PeriodSink* baseline_sink,
                             Timestamp final_flush_horizon,
                             CheckpointedRun* out, std::string* error);

}  // namespace corrtrack::ops

#endif  // CORRTRACK_OPS_CHECKPOINT_RUNNER_H_
