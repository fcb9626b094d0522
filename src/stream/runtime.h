#ifndef CORRTRACK_STREAM_RUNTIME_H_
#define CORRTRACK_STREAM_RUNTIME_H_

#include <cstdint>
#include <string_view>

#include "core/types.h"

namespace corrtrack::telemetry {
class MetricRegistry;
}  // namespace corrtrack::telemetry

namespace corrtrack::stream {

// The interface only names Bolt pointers; keeping the template layer out
// of this header keeps it cheap for the config/metrics headers that every
// ops/exp translation unit includes.
template <typename Message>
class Bolt;

/// The execution substrates a Topology can run on. Both share the engine
/// contract (per-edge FIFO, virtual-time ticks, forward-poison shutdown);
/// they differ in determinism and physical parallelism — see each
/// runtime's class comment and the README's "Execution runtimes" table.
enum class RuntimeKind {
  /// Deterministic discrete-event simulator (simulation.h). One thread,
  /// global FIFO cascades; experiments use it for exact repeatability.
  kSimulation,
  /// M tasks multiplexed onto N worker threads via per-task mailboxes and
  /// work stealing (pool_runtime.h). Physical parallelism decoupled from
  /// the topology's logical parallelism.
  kPool,
};

inline const char* RuntimeKindName(RuntimeKind kind) {
  switch (kind) {
    case RuntimeKind::kSimulation:
      return "simulation";
    case RuntimeKind::kPool:
      return "pool";
  }
  return "unknown";
}

/// Parses a --runtime flag value ("simulation"/"sim", "pool").
/// Returns false (and leaves *out untouched) on an unknown name.
inline bool ParseRuntimeKind(std::string_view name, RuntimeKind* out) {
  if (name == "simulation" || name == "sim") {
    *out = RuntimeKind::kSimulation;
    return true;
  }
  if (name == "pool") {
    *out = RuntimeKind::kPool;
    return true;
  }
  return false;
}

/// Dynamic-topology control surface every Runtime implements — the elastic
/// repartitioning hook (§7.3): the Merger grows the Calculator set before
/// broadcasting a wider PartitionSet, the Disseminator shrinks it after the
/// route-table swap and quiesce. Both substrates build every instance up
/// to the component's provisioned maximum (Topology::SetMaxParallelism)
/// up front; growing *activates* instances and shrinking retires them.
///
/// The active count only gates *routing* (shuffle / all / fields fan-out):
/// retired instances keep draining their queues — direct sends (the
/// install protocol's quiesce markers) and shutdown poisons still reach
/// them.
///
/// Thread-safety: ResizeComponent may be called from a bolt mid-run. The
/// caller must be upstream of the resized component's traffic (as the
/// Merger and Disseminator are of the Calculators), so the activation is
/// published to consumers through the message that triggers routing to the
/// new instances.
class TopologyControl {
 public:
  virtual ~TopologyControl() = default;

  /// Instances of `component` that routed (non-direct) traffic fans out
  /// over.
  virtual int ActiveParallelism(int component) const = 0;

  /// Provisioned instance ceiling of `component`
  /// (Topology::SetMaxParallelism; defaults to the build parallelism).
  virtual int MaxParallelism(int component) const = 0;

  /// Sets the live instance count of `component`, clamped to
  /// [1, MaxParallelism]. Returns the resulting active parallelism.
  virtual int ResizeComponent(int component, int target_parallelism) = 0;
};

/// Substrate knobs of the pool runtime. The simulator honours only
/// start_time and metrics (it has no queues and exactly one thread).
struct RuntimeOptions {
  /// Per-task input queue capacity (envelopes). Bounds the skew between
  /// producers and consumers: a full queue blocks the pusher
  /// (backpressure). Every task's mailbox gets exactly this budget.
  size_t queue_capacity = 4096;

  /// Pool runtime: worker threads. 0 = std::thread::hardware_concurrency.
  int num_threads = 0;

  /// Virtual time the stream resumes at (checkpoint restore): every tick
  /// schedule starts at the first boundary *strictly after* this instant
  /// instead of at one tick period. Without it, a Calculator restored with
  /// mid-period counters would see every boundary since virtual time zero
  /// fire as catch-up ticks on the first envelope and flush the restored
  /// counters under long-gone period ends. 0 = fresh stream (all runtimes
  /// honour it, including the simulator).
  Timestamp start_time = 0;

  /// Optional telemetry registry (telemetry/registry.h). When set, the
  /// substrate records live distributions — queue depth at every push,
  /// producer block-wait episodes, per-worker steal and delivery counts —
  /// into `runtime_*` histograms, complementing the end-of-run totals in
  /// RuntimeStats. nullptr (default) records nothing and costs nothing on
  /// the hot path beyond one pointer test.
  telemetry::MetricRegistry* metrics = nullptr;
};

/// First tick boundary a component with `period` fires after resuming at
/// `start_time`: strictly greater than start_time, so a boundary exactly at
/// the cut (which the pre-checkpoint run already fired) never re-fires.
inline Timestamp FirstTickAfter(Timestamp period, Timestamp start_time) {
  if (period <= 0) return 0;
  if (start_time <= 0) return period;
  return period * (start_time / period + 1);
}

/// Counters a runtime exposes after Run(), so backpressure and scheduling
/// behaviour are observable (exp::RunExperiment copies them into
/// ExperimentResult::runtime_stats).
struct RuntimeStats {
  /// Envelopes executed by bolt tasks (all components, all instances).
  uint64_t envelopes_moved = 0;
  /// Pool: task slices a worker took from another worker's queue, plus
  /// the queued slices the spout thread ran instead of waiting on a full
  /// mailbox (PoolRuntime::HelpOrWait).
  uint64_t steals = 0;
  /// Times a producer found a destination queue full and had to block
  /// (or, in the pool, help drain the destination inline).
  uint64_t queue_full_blocks = 0;
  /// High-water mark over every per-task queue (envelopes).
  uint64_t max_queue_depth = 0;
  /// Bounded-stall overflow escapes: a pusher made no progress against a
  /// full destination queue for the escape window (a cross-thread cycle of
  /// simultaneously full queues) and spilled over capacity to break it.
  /// Nonzero values mean queue_capacity is too small for the topology's
  /// feedback traffic.
  uint64_t stall_escapes = 0;
  /// Elastic repartitioning: instances activated and retired by
  /// TopologyControl::ResizeComponent during the run.
  uint64_t tasks_spawned = 0;
  uint64_t tasks_retired = 0;
  /// Physical threads that executed bolts (simulation: 1).
  int num_threads = 0;
  /// The queue capacity the runtime actually ran with (simulation: 0).
  size_t queue_capacity = 0;
};

/// Common contract of the execution substrates: build from a Topology,
/// Run() the spout to exhaustion with a post-stream tick horizon, then
/// expose the live bolts and counters. Concrete runtimes keep their
/// class-specific constructors; this interface is what layers above
/// (ops::MakeConfiguredRuntime, exp::RunExperiment, examples) program
/// against so a single Topology runs unchanged on any substrate. Every
/// runtime is also a TopologyControl, so bolts handed the control surface
/// (Bolt::AttachControl) can resize components mid-run.
///
/// Shutdown contract (all runtimes): when the spout is exhausted, every
/// message in flight, feedback included, is executed (so feedback cycles
/// must damp), and tick boundaries up to (last timestamp + flush_horizon)
/// still fire; in the pool a poison watermark then floods forward edges
/// and feedback messages emitted after it are dropped. Run() may be
/// called once.
template <typename Message>
class Runtime : public TopologyControl {
 public:
  ~Runtime() override = default;

  /// Runs the spout to exhaustion, fires ticks up to (last timestamp +
  /// flush_horizon) and — in the pool — joins all workers.
  virtual void Run(Timestamp flush_horizon) = 0;
  void Run() { Run(0); }

  /// The live bolt instance for (component, instance); callers downcast to
  /// the operator type they installed.
  virtual Bolt<Message>* bolt(int component, int instance) = 0;

  /// Tuples delivered to (executed by) the component's bolts.
  virtual uint64_t TuplesDelivered(int component) const = 0;

  virtual RuntimeKind kind() const = 0;

  /// Substrate counters; valid after Run() returned.
  virtual RuntimeStats stats() const = 0;
};

}  // namespace corrtrack::stream

#endif  // CORRTRACK_STREAM_RUNTIME_H_
