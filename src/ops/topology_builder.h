#ifndef CORRTRACK_OPS_TOPOLOGY_BUILDER_H_
#define CORRTRACK_OPS_TOPOLOGY_BUILDER_H_

#include <memory>

#include "ops/checkpoint_state.h"
#include "ops/messages.h"
#include "ops/metrics_sink.h"
#include "ops/period_sink.h"
#include "ops/pipeline_config.h"
#include "stream/runtime.h"
#include "stream/topology.h"

namespace corrtrack::ops {

/// Component ids of the built topology, for post-run state inspection.
struct TopologyHandles {
  int source = -1;
  int parser = -1;
  int partitioner = -1;
  int merger = -1;
  int disseminator = -1;
  int calculator = -1;
  int tracker = -1;
  int centralized = -1;  // -1 when the baseline is disabled.
};

/// Wires the Fig. 2 topology:
///
///   source -> parser(1) --shuffle--> disseminator(1)
///                        --fields(tagset)--> partitioner(P)
///                        --global--> centralized(1)       [baseline]
///   partitioner --global--> merger(1)
///   merger --all--> disseminator                          [partitions]
///   disseminator --direct--> calculator(k)                [notifications,
///                                                 quiesce, counter inject]
///   disseminator --all--> partitioner                     [repartition]
///   disseminator --global--> merger                       [uncovered]
///   calculator --global--> disseminator                   [counter handoff]
///   calculator --global--> tracker(1)
///
/// calculator's parallelism is elastic: k live instances out of
/// max_calculators provisioned (stream::TopologyControl; the Merger grows
/// the set before an install broadcast, the Disseminator quiesces and
/// retires after the route-table swap).
///
/// `spout` becomes the source; `metrics` may be null. When
/// `with_centralized_baseline` is false the baseline bolt is omitted
/// (examples don't need it; the error experiments do).
///
/// `tracker_sink` / `baseline_sink` (both optional) attach PeriodSink
/// observers to the Tracker and the Centralized baseline — the serving
/// layer's ingest hooks (serve::IndexSink). Each sink is driven by exactly
/// one bolt task, satisfying a CorrelationIndex's single-writer contract.
///
/// `restore` (optional) injects a checkpoint's captured state through the
/// bolt factories: every bolt a factory constructs applies its matching
/// state struct before the runtime ever schedules it, so a restored
/// topology resumes exactly where the cut was taken. The pointer must stay
/// valid until the runtime has been built (every factory runs at Runtime
/// construction). Pass the topology's ORIGINAL config: the restored elastic
/// parallelism is re-applied by the caller via
/// TopologyControl::ResizeComponent, not by shifting build-time counts.
TopologyHandles BuildCorrelationTopology(
    stream::Topology<Message>* topology,
    std::unique_ptr<stream::Spout<Message>> spout,
    const PipelineConfig& config, MetricsSink* metrics,
    bool with_centralized_baseline, PeriodSink* tracker_sink = nullptr,
    PeriodSink* baseline_sink = nullptr,
    std::shared_ptr<const PipelineCheckpointState> restore = nullptr);

/// Instantiates the execution substrate the config selects (runtime,
/// num_threads, queue_capacity) for a topology built above — the one place
/// that maps PipelineConfig knobs onto stream::RuntimeOptions, so drivers,
/// examples and tests pick a runtime the same way.
///
/// `start_time` is the virtual time the runtime starts at
/// (RuntimeOptions::start_time): tick schedules begin at the first period
/// boundary strictly after it. The checkpoint runner passes a cut's newest
/// timestamp so a restored mid-period counter table is not flushed by a
/// stale catch-up tick; 0 is the normal from-the-beginning schedule.
std::unique_ptr<stream::Runtime<Message>> MakeConfiguredRuntime(
    stream::Topology<Message>* topology, const PipelineConfig& config,
    Timestamp start_time = 0);

}  // namespace corrtrack::ops

#endif  // CORRTRACK_OPS_TOPOLOGY_BUILDER_H_
