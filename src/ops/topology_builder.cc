#include "ops/topology_builder.h"

#include "ops/calculator_op.h"
#include "ops/centralized.h"
#include "ops/disseminator_op.h"
#include "ops/merger_op.h"
#include "ops/parser.h"
#include "ops/partitioner_op.h"
#include "ops/tracker_op.h"
#include "stream/runtime_factory.h"
#include "telemetry/pipeline_telemetry.h"

namespace corrtrack::ops {

namespace {
using stream::Grouping;
}  // namespace

MetricsSink* NullMetricsSink() {
  static MetricsSink* const kSink = new MetricsSink();
  return kSink;
}

TopologyHandles BuildCorrelationTopology(
    stream::Topology<Message>* topology,
    std::unique_ptr<stream::Spout<Message>> spout,
    const PipelineConfig& config, MetricsSink* metrics,
    bool with_centralized_baseline, PeriodSink* tracker_sink,
    PeriodSink* baseline_sink,
    std::shared_ptr<const PipelineCheckpointState> restore) {
  // The Disseminator routes with one bit per Calculator; fail at build time
  // rather than at the first install.
  CORRTRACK_CHECK_LE(config.EffectiveMaxCalculators(),
                     PartitionSet::kMaxPartitions);
  // The additive merge is exact only for disjoint partitionings; under tag
  // replication a Calculator can be handed a set's counter without its
  // subsets' and abort in ReportAll.
  const bool additive_on_disjoint =
      config.tracker_merge != EstimateMerge::kAdditive ||
      config.algorithm == AlgorithmKind::kDS;
  CORRTRACK_CHECK(additive_on_disjoint);
  TopologyHandles handles;
  // The elastic install protocol's participants need the Calculator's
  // component id, which is only known after the components below are
  // added; bolt factories run later (at runtime Build), so capturing this
  // shared copy — populated before this function returns — closes the
  // loop.
  auto wired = std::make_shared<TopologyHandles>();

  handles.source = topology->AddSpout("source", std::move(spout));

  handles.parser = topology->AddBolt(
      "parser",
      [config, restore](int) {
        auto bolt = std::make_unique<ParserBolt>(config.telemetry);
        if (restore != nullptr) bolt->RestoreState(restore->parser);
        return bolt;
      },
      /*parallelism=*/1);

  handles.partitioner = topology->AddBolt(
      "partitioner",
      [config, restore](int instance) {
        auto bolt = std::make_unique<PartitionerBolt>(config, instance);
        if (restore != nullptr) {
          for (const PartitionerState& state : restore->partitioners) {
            if (state.instance == instance) {
              bolt->RestoreState(state);
              break;
            }
          }
        }
        return bolt;
      },
      config.num_partitioners);

  handles.merger = topology->AddBolt(
      "merger",
      [config, metrics, wired, restore](int) {
        auto bolt = std::make_unique<MergerBolt>(config, metrics);
        bolt->set_calculator_component(wired->calculator);
        if (restore != nullptr) bolt->RestoreState(restore->merger);
        return bolt;
      },
      /*parallelism=*/1);

  handles.disseminator = topology->AddBolt(
      "disseminator",
      [config, metrics, wired, restore](int) {
        auto bolt = std::make_unique<DisseminatorBolt>(config, metrics);
        bolt->set_calculator_component(wired->calculator);
        if (restore != nullptr) bolt->RestoreState(restore->disseminator);
        return bolt;
      },
      /*parallelism=*/1);

  handles.calculator = topology->AddBolt(
      "calculator",
      [config, restore](int instance) {
        auto bolt = std::make_unique<CalculatorBolt>(config, instance);
        if (restore != nullptr) {
          for (const CalculatorState& state : restore->calculators) {
            if (state.instance == instance) {
              bolt->RestoreState(state);
              break;
            }
          }
        }
        return bolt;
      },
      config.num_calculators, config.report_period);
  if (config.EffectiveMaxCalculators() > config.num_calculators) {
    topology->SetMaxParallelism(handles.calculator,
                                config.EffectiveMaxCalculators());
  }

  handles.tracker = topology->AddBolt(
      "tracker",
      [tracker_sink, config, restore](int) {
        auto bolt = std::make_unique<TrackerBolt>(
            tracker_sink, config.tracker_merge, config.telemetry);
        if (restore != nullptr) bolt->RestoreState(restore->tracker);
        return bolt;
      },
      /*parallelism=*/1);

  // Wiring per Fig. 2.
  topology->Subscribe(handles.parser, handles.source,
                      Grouping<Message>::Shuffle());
  topology->Subscribe(handles.partitioner, handles.parser,
                      Grouping<Message>::Fields(TagsetFieldHash));
  topology->Subscribe(handles.disseminator, handles.parser,
                      Grouping<Message>::Shuffle());
  topology->Subscribe(handles.merger, handles.partitioner,
                      Grouping<Message>::Global());
  topology->Subscribe(handles.disseminator, handles.merger,
                      Grouping<Message>::All());
  topology->Subscribe(handles.calculator, handles.disseminator,
                      Grouping<Message>::Direct());
  // The Disseminator's two feedback edges are per-stream (filtered), like
  // the Calculator's below: repartition requests go to every Partitioner
  // and never to the Merger, uncovered tagsets only to the Merger.
  topology->Subscribe(handles.partitioner, handles.disseminator,
                      Grouping<Message>::AllWhere([](const Message& msg) {
                        return std::holds_alternative<RepartitionRequest>(msg);
                      }));
  topology->Subscribe(handles.merger, handles.disseminator,
                      Grouping<Message>::GlobalWhere([](const Message& msg) {
                        return std::holds_alternative<UncoveredTagset>(msg);
                      }));
  // Elastic install protocol: quiesced Calculators hand their counter
  // tables back to the Disseminator for re-routing to the new owners
  // (feedback edge, like the repartition/uncovered loops). Both edges
  // leaving the Calculator are per-stream (filtered): handoffs never get
  // copied to the Tracker, per-period reports never to the Disseminator.
  topology->Subscribe(handles.disseminator, handles.calculator,
                      Grouping<Message>::GlobalWhere([](const Message& msg) {
                        return std::holds_alternative<CounterHandoff>(msg);
                      }));
  topology->Subscribe(handles.tracker, handles.calculator,
                      Grouping<Message>::GlobalWhere([](const Message& msg) {
                        return std::holds_alternative<JaccardReport>(msg);
                      }));

  if (with_centralized_baseline) {
    handles.centralized = topology->AddBolt(
        "centralized",
        [config, baseline_sink, restore](int) {
          auto bolt = std::make_unique<CentralizedBolt>(config, baseline_sink);
          if (restore != nullptr && restore->has_centralized) {
            bolt->RestoreState(restore->centralized);
          }
          return bolt;
        },
        /*parallelism=*/1, config.report_period);
    topology->Subscribe(handles.centralized, handles.parser,
                        Grouping<Message>::Global());
  }
  *wired = handles;
  return handles;
}

std::unique_ptr<stream::Runtime<Message>> MakeConfiguredRuntime(
    stream::Topology<Message>* topology, const PipelineConfig& config,
    Timestamp start_time) {
  stream::RuntimeOptions options;
  options.queue_capacity = config.queue_capacity;
  options.num_threads = config.num_threads;
  options.start_time = start_time;
  if (config.telemetry != nullptr) {
    options.metrics = &config.telemetry->registry;
  }
  return stream::MakeRuntime<Message>(config.runtime, topology, options);
}

}  // namespace corrtrack::ops
