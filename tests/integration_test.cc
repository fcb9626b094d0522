#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "exp/config.h"
#include "exp/driver.h"
#include "exp/sweep.h"
#include "gen/tweet_generator.h"
#include "ops/centralized.h"
#include "ops/disseminator_op.h"
#include "ops/merger_op.h"
#include "ops/source.h"
#include "ops/topology_builder.h"
#include "ops/tracker_op.h"
#include "stream/simulation.h"

namespace corrtrack {
namespace {

/// A small but complete run of the Fig. 2 topology against the synthetic
/// stream, with the exact single-node baseline attached.
struct RunResult {
  std::unique_ptr<stream::Topology<ops::Message>> topology;
  std::unique_ptr<stream::SimulationRuntime<ops::Message>> runtime;
  ops::TopologyHandles handles;
};

RunResult RunPipeline(const ops::PipelineConfig& pipeline,
                      const gen::GeneratorConfig& generator,
                      uint64_t num_docs, ops::MetricsSink* metrics) {
  RunResult result;
  result.topology = std::make_unique<stream::Topology<ops::Message>>();
  auto spout = std::make_unique<ops::GeneratorSpout>(generator, num_docs);
  result.handles = ops::BuildCorrelationTopology(
      result.topology.get(), std::move(spout), pipeline, metrics,
      /*with_centralized_baseline=*/true);
  result.runtime = std::make_unique<stream::SimulationRuntime<ops::Message>>(
      result.topology.get());
  result.runtime->Run(pipeline.report_period);
  return result;
}

ops::PipelineConfig FastPipeline(AlgorithmKind kind) {
  ops::PipelineConfig pipeline;
  pipeline.algorithm = kind;
  pipeline.num_calculators = 4;
  pipeline.num_partitioners = 3;
  pipeline.window_span = kMillisPerMinute;
  pipeline.report_period = kMillisPerMinute;
  pipeline.bootstrap_time = kMillisPerMinute;
  pipeline.quality_batch_size = 200;
  pipeline.repartition_latency_docs = 200;
  return pipeline;
}

gen::GeneratorConfig SmallWorkload() {
  gen::GeneratorConfig generator;
  generator.seed = 1234;
  generator.topics.num_topics = 80;
  generator.topics.tags_per_topic = 12;
  generator.topics.joint_vocab_size = 20;
  generator.tps = 1300;
  return generator;
}

class PipelineEndToEndTest : public ::testing::TestWithParam<AlgorithmKind> {
};

TEST_P(PipelineEndToEndTest, ProducesCoefficientsCloseToBaseline) {
  const auto kind = GetParam();
  RunResult run = RunPipeline(FastPipeline(kind), SmallWorkload(),
                              /*num_docs=*/30000, nullptr);
  const auto* tracker = static_cast<ops::TrackerBolt*>(
      run.runtime->bolt(run.handles.tracker, 0));
  const auto* baseline = static_cast<ops::CentralizedBolt*>(
      run.runtime->bolt(run.handles.centralized, 0));
  ASSERT_FALSE(tracker->periods().empty());
  ASSERT_FALSE(baseline->periods().empty());

  // Every tracked coefficient is a valid Jaccard value and, where the
  // baseline reports the same tagset in the same period, close to it.
  uint64_t matched = 0;
  double worst = 0.0;
  double error_sum = 0.0;
  for (const auto& [period_end, results] : tracker->periods()) {
    const auto base_it = baseline->periods().find(period_end);
    for (const auto& [tags, estimate] : results) {
      EXPECT_GE(estimate.coefficient, 0.0);
      EXPECT_LE(estimate.coefficient, 1.0);
      EXPECT_GE(estimate.union_count, estimate.intersection_count);
      if (base_it == baseline->periods().end()) continue;
      const auto ref = base_it->second.find(tags);
      if (ref == base_it->second.end()) continue;
      ++matched;
      const double err =
          std::abs(estimate.coefficient - ref->second.coefficient);
      error_sum += err;
      worst = std::max(worst, err);
    }
  }
  ASSERT_GT(matched, 100u) << "too few comparable coefficients";
  EXPECT_LT(error_sum / matched, 0.05);
}

TEST_P(PipelineEndToEndTest, DeterministicAcrossRuns) {
  const auto kind = GetParam();
  auto run_once = [&] {
    RunResult run = RunPipeline(FastPipeline(kind), SmallWorkload(), 8000,
                                nullptr);
    const auto* tracker = static_cast<ops::TrackerBolt*>(
        run.runtime->bolt(run.handles.tracker, 0));
    std::vector<std::pair<Timestamp, size_t>> shape;
    double sum = 0;
    for (const auto& [period_end, results] : tracker->periods()) {
      shape.emplace_back(period_end, results.size());
      for (const auto& [tags, e] : results) sum += e.coefficient;
    }
    return std::make_pair(shape, sum);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, PipelineEndToEndTest,
    ::testing::Values(AlgorithmKind::kDS, AlgorithmKind::kSCC,
                      AlgorithmKind::kSCL, AlgorithmKind::kSCI),
    [](const ::testing::TestParamInfo<AlgorithmKind>& info) {
      return std::string(AlgorithmName(info.param));
    });

/// A workload whose tag graph freezes within the bootstrap window: no
/// fresh tags, events, drift or cross-topic bridges, and uniform in-topic
/// tag use so every tag appears early. Under DS, topic components then
/// never change, and the distributed system becomes exact.
gen::GeneratorConfig StaticWorkload() {
  gen::GeneratorConfig generator = SmallWorkload();
  generator.fresh_tag_prob = 0.0;
  generator.event_prob = 0.0;
  generator.drift_period = 0;
  generator.topics.joint_prob = 0.0;
  generator.topics.tag_skew = 0.0;
  return generator;
}

TEST(PipelineIntegration, StaticWorkloadMatchesBaselineExactly) {
  // With a frozen vocabulary, every co-occurring tagset is covered by the
  // initial partitions, so the distributed coefficients must equal the
  // centralised ones exactly in every full period (the §8.2.3 ideal case).
  gen::GeneratorConfig generator = StaticWorkload();
  ops::PipelineConfig pipeline = FastPipeline(AlgorithmKind::kDS);
  pipeline.repartition_threshold = 1e9;  // Never repartition.

  RunResult run = RunPipeline(pipeline, generator, 25000, nullptr);
  const auto* tracker = static_cast<ops::TrackerBolt*>(
      run.runtime->bolt(run.handles.tracker, 0));
  const auto* baseline = static_cast<ops::CentralizedBolt*>(
      run.runtime->bolt(run.handles.centralized, 0));
  const auto* disseminator = static_cast<ops::DisseminatorBolt*>(
      run.runtime->bolt(run.handles.disseminator, 0));
  ASSERT_TRUE(disseminator->has_partitions());

  // Skip periods up to and including the install period.
  uint64_t compared = 0;
  for (const auto& [period_end, base_results] : baseline->periods()) {
    if (period_end < 3 * kMillisPerMinute) continue;
    const auto tracked_it = tracker->periods().find(period_end);
    ASSERT_NE(tracked_it, tracker->periods().end());
    for (const auto& [tags, ref] : base_results) {
      const auto it = tracked_it->second.find(tags);
      ASSERT_NE(it, tracked_it->second.end())
          << "missing " << tags.ToString();
      ASSERT_EQ(it->second.intersection_count, ref.intersection_count);
      ASSERT_EQ(it->second.union_count, ref.union_count);
      ++compared;
    }
  }
  EXPECT_GT(compared, 50u);
}

TEST(PipelineIntegration, DsCommunicationIsMinimal) {
  // DS with a static workload: partitions disjoint -> exactly one
  // notification per routed document. Few, hot topics ensure every topic
  // component is complete within the bootstrap window (a cold topic whose
  // tags straddle the bootstrap boundary can legitimately fragment and
  // cost >1 after the bridging addition).
  gen::GeneratorConfig generator = StaticWorkload();
  generator.topics.num_topics = 20;
  ops::PipelineConfig pipeline = FastPipeline(AlgorithmKind::kDS);
  pipeline.repartition_threshold = 1e9;

  exp::MetricsCollector metrics(pipeline.num_calculators, 100000);
  RunResult run = RunPipeline(pipeline, generator, 20000, &metrics);
  EXPECT_GT(metrics.notified_docs(), 0u);
  // Allow for at most a handful of bootstrap-boundary fragmentations; DS
  // must stay essentially redundancy-free (Figure 3).
  EXPECT_GE(metrics.AvgCommunication(), 1.0);
  EXPECT_LT(metrics.AvgCommunication(), 1.01);
}

/// Forwards to a wrapped bolt and counts the tuples it receives by message
/// type (the Message variant's index).
class CountingBolt : public stream::Bolt<ops::Message> {
 public:
  CountingBolt(std::unique_ptr<stream::Bolt<ops::Message>> inner,
               std::vector<uint64_t>* by_type)
      : inner_(std::move(inner)), by_type_(by_type) {}

  void Prepare(stream::TaskAddress self, int parallelism) override {
    inner_->Prepare(self, parallelism);
  }
  void AttachControl(stream::TopologyControl* control) override {
    inner_->AttachControl(control);
  }
  void Execute(const stream::Envelope<ops::Message>& in,
               stream::Emitter<ops::Message>& out) override {
    ++(*by_type_)[in.payload().index()];
    inner_->Execute(in, out);
  }
  void OnTick(Timestamp tick_time,
              stream::Emitter<ops::Message>& out) override {
    inner_->OnTick(tick_time, out);
  }

 private:
  std::unique_ptr<stream::Bolt<ops::Message>> inner_;
  std::vector<uint64_t>* by_type_;
};

TEST(PipelineIntegration, DisseminatorFeedbackEdgesArePerStream) {
  // Repartition requests reach every Partitioner and never the Merger;
  // uncovered tagsets reach the Merger and never a Partitioner.
  const ops::PipelineConfig pipeline = FastPipeline(AlgorithmKind::kSCL);
  stream::Topology<ops::Message> topology;
  const ops::TopologyHandles handles = ops::BuildCorrelationTopology(
      &topology,
      std::make_unique<ops::GeneratorSpout>(SmallWorkload(), 20000), pipeline,
      nullptr, /*with_centralized_baseline=*/false);
  std::vector<uint64_t> to_partitioners(std::variant_size_v<ops::Message>);
  std::vector<uint64_t> to_merger(std::variant_size_v<ops::Message>);
  for (const auto& [component, counts] :
       {std::pair{handles.partitioner, &to_partitioners},
        std::pair{handles.merger, &to_merger}}) {
    auto& factory = topology.mutable_components()[component].bolt_factory;
    factory = [inner = factory, counts = counts](int instance) {
      return std::make_unique<CountingBolt>(inner(instance), counts);
    };
  }
  stream::SimulationRuntime<ops::Message> runtime(&topology);
  runtime.Run(pipeline.report_period);

  const auto index = [](auto alternative) {
    return ops::Message(alternative).index();
  };
  const size_t request = index(ops::RepartitionRequest{});
  const size_t uncovered = index(ops::UncoveredTagset{});
  const auto* disseminator = static_cast<const ops::DisseminatorBolt*>(
      runtime.bolt(handles.disseminator, 0));
  ASSERT_GT(disseminator->repartitions_requested(), 0u);
  EXPECT_GT(to_partitioners[request], 0u);
  EXPECT_EQ(to_partitioners[request] % pipeline.num_partitioners, 0u);
  EXPECT_EQ(to_partitioners[uncovered], 0u);
  EXPECT_GT(to_merger[uncovered], 0u);
  EXPECT_EQ(to_merger[request], 0u);
}

TEST(PipelineIntegration, EveryOperatorReceivesTraffic) {
  exp::MetricsCollector metrics(4, 100000);
  RunResult run = RunPipeline(FastPipeline(AlgorithmKind::kSCL),
                              SmallWorkload(), 20000, &metrics);
  const auto& handles = run.handles;
  EXPECT_EQ(run.runtime->TuplesDelivered(handles.parser), 20000u);
  EXPECT_GT(run.runtime->TuplesDelivered(handles.partitioner), 20000u);
  EXPECT_GT(run.runtime->TuplesDelivered(handles.disseminator), 20000u);
  EXPECT_GT(run.runtime->TuplesDelivered(handles.calculator), 0u);
  EXPECT_GT(run.runtime->TuplesDelivered(handles.merger), 0u);
  EXPECT_GT(run.runtime->TuplesDelivered(handles.tracker), 0u);
  EXPECT_EQ(run.runtime->TuplesDelivered(handles.centralized), 20000u);
}

TEST(ExperimentDriver, ProducesCompleteResult) {
  exp::ExperimentConfig config = exp::PaperBaseConfig();
  config.label = "driver-smoke";
  config.num_documents = 25000;
  config.pipeline.algorithm = AlgorithmKind::kDS;
  config.pipeline.window_span = kMillisPerMinute;
  config.pipeline.report_period = kMillisPerMinute;
  config.pipeline.bootstrap_time = kMillisPerMinute;
  config.series_stride = 5000;
  const exp::ExperimentResult result = exp::RunExperiment(config);
  EXPECT_EQ(result.label, "driver-smoke");
  EXPECT_GT(result.documents, 10000u);
  EXPECT_GE(result.avg_communication, 1.0);
  EXPECT_GE(result.load_gini, 0.0);
  EXPECT_LE(result.load_gini, 1.0);
  EXPECT_GT(result.partitions_installed, 0u);
  EXPECT_GT(result.coverage, 0.5);
  EXPECT_GE(result.jaccard_error, 0.0);
  EXPECT_FALSE(result.series.empty());
  // Series samples are cumulative in processed documents.
  for (size_t i = 1; i < result.series.size(); ++i) {
    EXPECT_GT(result.series[i].docs_processed,
              result.series[i - 1].docs_processed);
  }
  // Per-segment loads are shares summing to ~1 (when any traffic flowed).
  for (const auto& sample : result.series) {
    double total = 0;
    for (double share : sample.sorted_loads) total += share;
    if (total > 0) {
      EXPECT_NEAR(total, 1.0, 1e-9);
    }
  }
}

TEST(ExperimentDriver, ReplaySpoutMatchesGeneratorSpout) {
  // The file-replay path must produce the identical document stream.
  gen::GeneratorConfig generator = SmallWorkload();
  gen::TweetGenerator g(generator);
  std::vector<Document> docs;
  for (int i = 0; i < 5000; ++i) docs.push_back(g.Next());

  ops::PipelineConfig pipeline = FastPipeline(AlgorithmKind::kDS);
  stream::Topology<ops::Message> topo_replay;
  auto spout = std::make_unique<ops::ReplaySpout>(docs);
  const auto handles_replay = ops::BuildCorrelationTopology(
      &topo_replay, std::move(spout), pipeline, nullptr, true);
  stream::SimulationRuntime<ops::Message> runtime_replay(&topo_replay);
  runtime_replay.Run(pipeline.report_period);

  RunResult direct = RunPipeline(pipeline, generator, 5000, nullptr);

  const auto* base_replay = static_cast<ops::CentralizedBolt*>(
      runtime_replay.bolt(handles_replay.centralized, 0));
  const auto* base_direct = static_cast<ops::CentralizedBolt*>(
      direct.runtime->bolt(direct.handles.centralized, 0));
  ASSERT_EQ(base_replay->periods().size(), base_direct->periods().size());
  for (const auto& [period_end, results] : base_replay->periods()) {
    const auto it = base_direct->periods().find(period_end);
    ASSERT_NE(it, base_direct->periods().end());
    ASSERT_EQ(results.size(), it->second.size());
  }
}

}  // namespace
}  // namespace corrtrack
