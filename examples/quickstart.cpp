// Quickstart: track tag-set correlations over a synthetic social stream.
//
// Builds the paper's Fig. 2 topology (Parser -> Partitioner/Merger ->
// Disseminator -> Calculators -> Tracker) with the DS partitioning
// algorithm, streams ~20 minutes of tweets through it, and prints the
// strongest correlated tag pairs of the final reporting period.
//
// The same topology runs on any execution substrate:
//   --runtime=simulation|pool            (default: simulation)
//   --threads=N                          (pool workers; 0 = all cores)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "gen/tweet_generator.h"
#include "ops/messages.h"
#include "ops/pipeline_config.h"
#include "ops/source.h"
#include "ops/topology_builder.h"
#include "ops/tracker_op.h"
#include "stream/runtime.h"

int main(int argc, char** argv) {
  using namespace corrtrack;

  // 1. Configure the pipeline: 5 calculators, DS partitioning, 2-minute
  //    windows so the demo repartitions quickly.
  ops::PipelineConfig pipeline;
  pipeline.algorithm = AlgorithmKind::kDS;
  pipeline.num_calculators = 5;
  pipeline.num_partitioners = 3;
  pipeline.window_span = 2 * kMillisPerMinute;
  pipeline.report_period = 2 * kMillisPerMinute;
  pipeline.bootstrap_time = 2 * kMillisPerMinute;
  // Pool runtime: cap the spout/control-loop skew so partitions install
  // while the demo stream is still flowing.
  pipeline.queue_capacity = 256;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--runtime=", 10) == 0) {
      if (!stream::ParseRuntimeKind(argv[i] + 10, &pipeline.runtime)) {
        std::fprintf(stderr, "unknown --runtime '%s' (simulation|pool)\n",
                     argv[i] + 10);
        return 1;
      }
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      pipeline.num_threads = std::atoi(argv[i] + 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--runtime=simulation|pool] [--threads=N]\n",
                   argv[0]);
      return 1;
    }
  }

  // 2. Configure the workload: a small topic-structured tag universe.
  gen::GeneratorConfig workload;
  workload.seed = 2014;
  workload.topics.num_topics = 60;
  workload.topics.tags_per_topic = 25;
  workload.tps = 1300.0;

  // 3. Wire the topology and run 20 virtual minutes of tweets.
  stream::Topology<ops::Message> topology;
  const uint64_t num_docs =
      static_cast<uint64_t>(20 * 60 * workload.tagged_tps());
  auto spout = std::make_unique<ops::GeneratorSpout>(workload, num_docs);
  const ops::TopologyHandles handles = ops::BuildCorrelationTopology(
      &topology, std::move(spout), pipeline, /*metrics=*/nullptr,
      /*with_centralized_baseline=*/false);

  auto runtime = ops::MakeConfiguredRuntime(&topology, pipeline);
  runtime->Run(/*flush_horizon=*/pipeline.report_period);
  const stream::RuntimeStats stats = runtime->stats();
  std::printf("runtime: %s (%d thread%s), %llu envelopes moved\n",
              stream::RuntimeKindName(runtime->kind()), stats.num_threads,
              stats.num_threads == 1 ? "" : "s",
              static_cast<unsigned long long>(stats.envelopes_moved));

  // 4. Read the tracked coefficients of the last reporting period.
  const auto* tracker =
      static_cast<ops::TrackerBolt*>(runtime->bolt(handles.tracker, 0));
  if (tracker->periods().empty()) {
    std::printf("no coefficients reported\n");
    return 1;
  }
  const auto& [period_end, results] = *tracker->periods().rbegin();

  std::vector<JaccardEstimate> top;
  for (const auto& [tags, estimate] : results) {
    if (estimate.intersection_count >= 5) top.push_back(estimate);
  }
  // Ties rank by tags, so the order does not depend on the map's.
  std::sort(top.begin(), top.end(),
            [](const JaccardEstimate& a, const JaccardEstimate& b) {
              if (a.coefficient != b.coefficient) {
                return a.coefficient > b.coefficient;
              }
              return a.tags < b.tags;
            });

  std::printf("tracked %zu co-occurring tagsets in the period ending %lldms\n",
              results.size(), static_cast<long long>(period_end));
  std::printf("top correlations (support >= 5):\n");
  std::printf("  %-24s %9s %9s %7s\n", "tagset", "J", "inter", "union");
  for (size_t i = 0; i < top.size() && i < 10; ++i) {
    std::printf("  %-24s %9.3f %9llu %7llu\n", top[i].tags.ToString().c_str(),
                top[i].coefficient,
                static_cast<unsigned long long>(top[i].intersection_count),
                static_cast<unsigned long long>(top[i].union_count));
  }
  return 0;
}
