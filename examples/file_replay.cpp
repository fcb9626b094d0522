// File replay: materialise a stream to a TSV file and replay it through
// the topology — the paper's "for repeatability of experiments read from a
// file" source mode (§6.2). Demonstrates gen::SaveDocuments /
// LoadDocuments and that a replayed run is bit-identical to a live one.
//
// Flags: --runtime=simulation|pool and --threads=N select the execution
// substrate. Bit-identical replay is a property of the
// deterministic simulator; on the pool runtime the comparison is
// reported but not enforced (cross-producer interleaving is scheduling-
// dependent, as in Storm).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gen/file_source.h"
#include "gen/tweet_generator.h"
#include "ops/messages.h"
#include "ops/source.h"
#include "ops/topology_builder.h"
#include "ops/tracker_op.h"
#include "stream/runtime.h"

namespace {

using namespace corrtrack;

/// Runs the pipeline over `docs` and returns a digest of the tracker's
/// results (periods, tagsets, coefficient sum).
struct Digest {
  size_t periods = 0;
  size_t tagsets = 0;
  double coefficient_sum = 0;
  bool operator==(const Digest& other) const {
    return periods == other.periods && tagsets == other.tagsets &&
           coefficient_sum == other.coefficient_sum;
  }
};

Digest RunOver(std::vector<Document> docs, stream::RuntimeKind kind,
               int num_threads) {
  ops::PipelineConfig pipeline;
  pipeline.algorithm = AlgorithmKind::kSCC;
  pipeline.num_calculators = 4;
  pipeline.num_partitioners = 2;
  pipeline.window_span = 2 * kMillisPerMinute;
  pipeline.report_period = 2 * kMillisPerMinute;
  pipeline.bootstrap_time = 2 * kMillisPerMinute;
  pipeline.runtime = kind;
  pipeline.num_threads = num_threads;
  pipeline.queue_capacity = 256;

  stream::Topology<ops::Message> topology;
  auto spout = std::make_unique<ops::ReplaySpout>(std::move(docs));
  const ops::TopologyHandles handles = ops::BuildCorrelationTopology(
      &topology, std::move(spout), pipeline, nullptr, false);
  auto runtime = ops::MakeConfiguredRuntime(&topology, pipeline);
  runtime->Run(pipeline.report_period);

  const auto* tracker =
      static_cast<ops::TrackerBolt*>(runtime->bolt(handles.tracker, 0));
  Digest digest;
  digest.periods = tracker->periods().size();
  for (const auto& [period_end, results] : tracker->periods()) {
    digest.tagsets += results.size();
    for (const auto& [tags, estimate] : results) {
      digest.coefficient_sum += estimate.coefficient;
    }
  }
  return digest;
}

}  // namespace

int main(int argc, char** argv) {
  stream::RuntimeKind kind = stream::RuntimeKind::kSimulation;
  int num_threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--runtime=", 10) == 0) {
      if (!stream::ParseRuntimeKind(argv[i] + 10, &kind)) {
        std::fprintf(stderr,
                     "unknown --runtime '%s' (simulation|pool)\n",
                     argv[i] + 10);
        return 1;
      }
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      num_threads = std::atoi(argv[i] + 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--runtime=simulation|pool] [--threads=N]\n",
                   argv[0]);
      return 1;
    }
  }
  std::printf("runtime: %s%s\n", stream::RuntimeKindName(kind),
              kind == stream::RuntimeKind::kPool && num_threads > 0
                  ? (" (" + std::to_string(num_threads) + " threads)").c_str()
                  : "");

  // 1. Generate 10 virtual minutes of tweets and persist them.
  gen::GeneratorConfig config;
  config.seed = 3;
  config.topics.num_topics = 100;
  gen::TweetGenerator generator(config);
  std::vector<Document> docs;
  while (docs.empty() || docs.back().time < 10 * kMillisPerMinute) {
    docs.push_back(generator.Next());
  }
  const std::string path = "/tmp/corrtrack_replay.tsv";
  if (!gen::SaveDocuments(path, docs)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("saved %zu documents to %s\n", docs.size(), path.c_str());

  // 2. Load them back and verify the round trip.
  std::vector<Document> loaded;
  if (!gen::LoadDocuments(path, &loaded) || loaded.size() != docs.size()) {
    std::fprintf(stderr, "replay load failed\n");
    return 1;
  }

  // 3. Run the pipeline over both streams; on the deterministic simulator
  //    the runs must agree exactly.
  const Digest live = RunOver(docs, kind, num_threads);
  const Digest replay = RunOver(loaded, kind, num_threads);
  std::printf("live run:   %zu periods, %zu coefficients\n", live.periods,
              live.tagsets);
  std::printf("replay run: %zu periods, %zu coefficients\n", replay.periods,
              replay.tagsets);
  if (kind == stream::RuntimeKind::kSimulation) {
    if (!(live == replay)) {
      std::printf("MISMATCH between live and replayed runs\n");
      return 1;
    }
    std::printf("replay is bit-identical to the live run\n");
  } else {
    std::printf("replay %s the live run (exact match is only guaranteed "
                "by --runtime=simulation)\n",
                live == replay ? "matches" : "differs from");
  }
  std::remove(path.c_str());
  return 0;
}
