// Trend detection on top of the correlation tracker — the paper's
// motivating application (§1: "extracting trends out of Twitter tweets";
// the authors' enBlogue system [2] scores a trend by the *shift* of a
// tagset's Jaccard coefficient between windows).
//
// This example runs the full Fig. 2 topology over a stream with an
// engineered burst: midway, a "breaking event" topic erupts and its tags
// start co-occurring heavily. The tracker's per-period coefficients are
// then differenced period-over-period; the emerging pairs surface at the
// top of the shift ranking.

// Pass --elastic to let the Merger resize the Calculator set at run time
// (§7.3 elastic repartitioning): the burst raises the window load, the
// cost-model target-k policy grows k to match, and the resize trail is
// printed alongside the trend ranking.
//
// Durability flags (storage layer):
//   --checkpoint-every=N   write an epoch-consistent checkpoint every N
//                          ingested documents
//   --checkpoint-uri=URI   where checkpoints go (file://…, mem://…;
//                          default file:///tmp/corrtrack_trend_ckpt)
//   --restore-from=URI     resume from the newest valid checkpoint under
//                          URI before ingest starts (crash recovery: kill
//                          a checkpointing run, rerun with this flag, and
//                          the ranking comes out identical)
//
// Observability flags (telemetry layer):
//   --telemetry-every=N    attach a PipelineTelemetry and dump the metric
//                          registry every N routed documents (plus a final
//                          snapshot after the run)
//   --telemetry-json       render dumps as JSON instead of Prometheus
//                          text (also turns telemetry on by itself, with
//                          only the final snapshot)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gen/tweet_generator.h"
#include "ops/checkpoint_runner.h"
#include "ops/messages.h"
#include "ops/metrics_sink.h"
#include "ops/source.h"
#include "ops/topology_builder.h"
#include "ops/tracker_op.h"
#include "stream/runtime.h"
#include "stream/topology.h"
#include "telemetry/exposition.h"
#include "telemetry/pipeline_telemetry.h"

namespace {

using namespace corrtrack;

/// Prints the elastic install protocol's resize decisions as they happen.
class ResizePrinter : public ops::MetricsSink {
 public:
  void OnTopologyResize(Epoch epoch, int old_k, int new_k,
                        Timestamp time) override {
    std::printf("resize: epoch %u, k %d -> %d (t=%lld min)\n",
                static_cast<unsigned>(epoch), old_k, new_k,
                static_cast<long long>(time / kMillisPerMinute));
    ++resizes;
  }
  int resizes = 0;
};

/// ResizePrinter plus periodic telemetry exposition: renders the registry
/// every `every` routed documents (--telemetry-every). The example runs
/// the deterministic simulation substrate (one thread), so printing from
/// the OnRouted hook is safe.
class TelemetryDumper : public ResizePrinter {
 public:
  TelemetryDumper(telemetry::MetricRegistry* registry, uint64_t every,
                  bool json)
      : registry_(registry), every_(every), json_(json) {}

  void OnRouted(int /*notified*/, Timestamp /*time*/) override {
    if (registry_ == nullptr || every_ == 0) return;
    if (++docs_ % every_ != 0) return;
    std::printf("--- telemetry at %llu routed docs ---\n",
                static_cast<unsigned long long>(docs_));
    Dump();
  }

  void Dump() const {
    if (registry_ == nullptr) return;
    const telemetry::MetricsSnapshot snapshot = registry_->Snapshot();
    const std::string rendered = json_
                                     ? telemetry::RenderJson(snapshot)
                                     : telemetry::RenderPrometheus(snapshot);
    std::fputs(rendered.c_str(), stdout);
    if (rendered.empty() || rendered.back() != '\n') std::fputs("\n", stdout);
  }

 private:
  telemetry::MetricRegistry* registry_;
  uint64_t every_;
  bool json_;
  uint64_t docs_ = 0;
};

/// A spout that plays a base stream and injects a bursting tag pair in the
/// second half — the "emergent topic" a trend detector must find.
class BurstSpout : public stream::Spout<ops::Message> {
 public:
  BurstSpout(const gen::GeneratorConfig& config, uint64_t num_docs)
      : generator_(config), remaining_(num_docs), total_(num_docs) {}

  bool Next(ops::Message* out, Timestamp* time) override {
    if (remaining_ == 0) return false;
    --remaining_;
    Document doc = generator_.Next();
    // Second half: every 6th tweet is about the breaking event.
    const bool second_half = (total_ - remaining_) > total_ / 2;
    if (second_half && doc.id % 6 == 0) {
      ops::RawTweet tweet;
      tweet.id = doc.id;
      tweet.time = doc.time;
      tweet.text = "breaking #earthquake #sanfrancisco now";
      *time = doc.time;
      *out = ops::Message(std::move(tweet));
      return true;
    }
    ops::RawTweet tweet;
    tweet.id = doc.id;
    tweet.time = doc.time;
    tweet.text = gen::TweetGenerator::RenderText(doc);
    *time = doc.time;
    *out = ops::Message(std::move(tweet));
    return true;
  }

 private:
  gen::TweetGenerator generator_;
  uint64_t remaining_;
  uint64_t total_;
};

}  // namespace

int main(int argc, char** argv) {
  bool elastic = false;
  uint64_t checkpoint_every = 0;
  std::string checkpoint_uri;
  std::string restore_from;
  uint64_t telemetry_every = 0;
  bool telemetry_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--elastic") == 0) {
      elastic = true;
    } else if (std::strncmp(argv[i], "--checkpoint-every=", 19) == 0) {
      checkpoint_every = std::strtoull(argv[i] + 19, nullptr, 10);
    } else if (std::strncmp(argv[i], "--checkpoint-uri=", 17) == 0) {
      checkpoint_uri = argv[i] + 17;
    } else if (std::strncmp(argv[i], "--restore-from=", 15) == 0) {
      restore_from = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--telemetry-every=", 18) == 0) {
      telemetry_every = std::strtoull(argv[i] + 18, nullptr, 10);
    } else if (std::strcmp(argv[i], "--telemetry-json") == 0) {
      telemetry_json = true;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (try --elastic, --checkpoint-every=N, "
                   "--checkpoint-uri=URI, --restore-from=URI, "
                   "--telemetry-every=N, --telemetry-json)\n",
                   argv[i]);
      return 2;
    }
  }
  const bool with_telemetry = telemetry_every > 0 || telemetry_json;
  if (checkpoint_every > 0 && checkpoint_uri.empty()) {
    checkpoint_uri = "file:///tmp/corrtrack_trend_ckpt";
  }

  ops::PipelineConfig pipeline;
  pipeline.algorithm = AlgorithmKind::kDS;
  pipeline.num_calculators = 5;
  pipeline.num_partitioners = 3;
  pipeline.window_span = 2 * kMillisPerMinute;
  pipeline.report_period = 2 * kMillisPerMinute;
  pipeline.bootstrap_time = 2 * kMillisPerMinute;
  if (elastic) {
    pipeline.num_calculators = 2;  // Start small; let k track the load.
    pipeline.max_calculators = 16;
    pipeline.elastic.enabled = true;
    pipeline.elastic.partition_overhead_load = 2000;
  }

  gen::GeneratorConfig workload;
  workload.seed = 99;
  workload.topics.num_topics = 120;
  workload.topics.tags_per_topic = 15;

  std::unique_ptr<telemetry::PipelineTelemetry> telemetry;
  if (with_telemetry) {
    telemetry = std::make_unique<telemetry::PipelineTelemetry>();
    pipeline.telemetry = telemetry.get();
  }

  const uint64_t num_docs =
      static_cast<uint64_t>(24 * 60 * workload.tagged_tps());
  auto spout = std::make_unique<BurstSpout>(workload, num_docs);
  TelemetryDumper resizes(telemetry != nullptr ? &telemetry->registry
                                               : nullptr,
                          telemetry_every, telemetry_json);
  // The sink slot doubles for resize printing and telemetry dumps; attach
  // it whenever either consumer wants the hooks.
  ops::MetricsSink* metrics_sink =
      (elastic || with_telemetry) ? &resizes : nullptr;

  // One run shape: the segmented checkpoint/restore protocol, which with
  // no durability flag runs a single segment. The BurstSpout is
  // deterministic for a fixed workload config, so a restored run resumes it
  // by skipping the already-ingested prefix.
  ops::CheckpointRunnerOptions options;
  options.checkpoint_uri = checkpoint_uri;
  options.every_docs = checkpoint_every;
  options.restore_uri = restore_from;
  ops::CheckpointedRun run;
  std::string error;
  if (!ops::RunCheckpointedPipeline(
          std::move(spout), pipeline, options, metrics_sink,
          /*with_centralized_baseline=*/false, /*tracker_sink=*/nullptr,
          /*baseline_sink=*/nullptr,
          /*final_flush_horizon=*/pipeline.report_period, &run, &error)) {
    std::fprintf(stderr, "run failed: %s\n", error.c_str());
    return 2;
  }
  stream::Runtime<ops::Message>* runtime = run.runtime.get();
  const ops::TopologyHandles& handles = run.handles;
  if (run.stats.restored) {
    std::printf("restore: checkpoint %llu, resumed past %llu docs\n",
                static_cast<unsigned long long>(run.stats.restored_seq),
                static_cast<unsigned long long>(run.stats.restored_docs));
  }
  for (const ops::CheckpointEvent& event : run.stats.events) {
    std::printf("checkpoint %llu: %llu docs, %llu bytes in %llu chunks "
                "(t=%lld min) %s\n",
                static_cast<unsigned long long>(event.seq),
                static_cast<unsigned long long>(event.docs_ingested),
                static_cast<unsigned long long>(event.bytes),
                static_cast<unsigned long long>(event.chunks),
                static_cast<long long>(event.time / kMillisPerMinute),
                event.ok ? "committed" : "FAILED");
  }
  std::printf("runtime: %s (deterministic, 1 thread)\n",
              stream::RuntimeKindName(runtime->kind()));
  if (elastic) {
    std::printf("elastic: %d resizes, %d of max %d calculators live\n",
                resizes.resizes,
                runtime->ActiveParallelism(handles.calculator),
                runtime->MaxParallelism(handles.calculator));
  }
  if (telemetry != nullptr) {
    std::printf("--- final telemetry snapshot ---\n");
    resizes.Dump();
  }

  const auto* tracker =
      static_cast<ops::TrackerBolt*>(runtime->bolt(handles.tracker, 0));

  // enBlogue-style shift score: |J_now - J_prev| per tagset, comparing each
  // reporting period with its predecessor.
  struct Shift {
    TagSet tags;
    double from, to;
    double score;
  };
  std::vector<Shift> shifts;
  const ops::TrackerBolt::PeriodResults* prev = nullptr;
  Timestamp last_period = 0;
  for (const auto& [period_end, results] : tracker->periods()) {
    if (prev != nullptr) {
      for (const auto& [tags, estimate] : results) {
        if (estimate.intersection_count < 5) continue;
        const auto it = prev->find(tags);
        const double before =
            it == prev->end() ? 0.0 : it->second.coefficient;
        const double score = estimate.coefficient - before;
        if (score > 0) {
          shifts.push_back({tags, before, estimate.coefficient, score});
        }
      }
    }
    prev = &results;
    last_period = period_end;
  }
  // Ties rank by tags, so the order does not depend on the map's.
  std::sort(shifts.begin(), shifts.end(), [](const Shift& a, const Shift& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.tags < b.tags;
  });

  std::printf("stream: %llu tagged docs over %lld min; %zu report periods\n",
              static_cast<unsigned long long>(num_docs),
              static_cast<long long>(last_period / kMillisPerMinute),
              tracker->periods().size());
  std::printf("top emerging correlations (Jaccard shift, support >= 5):\n");
  std::printf("  %-22s %8s -> %-8s %8s\n", "tagset", "J_prev", "J_now",
              "shift");
  int shown = 0;
  for (const Shift& s : shifts) {
    if (shown++ >= 8) break;
    std::printf("  %-22s %8.3f -> %-8.3f %8.3f\n", s.tags.ToString().c_str(),
                s.from, s.to, s.score);
  }
  // The injected burst pair must rank first.
  if (!shifts.empty() && shifts[0].to > 0.9) {
    std::printf(
        "\nthe burst pair (#earthquake,#sanfrancisco) surfaces at rank 1 "
        "with J=%.3f\n",
        shifts[0].to);
    return 0;
  }
  std::printf("\nburst pair not detected at rank 1 — unexpected\n");
  return 1;
}
