// query_server: end-to-end serving demo — ingest -> track -> query.
//
// Replays the synthetic generator workload through the Fig. 2 topology on
// the work-stealing pool runtime by default (--runtime=simulation for the
// deterministic simulator) with a serve::CorrelationIndex attached to the
// Tracker (via serve::IndexSink), then answers queries against the index:
// interactively when run on a terminal, or as a scripted demo otherwise
// (so the binary is runnable in CI).
//
//   ./build/example_query_server [--docs=N] [--interactive | --demo]
//                                [--runtime=pool|simulation] [--threads=N]
//                                [--listen=PORT] [--serve-seconds=N]
//                                [--drain-deadline-ms=N]
//
// Interactive commands:
//   top <tag> [k]        strongest sets containing <tag> ("#name" or id)
//   lookup <t1> <t2> ..  exact coefficient of a tagset, with freshness
//   scan <minJ> [limit]  all sets with coefficient >= minJ
//   stats                index epoch / freshness / size, snapshot age,
//                        and per-op query-latency percentiles
//   quit
//
// --listen=PORT swaps the REPL for the binary-protocol network front end
// (src/net): the server starts BEFORE the stream runs, so remote clients
// (examples/net_loadgen, src/net/client.h) query the index live while the
// topology is still publishing periods into it. PORT 0 picks an ephemeral
// port (printed). --serve-seconds bounds how long the server stays up
// after the stream drains (0 = until signalled); CI smoke-tests use a
// small bound. SIGTERM/SIGINT trigger a graceful drain: the listener
// closes, every response already owed to a connection is flushed, then
// the process exits — --drain-deadline-ms bounds how long stragglers get
// before being cut off (default 10s). The REPL/demo remains the default
// when --listen is absent.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/tweet_generator.h"
#include "net/server.h"
#include "net/signal_drain.h"
#include "ops/messages.h"
#include "ops/parser.h"
#include "ops/pipeline_config.h"
#include "ops/source.h"
#include "ops/topology_builder.h"
#include "serve/correlation_index.h"
#include "serve/index_sink.h"
#include "stream/runtime.h"
#include "telemetry/clock.h"
#include "telemetry/pipeline_telemetry.h"

namespace {

using namespace corrtrack;

std::string SetName(const TagSet& tags, const TagDictionary& dictionary) {
  std::string out = "{";
  for (size_t i = 0; i < tags.size(); ++i) {
    if (i > 0) out += ",";
    out += "#";
    out += dictionary.Name(tags[i]);
  }
  out += "}";
  return out;
}

std::optional<TagId> ResolveTag(const std::string& token,
                                const TagDictionary& dictionary) {
  std::string name = token;
  if (!name.empty() && name[0] == '#') name = name.substr(1);
  if (const std::optional<TagId> id = dictionary.Find(name)) return id;
  // Fall back to a numeric TagId.
  char* end = nullptr;
  const unsigned long value = std::strtoul(token.c_str(), &end, 10);
  if (end != token.c_str() && *end == '\0' && value < dictionary.size()) {
    return static_cast<TagId>(value);
  }
  return std::nullopt;
}

void PrintTop(const serve::CorrelationIndex::Reader& reader, TagId tag,
              size_t k, const TagDictionary& dictionary) {
  std::vector<serve::ScoredSet> results;
  const size_t n = reader.TopCorrelated(tag, k, &results);
  std::printf("top %zu for #%.*s:\n", n,
              static_cast<int>(dictionary.Name(tag).size()),
              dictionary.Name(tag).data());
  for (const serve::ScoredSet& scored : results) {
    std::printf("  %-40s J=%.3f  period=%lldms\n",
                SetName(scored.tags, dictionary).c_str(), scored.coefficient,
                static_cast<long long>(scored.period_end));
  }
}

void PrintLookup(const serve::CorrelationIndex::Reader& reader,
                 const TagSet& tags, const TagDictionary& dictionary) {
  const std::optional<serve::LookupResult> hit = reader.Lookup(tags);
  if (!hit.has_value()) {
    std::printf("%s: not tracked\n", SetName(tags, dictionary).c_str());
    return;
  }
  std::printf("%s: J=%.3f inter=%llu union=%llu period=%lldms epoch=%llu\n",
              SetName(tags, dictionary).c_str(), hit->coefficient,
              static_cast<unsigned long long>(hit->intersection_count),
              static_cast<unsigned long long>(hit->union_count),
              static_cast<long long>(hit->period_end),
              static_cast<unsigned long long>(hit->epoch));
}

void PrintStats(const serve::CorrelationIndex& index,
                const serve::CorrelationIndex::Reader& reader,
                const telemetry::MetricRegistry& registry) {
  std::printf(
      "index: %zu sets over %zu shards, epoch %llu, freshest period %lldms\n",
      reader.TotalSets(), index.num_shards(),
      static_cast<unsigned long long>(index.epoch()),
      static_cast<long long>(index.latest_period()));
  const int64_t published = index.last_publish_wall_ns();
  if (published != 0) {
    std::printf("snapshot age: %.3fs since last publish\n",
                static_cast<double>(telemetry::MonotonicNanos() - published) /
                    1e9);
  }
  for (const char* op : {"top", "lookup", "scan"}) {
    const std::string name =
        std::string("corrtrack_serve_query_ns{op=\"") + op + "\"}";
    const telemetry::LatencyHistogram* hist = registry.FindHistogram(name);
    if (hist == nullptr) continue;
    const telemetry::HistogramSnapshot snap = hist->Snapshot();
    if (snap.count == 0) continue;
    std::printf(
        "query %-6s n=%-8llu p50=%lluns p90=%lluns p99=%lluns max=%lluns\n",
        op, static_cast<unsigned long long>(snap.count),
        static_cast<unsigned long long>(snap.ValueAtQuantile(0.5)),
        static_cast<unsigned long long>(snap.ValueAtQuantile(0.9)),
        static_cast<unsigned long long>(snap.ValueAtQuantile(0.99)),
        static_cast<unsigned long long>(snap.max));
  }
}

void RunDemo(const serve::CorrelationIndex& index,
             const TagDictionary& dictionary,
             const telemetry::MetricRegistry& registry) {
  const serve::CorrelationIndex::Reader reader = index.NewReader();
  PrintStats(index, reader, registry);
  std::vector<serve::ScoredSet> strongest;
  reader.Snapshot(0.0, &strongest);
  if (strongest.empty()) {
    std::printf("nothing tracked — stream too short?\n");
    return;
  }
  std::printf("\nscan (strongest 5 overall):\n");
  for (size_t i = 0; i < strongest.size() && i < 5; ++i) {
    std::printf("  %-40s J=%.3f\n",
                SetName(strongest[i].tags, dictionary).c_str(),
                strongest[i].coefficient);
  }
  std::printf("\n");
  PrintTop(reader, strongest[0].tags[0], 5, dictionary);
  std::printf("\n");
  PrintLookup(reader, strongest[0].tags, dictionary);
  std::printf("\n");
  PrintStats(index, reader, registry);
}

void RunRepl(const serve::CorrelationIndex& index,
             const TagDictionary& dictionary,
             const telemetry::MetricRegistry& registry) {
  const serve::CorrelationIndex::Reader reader = index.NewReader();
  PrintStats(index, reader, registry);
  std::printf("commands: top <tag> [k] | lookup <t1> <t2> .. | "
              "scan <minJ> [limit] | stats | quit\n");
  std::string line;
  while (std::printf("> ") > 0 && std::fflush(stdout) == 0 &&
         std::getline(std::cin, line)) {
    // Piped and CRLF input: strip the carriage return so "quit\r" quits.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::istringstream words(line);
    std::string command;
    if (!(words >> command)) continue;
    if (command == "quit" || command == "exit") break;
    if (command == "stats") {
      PrintStats(index, reader, registry);
    } else if (command == "top") {
      std::string token;
      size_t k = 10;
      if (!(words >> token)) {
        std::printf("usage: top <tag> [k]\n");
        continue;
      }
      // A partial line ("top #tag" with no k) or a garbage k must keep the
      // default — a failed extraction writes 0, which would answer nothing.
      if (!(words >> k)) k = 10;
      if (k == 0) k = 1;
      if (k > 10000) k = 10000;
      const std::optional<TagId> tag = ResolveTag(token, dictionary);
      if (!tag.has_value()) {
        std::printf("unknown tag %s\n", token.c_str());
        continue;
      }
      PrintTop(reader, *tag, k, dictionary);
    } else if (command == "lookup") {
      std::vector<TagId> tags;
      std::string token;
      bool ok = true;
      while (words >> token) {
        const std::optional<TagId> tag = ResolveTag(token, dictionary);
        if (!tag.has_value()) {
          std::printf("unknown tag %s\n", token.c_str());
          ok = false;
          break;
        }
        tags.push_back(*tag);
      }
      if (!ok || tags.empty()) continue;
      PrintLookup(reader, TagSet(tags), dictionary);
    } else if (command == "scan") {
      // Same partial-line discipline as `top`: missing or malformed
      // numbers keep their defaults instead of collapsing to zero, and
      // the threshold is clamped into the meaningful [0, 1] range.
      double min_jaccard = 0.5;
      size_t limit = 20;
      if (!(words >> min_jaccard)) min_jaccard = 0.5;
      if (!(words >> limit)) limit = 20;
      if (min_jaccard < 0.0) min_jaccard = 0.0;
      if (min_jaccard > 1.0) min_jaccard = 1.0;
      if (limit == 0) limit = 1;
      std::vector<serve::ScoredSet> results;
      const size_t n = reader.Snapshot(min_jaccard, &results);
      std::printf("%zu sets with J >= %.3f:\n", n, min_jaccard);
      for (size_t i = 0; i < results.size() && i < limit; ++i) {
        std::printf("  %-40s J=%.3f\n",
                    SetName(results[i].tags, dictionary).c_str(),
                    results[i].coefficient);
      }
    } else {
      std::printf("unknown command %s\n", command.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t num_docs = 60000;
  bool interactive = isatty(STDIN_FILENO) != 0;
  stream::RuntimeKind runtime_kind = stream::RuntimeKind::kPool;
  int num_threads = 0;
  bool listen = false;
  uint16_t listen_port = 0;
  uint64_t serve_seconds = 0;
  int64_t drain_deadline_ms = 10'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--docs=", 7) == 0) {
      num_docs = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--listen=", 9) == 0) {
      const unsigned long port = std::strtoul(argv[i] + 9, nullptr, 10);
      if (port > 65535) {
        std::fprintf(stderr, "bad --listen port '%s'\n", argv[i] + 9);
        return 1;
      }
      listen = true;
      listen_port = static_cast<uint16_t>(port);
    } else if (std::strncmp(argv[i], "--serve-seconds=", 16) == 0) {
      serve_seconds = std::strtoull(argv[i] + 16, nullptr, 10);
    } else if (std::strncmp(argv[i], "--drain-deadline-ms=", 20) == 0) {
      drain_deadline_ms = std::strtoll(argv[i] + 20, nullptr, 10);
    } else if (std::strcmp(argv[i], "--interactive") == 0) {
      interactive = true;
    } else if (std::strcmp(argv[i], "--demo") == 0) {
      interactive = false;
    } else if (std::strncmp(argv[i], "--runtime=", 10) == 0) {
      if (!stream::ParseRuntimeKind(argv[i] + 10, &runtime_kind)) {
        std::fprintf(stderr,
                     "unknown --runtime '%s' (simulation|pool)\n",
                     argv[i] + 10);
        return 1;
      }
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      num_threads = std::atoi(argv[i] + 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    }
  }

  ops::PipelineConfig pipeline;
  pipeline.algorithm = AlgorithmKind::kDS;
  pipeline.num_calculators = 5;
  pipeline.num_partitioners = 3;
  pipeline.window_span = 2 * kMillisPerMinute;
  pipeline.report_period = 2 * kMillisPerMinute;
  pipeline.bootstrap_time = 2 * kMillisPerMinute;
  pipeline.runtime = runtime_kind;
  pipeline.num_threads = num_threads;
  pipeline.queue_capacity = 256;

  gen::GeneratorConfig workload;
  workload.seed = 2014;
  workload.topics.num_topics = 60;

  // The index ingests live from the Tracker task while the topology runs;
  // queries are answered after the stream drains (and could equally be
  // answered by concurrent readers mid-run — see bench/serve_bench.cc).
  // Telemetry rides along so the `stats` command can report query-latency
  // percentiles and snapshot age.
  telemetry::PipelineTelemetry telemetry;
  pipeline.telemetry = &telemetry;
  serve::CorrelationIndex index;
  index.AttachTelemetry(&telemetry.registry);
  serve::IndexSink sink(&index);

  stream::Topology<ops::Message> topology;
  const ops::TopologyHandles handles = ops::BuildCorrelationTopology(
      &topology, std::make_unique<ops::GeneratorSpout>(workload, num_docs),
      pipeline, /*metrics=*/nullptr, /*with_centralized_baseline=*/false,
      &sink);
  auto runtime = ops::MakeConfiguredRuntime(&topology, pipeline);

  // With --listen the network front end comes up BEFORE the stream runs:
  // remote clients race the live pipeline the same way REPL readers could,
  // and the per-thread Reader caches chase the publishes.
  std::unique_ptr<net::Server> server;
  if (listen) {
    net::ServerConfig server_config;
    server_config.port = listen_port;
    server_config.registry = &telemetry.registry;
    server = std::make_unique<net::Server>(&index, server_config);
    std::string error;
    if (!server->Start(&error)) {
      std::fprintf(stderr, "listen failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("serving binary protocol on 127.0.0.1:%u\n",
                static_cast<unsigned>(server->port()));
  }

  std::printf("streaming %llu documents through the topology "
              "(runtime: %s)...\n",
              static_cast<unsigned long long>(num_docs),
              stream::RuntimeKindName(runtime->kind()));
  runtime->Run(/*flush_horizon=*/pipeline.report_period);
  const stream::RuntimeStats run_stats = runtime->stats();
  std::printf("ran on %d thread%s, %llu envelopes moved, %llu steals\n",
              run_stats.num_threads, run_stats.num_threads == 1 ? "" : "s",
              static_cast<unsigned long long>(run_stats.envelopes_moved),
              static_cast<unsigned long long>(run_stats.steals));

  const auto* parser =
      static_cast<ops::ParserBolt*>(runtime->bolt(handles.parser, 0));
  if (listen) {
    // SIGTERM/SIGINT turn into a graceful drain: stop accepting, deliver
    // every response owed to already-received requests (bounded by
    // --drain-deadline-ms), then close — so `kill <pid>` never cuts a
    // client off mid-batch.
    net::SignalDrainer drainer;
    if (serve_seconds > 0) {
      std::printf("stream drained; serving for %llus more\n",
                  static_cast<unsigned long long>(serve_seconds));
      drainer.WaitForSignal(static_cast<int>(serve_seconds * 1000));
    } else {
      std::printf("stream drained; serving until SIGTERM\n");
      drainer.WaitForSignal(-1);
    }
    if (drainer.signaled() != 0) {
      std::printf("signal %d: draining (deadline %llums)\n",
                  drainer.signaled(),
                  static_cast<unsigned long long>(drain_deadline_ms));
    }
    const bool drained = server->Drain(drain_deadline_ms);
    std::printf("%s\n", drained ? "drained cleanly"
                                : "drain deadline hit; remaining "
                                  "connections were cut off");
  } else if (interactive) {
    RunRepl(index, parser->dictionary(), telemetry.registry);
  } else {
    RunDemo(index, parser->dictionary(), telemetry.registry);
  }
  return 0;
}
