// Pipeline-throughput comparison of the execution substrates: the
// deterministic simulator and the work-stealing PoolRuntime at 1/2/4/8
// workers.
//
// Two topologies:
//  * Shuffle: spout -> 32 CPU-bound worker bolts -> global sink. 32 logical
//    tasks is the tasks >> threads regime the pool exists for; per-envelope
//    work (~500 splitmix64 rounds) dominates queue overhead so the numbers
//    measure scheduling, not memcpy. Throughput = envelopes/s through the
//    worker stage.
//  * Correlation: the full Fig. 2 topology over a fixed 8000-document
//    replayed stream (items/s = documents/s end to end).
//
// Thread-count scaling is only visible on multi-core hardware; on a
// single-core container the pool points mainly quantify scheduling
// overhead versus the simulator.

#include <memory>
#include <variant>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include "gen/tweet_generator.h"
#include "ops/messages.h"
#include "ops/source.h"
#include "ops/topology_builder.h"
#include "stream/runtime_factory.h"

namespace {

using namespace corrtrack;

struct Value {
  uint64_t v = 0;
};
/// Broadcast-bench payload: big enough (4 KiB) that the per-destination
/// copy of an owned-payload fan-out dominates routing cost.
struct Blob {
  std::vector<uint64_t> data;
};
using Msg = std::variant<Value, Blob>;

constexpr int kShuffleDocs = 10000;
constexpr int kShuffleTasks = 32;  // Logical tasks >> typical core counts.
constexpr int kWorkRounds = 500;   // splitmix64 rounds per envelope.

class CountingSpout : public stream::Spout<Msg> {
 public:
  explicit CountingSpout(int n) : n_(n) {}
  bool Next(Msg* out, Timestamp* time) override {
    if (i_ >= n_) return false;
    *out = Value{static_cast<uint64_t>(i_)};
    *time = static_cast<Timestamp>(i_);
    ++i_;
    return true;
  }

 private:
  int n_;
  int i_ = 0;
};

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// CPU-bound stage: kWorkRounds hash rounds per envelope, result forwarded
/// so the sink keeps the whole chain live.
class HashingBolt : public stream::Bolt<Msg> {
 public:
  void Execute(const stream::Envelope<Msg>& in,
               stream::Emitter<Msg>& out) override {
    uint64_t h = std::get<Value>(in.payload()).v;
    for (int i = 0; i < kWorkRounds; ++i) h = SplitMix64(h);
    out.Emit(Msg{Value{h}});
  }
};

class SummingBolt : public stream::Bolt<Msg> {
 public:
  void Execute(const stream::Envelope<Msg>& in,
               stream::Emitter<Msg>&) override {
    sum += std::get<Value>(in.payload()).v;
  }
  uint64_t sum = 0;
};

void RunShuffleOnce(stream::RuntimeKind kind, int threads,
                    benchmark::State& state) {
  stream::Topology<Msg> topology;
  const int spout = topology.AddSpout(
      "src", std::make_unique<CountingSpout>(kShuffleDocs));
  const int workers = topology.AddBolt(
      "work", [](int) { return std::make_unique<HashingBolt>(); },
      kShuffleTasks);
  SummingBolt* sink_bolt = nullptr;
  const int sink = topology.AddBolt(
      "sink",
      [&sink_bolt](int) {
        auto b = std::make_unique<SummingBolt>();
        sink_bolt = b.get();
        return b;
      },
      1);
  topology.Subscribe(workers, spout, stream::Grouping<Msg>::Shuffle());
  topology.Subscribe(sink, workers, stream::Grouping<Msg>::Global());
  stream::RuntimeOptions options;
  options.num_threads = threads;
  auto runtime = stream::MakeRuntime<Msg>(kind, &topology, options);
  runtime->Run();
  if (sink_bolt->sum == 0) state.SkipWithError("hash sum vanished");
  benchmark::DoNotOptimize(sink_bolt->sum);
}

void ShuffleBench(benchmark::State& state, stream::RuntimeKind kind,
                  int threads) {
  for (auto _ : state) RunShuffleOnce(kind, threads, state);
  state.SetItemsProcessed(state.iterations() * kShuffleDocs);
}

void BM_ShuffleSimulation(benchmark::State& state) {
  ShuffleBench(state, stream::RuntimeKind::kSimulation, 0);
}

void BM_ShufflePool(benchmark::State& state) {
  ShuffleBench(state, stream::RuntimeKind::kPool,
               static_cast<int>(state.range(0)));
}

// --------------------------------------------------------------------------
// BM_BroadcastFanout: one emission of a 4 KiB blob fanned out to k
// consumers. Envelopes own their message, so the engine copies the blob
// into k - 1 envelopes and moves it into the last. No topology in the repo
// broadcasts a payload this size inline (bulk broadcasts ride behind
// shared_ptr<const T>); the bench prices what such a message type would
// pay. Items processed = deliveries (docs x k).
// --------------------------------------------------------------------------

constexpr int kFanoutDocs = 5000;
constexpr size_t kBlobWords = 512;  // 4 KiB payload.

class BlobSpout : public stream::Spout<Msg> {
 public:
  explicit BlobSpout(int n) : n_(n) {
    blob_.data.assign(kBlobWords, 0x5eedULL);
  }
  bool Next(Msg* out, Timestamp* time) override {
    if (i_ >= n_) return false;
    blob_.data[0] = static_cast<uint64_t>(i_);
    *out = blob_;
    *time = static_cast<Timestamp>(i_);
    ++i_;
    return true;
  }

 private:
  int n_;
  int i_ = 0;
  Blob blob_;
};

/// Emits once; the kAll edge fans the blob out k ways.
class BroadcastBolt : public stream::Bolt<Msg> {
 public:
  void Execute(const stream::Envelope<Msg>& in,
               stream::Emitter<Msg>& out) override {
    out.Emit(in.payload());
  }
};

class BlobSinkBolt : public stream::Bolt<Msg> {
 public:
  void Execute(const stream::Envelope<Msg>& in,
               stream::Emitter<Msg>&) override {
    sum += std::get<Blob>(in.payload()).data[0];
  }
  uint64_t sum = 0;
};

void BM_BroadcastFanout(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    stream::Topology<Msg> topology;
    const int spout =
        topology.AddSpout("src", std::make_unique<BlobSpout>(kFanoutDocs));
    const int fan = topology.AddBolt(
        "fan", [](int) { return std::make_unique<BroadcastBolt>(); }, 1);
    BlobSinkBolt* first_sink = nullptr;
    const int sinks = topology.AddBolt(
        "sink",
        [&first_sink](int) {
          auto b = std::make_unique<BlobSinkBolt>();
          if (first_sink == nullptr) first_sink = b.get();
          return b;
        },
        k);
    topology.Subscribe(fan, spout, stream::Grouping<Msg>::Shuffle());
    topology.Subscribe(sinks, fan, stream::Grouping<Msg>::All());
    stream::SimulationRuntime<Msg> runtime(&topology);
    runtime.Run();
    if (first_sink->sum == 0) state.SkipWithError("blob sum vanished");
    benchmark::DoNotOptimize(first_sink->sum);
  }
  state.SetItemsProcessed(state.iterations() * kFanoutDocs * k);
}

// --------------------------------------------------------------------------
// BM_EnvelopeAlloc: per-envelope engine overhead on a minimal pass-through
// chain (spout -> forward -> sink, trivial payloads). Each envelope holds
// its message inline, so this measures routing and queueing alone: no
// `new`/`delete` per tuple.
// --------------------------------------------------------------------------

constexpr int kAllocDocs = 20000;

class ForwardBolt : public stream::Bolt<Msg> {
 public:
  void Execute(const stream::Envelope<Msg>& in,
               stream::Emitter<Msg>& out) override {
    out.Emit(in.payload());
  }
};

void BM_EnvelopeAlloc(benchmark::State& state) {
  for (auto _ : state) {
    stream::Topology<Msg> topology;
    const int spout = topology.AddSpout(
        "src", std::make_unique<CountingSpout>(kAllocDocs));
    const int forward = topology.AddBolt(
        "fwd", [](int) { return std::make_unique<ForwardBolt>(); }, 1);
    SummingBolt* sink_bolt = nullptr;
    const int sink = topology.AddBolt(
        "sink",
        [&sink_bolt](int) {
          auto b = std::make_unique<SummingBolt>();
          sink_bolt = b.get();
          return b;
        },
        1);
    topology.Subscribe(forward, spout, stream::Grouping<Msg>::Shuffle());
    topology.Subscribe(sink, forward, stream::Grouping<Msg>::Global());
    stream::SimulationRuntime<Msg> runtime(&topology);
    runtime.Run();
    benchmark::DoNotOptimize(sink_bolt->sum);
  }
  state.SetItemsProcessed(state.iterations() * kAllocDocs);
}

std::vector<Document> MakeDocs(int n) {
  gen::GeneratorConfig config;
  config.seed = 77;
  gen::TweetGenerator generator(config);
  std::vector<Document> docs;
  docs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) docs.push_back(generator.Next());
  return docs;
}

void CorrelationBench(benchmark::State& state, stream::RuntimeKind kind,
                      int threads) {
  const auto docs = MakeDocs(8000);
  ops::PipelineConfig pipeline;
  pipeline.algorithm = AlgorithmKind::kDS;
  pipeline.num_calculators = 4;
  pipeline.num_partitioners = 3;
  pipeline.window_span = kMillisPerMinute;
  pipeline.report_period = kMillisPerMinute;
  pipeline.bootstrap_time = kMillisPerMinute;
  pipeline.runtime = kind;
  pipeline.num_threads = threads;
  pipeline.queue_capacity = 256;
  for (auto _ : state) {
    stream::Topology<ops::Message> topology;
    ops::BuildCorrelationTopology(
        &topology, std::make_unique<ops::ReplaySpout>(docs), pipeline,
        nullptr, /*with_centralized_baseline=*/false);
    auto runtime = ops::MakeConfiguredRuntime(&topology, pipeline);
    runtime->Run(pipeline.report_period);
    benchmark::DoNotOptimize(runtime->TuplesDelivered(1));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(docs.size()));
}

void BM_CorrelationSimulation(benchmark::State& state) {
  CorrelationBench(state, stream::RuntimeKind::kSimulation, 0);
}

void BM_CorrelationPool(benchmark::State& state) {
  CorrelationBench(state, stream::RuntimeKind::kPool,
                   static_cast<int>(state.range(0)));
}

}  // namespace

// UseRealTime: the workers run outside the main thread, so wall clock —
// not main-thread CPU time — is the meaningful throughput denominator.
BENCHMARK(BM_ShuffleSimulation)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ShufflePool)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_BroadcastFanout)
    ->ArgName("k")
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EnvelopeAlloc)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CorrelationSimulation)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_CorrelationPool)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

CORRTRACK_BENCHMARK_MAIN();
