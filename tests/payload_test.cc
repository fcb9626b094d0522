// Owned-payload envelope lifecycle: every envelope owns its message by
// value, a fan-out copies the message into every destination but the last
// and moves it into the last, and runtime teardown (the feedback-discard
// shutdown path included) destroys every message exactly once.
//
// The concurrent cases double as ThreadSanitizer targets (ci.yml runs this
// suite in the TSan job): broadcast consumers mutating their own copies on
// different workers, and the tiny-mailbox + forced-resize stress.

#include <atomic>
#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "gen/tweet_generator.h"
#include "ops/source.h"
#include "ops/topology_builder.h"
#include "ops/tracker_op.h"
#include "stream/pool_runtime.h"
#include "stream/runtime_factory.h"
#include "stream/simulation.h"

namespace corrtrack {
namespace {

using stream::Bolt;
using stream::Emitter;
using stream::Envelope;
using stream::Grouping;
using stream::RuntimeKind;
using stream::Topology;

/// A message with an observable lifetime: every constructor and the
/// destructor bump global counters, so once the runtime is gone a test can
/// check that each Counted ever built was destroyed exactly once. `self_`
/// catches a second destruction of the same object.
class Counted {
 public:
  static std::atomic<int64_t> constructed;
  static std::atomic<int64_t> copied;
  static std::atomic<int64_t> destroyed;
  static std::atomic<int64_t> destroyed_twice;

  static void ResetCounts() {
    constructed = 0;
    copied = 0;
    destroyed = 0;
    destroyed_twice = 0;
  }

  Counted() { Born(); }
  explicit Counted(uint64_t value) : v(value) { Born(); }
  Counted(const Counted& other) : v(other.v) {
    Born();
    copied.fetch_add(1, std::memory_order_relaxed);
  }
  Counted(Counted&& other) noexcept : v(other.v) { Born(); }
  Counted& operator=(const Counted& other) {
    v = other.v;
    copied.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  Counted& operator=(Counted&& other) noexcept {
    v = other.v;
    return *this;
  }
  ~Counted() {
    if (self_ != this) destroyed_twice.fetch_add(1, std::memory_order_relaxed);
    self_ = nullptr;
    destroyed.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t v = 0;

 private:
  void Born() {
    self_ = this;
    constructed.fetch_add(1, std::memory_order_relaxed);
  }

  const Counted* self_ = nullptr;
};

std::atomic<int64_t> Counted::constructed{0};
std::atomic<int64_t> Counted::copied{0};
std::atomic<int64_t> Counted::destroyed{0};
std::atomic<int64_t> Counted::destroyed_twice{0};

using Msg = std::variant<Counted>;

/// Checks the ledger once every runtime and topology of the test is gone.
void ExpectEveryMessageDestroyedOnce(const char* where) {
  EXPECT_GT(Counted::constructed.load(), 0) << where;
  EXPECT_EQ(Counted::destroyed.load(), Counted::constructed.load())
      << where << ": a message outlived the runtime";
  EXPECT_EQ(Counted::destroyed_twice.load(), 0) << where;
}

class CountedSpout : public stream::Spout<Msg> {
 public:
  explicit CountedSpout(int n) : n_(n) {}
  bool Next(Msg* out, Timestamp* time) override {
    if (i_ >= n_) return false;
    *out = Counted(static_cast<uint64_t>(i_));
    *time = static_cast<Timestamp>(i_);
    ++i_;
    return true;
  }

 private:
  int n_;
  int i_ = 0;
};

/// Forwards spout tuples into the loop; swallows feedback tuples. Forwards
/// by moving its own envelope's message, so the loop copies nothing.
class LoopBolt : public Bolt<Msg> {
 public:
  explicit LoopBolt(int forward_source) : forward_source_(forward_source) {}
  void Execute(const Envelope<Msg>& in, Emitter<Msg>& out) override {
    if (in.source.component == forward_source_) {
      out.Emit(std::move(in.MutablePayload()));
    }
  }

 private:
  int forward_source_;
};

/// Echoes everything back into the feedback edge.
class EchoBolt : public Bolt<Msg> {
 public:
  void Execute(const Envelope<Msg>& in, Emitter<Msg>& out) override {
    out.Emit(std::move(in.MutablePayload()));
  }
};

class SinkBolt : public Bolt<Msg> {
 public:
  void Execute(const Envelope<Msg>& in, Emitter<Msg>&) override {
    sum += std::get<Counted>(in.payload()).v;
  }
  uint64_t sum = 0;
};

/// Feedback traffic still queued at end-of-stream is *discarded* by the
/// engine contract; the discard path must still destroy every message
/// (no leak, no double destruction). Tiny queues guarantee residue exists
/// on the pool. Every hop has one destination, so nothing is copied.
void RunFeedbackDiscard(RuntimeKind kind, size_t queue_capacity) {
  Counted::ResetCounts();
  const int n = 3000;
  {
    Topology<Msg> topology;
    const int spout =
        topology.AddSpout("src", std::make_unique<CountedSpout>(n));
    const int loop = topology.AddBolt(
        "loop",
        [spout](int) { return std::make_unique<LoopBolt>(spout); }, 1);
    const int echo = topology.AddBolt(
        "echo", [](int) { return std::make_unique<EchoBolt>(); }, 1);
    topology.Subscribe(loop, spout, Grouping<Msg>::Shuffle());
    topology.Subscribe(echo, loop, Grouping<Msg>::Global());
    topology.Subscribe(loop, echo, Grouping<Msg>::Global());  // Feedback.
    stream::RuntimeOptions options;
    options.queue_capacity = queue_capacity;
    options.num_threads = 2;
    auto runtime = stream::MakeRuntime<Msg>(kind, &topology, options);
    runtime->Run();
    EXPECT_EQ(runtime->TuplesDelivered(echo), static_cast<uint64_t>(n));
    // While the runtime lives, residual feedback envelopes MAY still hold
    // messages; destruction must destroy every one of them.
  }
  const std::string where = std::string(stream::RuntimeKindName(kind)) +
                            " capacity " + std::to_string(queue_capacity);
  EXPECT_EQ(Counted::copied.load(), 0) << where;
  ExpectEveryMessageDestroyedOnce(where.c_str());
}

TEST(PayloadLifecycle, FeedbackDiscardDestroysEveryMessageOnce) {
  RunFeedbackDiscard(RuntimeKind::kSimulation, 4);
  for (const size_t capacity : {size_t{4}, size_t{2}}) {
    RunFeedbackDiscard(RuntimeKind::kPool, capacity);
  }
}

/// Two consumers of one broadcast: instance 0 mutates its envelope's
/// message, instance 1 only reads. Each owns an independent copy, so the
/// reader must see the original values whatever the execution order.
class MutatingBolt : public Bolt<Msg> {
 public:
  void Execute(const Envelope<Msg>& in, Emitter<Msg>&) override {
    if (self_.instance == 0) {
      std::get<Counted>(in.MutablePayload()).v += 1000000;
      mutated_sum += std::get<Counted>(in.payload()).v;
    } else {
      observed_sum += std::get<Counted>(in.payload()).v;
    }
  }
  void Prepare(stream::TaskAddress self, int) override { self_ = self; }
  uint64_t mutated_sum = 0;
  uint64_t observed_sum = 0;

 private:
  stream::TaskAddress self_;
};

TEST(PayloadLifecycle, BroadcastConsumersOwnIndependentCopies) {
  for (const RuntimeKind kind : {RuntimeKind::kSimulation, RuntimeKind::kPool}) {
    Counted::ResetCounts();
    const int n = 1000;
    {
      Topology<Msg> topology;
      const int spout =
          topology.AddSpout("src", std::make_unique<CountedSpout>(n));
      std::vector<MutatingBolt*> bolts(2, nullptr);
      const int consumers = topology.AddBolt(
          "consumer",
          [&bolts](int instance) {
            auto b = std::make_unique<MutatingBolt>();
            bolts[static_cast<size_t>(instance)] = b.get();
            return b;
          },
          2);
      topology.Subscribe(consumers, spout, Grouping<Msg>::All());
      stream::RuntimeOptions options;
      options.num_threads = 2;
      options.queue_capacity = 2;
      auto runtime = stream::MakeRuntime<Msg>(kind, &topology, options);
      runtime->Run();

      const uint64_t base = static_cast<uint64_t>(n) * (n - 1) / 2;
      // The mutator saw its own +1e6 per tuple...
      EXPECT_EQ(bolts[0]->mutated_sum, base + 1000000ull * n)
          << stream::RuntimeKindName(kind);
      // ...its sibling saw the original values, untouched.
      EXPECT_EQ(bolts[1]->observed_sum, base)
          << stream::RuntimeKindName(kind);
      // A two-way broadcast copies once and moves once.
      EXPECT_EQ(Counted::copied.load(), n) << stream::RuntimeKindName(kind);
    }
    ExpectEveryMessageDestroyedOnce(stream::RuntimeKindName(kind));
  }
}

TEST(PayloadLifecycle, FanoutCopiesAllButTheLastDestination) {
  for (const RuntimeKind kind : {RuntimeKind::kSimulation, RuntimeKind::kPool}) {
    Counted::ResetCounts();
    const int n = 2000;
    const int k = 4;
    {
      Topology<Msg> topology;
      const int spout =
          topology.AddSpout("src", std::make_unique<CountedSpout>(n));
      std::vector<SinkBolt*> sinks(k, nullptr);
      const int consumers = topology.AddBolt(
          "consumer",
          [&sinks](int instance) {
            auto b = std::make_unique<SinkBolt>();
            sinks[static_cast<size_t>(instance)] = b.get();
            return b;
          },
          k);
      topology.Subscribe(consumers, spout, Grouping<Msg>::All());
      stream::RuntimeOptions options;
      options.num_threads = 2;
      auto runtime = stream::MakeRuntime<Msg>(kind, &topology, options);
      runtime->Run();
      EXPECT_EQ(runtime->TuplesDelivered(consumers),
                static_cast<uint64_t>(n) * k)
          << stream::RuntimeKindName(kind);
      for (const SinkBolt* sink : sinks) {
        EXPECT_EQ(sink->sum, static_cast<uint64_t>(n) * (n - 1) / 2)
            << stream::RuntimeKindName(kind);
      }
      EXPECT_EQ(Counted::copied.load(), static_cast<int64_t>(n) * (k - 1))
          << stream::RuntimeKindName(kind);
    }
    ExpectEveryMessageDestroyedOnce(stream::RuntimeKindName(kind));
  }
}

// ---------------------------------------------------------------------------
// TSan stress: tiny mailboxes + forced resize — the combination the CI
// ThreadSanitizer job watches: messages crossing threads under helping,
// stealing, stall escapes and Calculator activation/retirement at once.
// ---------------------------------------------------------------------------

TEST(PayloadLifecycle, TsanStressTinyMailboxesForcedResize) {
  for (int round = 0; round < 2; ++round) {
    ops::PipelineConfig pipeline;
    pipeline.algorithm = AlgorithmKind::kDS;
    pipeline.num_calculators = 4;
    pipeline.max_calculators = 8;
    pipeline.num_partitioners = 3;
    pipeline.window_span = 1000 * kMillisPerMinute;
    pipeline.report_period = kMillisPerMinute;
    pipeline.bootstrap_time = kMillisPerMinute / 6;
    pipeline.forced_repartition_docs = {2500, 4000};
    pipeline.forced_k_schedule = {4, 8, 3};
    pipeline.tracker_merge = EstimateMerge::kAdditive;

    gen::GeneratorConfig workload;
    workload.seed = 31 + static_cast<uint64_t>(round);
    workload.topics.num_topics = 12;
    workload.topics.joint_prob = 0.0;
    workload.fresh_tag_prob = 0.0;
    workload.event_prob = 0.0;
    const uint64_t num_docs = 6000;

    Topology<ops::Message> topology;
    const auto handles = ops::BuildCorrelationTopology(
        &topology, std::make_unique<ops::GeneratorSpout>(workload, num_docs),
        pipeline, nullptr, /*with_centralized_baseline=*/false);
    stream::RuntimeOptions options;
    options.num_threads = 2;
    options.queue_capacity = 2;  // Tinier than any elastic stress so far.
    stream::PoolRuntime<ops::Message> runtime(&topology, options);
    runtime.Run(pipeline.report_period);

    EXPECT_EQ(runtime.TuplesDelivered(handles.parser), num_docs);
    const stream::RuntimeStats stats = runtime.stats();
    EXPECT_GE(stats.tasks_spawned, 4u);
    const auto* tracker =
        static_cast<ops::TrackerBolt*>(runtime.bolt(handles.tracker, 0));
    EXPECT_FALSE(tracker->periods().empty());
  }
}

}  // namespace
}  // namespace corrtrack
