// Shared-payload envelope lifecycle: refcounted zero-copy fan-out blocks
// (stream/payload.h), per-task arena recycling, copy-on-write isolation,
// and refcount release on the feedback-discard shutdown path.
//
// The concurrent cases double as ThreadSanitizer targets (ci.yml runs this
// suite in the TSan job): cross-thread block release/reuse, COW racing
// fan-out, and the tiny-mailbox + shared-payload + forced-resize stress.

#include <memory>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "gen/tweet_generator.h"
#include "ops/source.h"
#include "ops/topology_builder.h"
#include "ops/tracker_op.h"
#include "stream/payload.h"
#include "stream/pool_runtime.h"
#include "stream/runtime_factory.h"
#include "stream/simulation.h"

namespace corrtrack {
namespace {

using stream::Bolt;
using stream::Emitter;
using stream::Envelope;
using stream::Grouping;
using stream::PayloadArena;
using stream::PayloadRef;
using stream::Topology;

// ---------------------------------------------------------------------------
// PayloadRef / PayloadArena unit behaviour.
// ---------------------------------------------------------------------------

TEST(PayloadRef, SharesAndReleasesHeapBlocks) {
  auto sentinel = std::make_shared<int>(7);
  {
    PayloadRef<std::shared_ptr<int>> a =
        PayloadRef<std::shared_ptr<int>>::Make(sentinel);
    EXPECT_EQ(a.use_count(), 1u);
    EXPECT_EQ(sentinel.use_count(), 2);
    {
      PayloadRef<std::shared_ptr<int>> b = a;  // Share, not copy.
      EXPECT_EQ(a.use_count(), 2u);
      EXPECT_EQ(sentinel.use_count(), 2);  // Still ONE payload instance.
      EXPECT_EQ(a.get(), b.get());         // Same block.
    }
    EXPECT_EQ(a.use_count(), 1u);
  }
  EXPECT_EQ(sentinel.use_count(), 1);  // Last release freed the block.
}

TEST(PayloadRef, MutableCopyInPlaceWhenUnique) {
  PayloadRef<int> ref = PayloadRef<int>::Make(41);
  const int* before = ref.get();
  ref.MutableCopy() = 42;
  EXPECT_EQ(ref.get(), before);  // Sole owner: no copy, same block.
  EXPECT_EQ(*ref, 42);
}

TEST(PayloadRef, MutableCopyIsolatesSharedHolders) {
  PayloadRef<std::vector<int>> a =
      PayloadRef<std::vector<int>>::Make({1, 2, 3});
  PayloadRef<std::vector<int>> b = a;
  a.MutableCopy().push_back(4);  // COW: a reseats onto a private copy.
  EXPECT_EQ(a->size(), 4u);
  EXPECT_EQ(b->size(), 3u);  // b keeps the original, byte for byte.
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(b.use_count(), 1u);
}

TEST(PayloadArena, RecyclesBlocksThroughTheFreeList) {
  PayloadArena<std::vector<int>> arena;
  const void* first_block = nullptr;
  {
    PayloadRef<std::vector<int>> ref = arena.Adopt({1, 2, 3});
    first_block = ref.get();
    EXPECT_EQ(arena.outstanding(), 1u);
  }
  EXPECT_EQ(arena.outstanding(), 0u);  // Released back to the arena.
  EXPECT_EQ(arena.reuses(), 0u);
  {
    PayloadRef<std::vector<int>> ref = arena.Adopt({4, 5});
    EXPECT_EQ(ref.get(), first_block);  // Same slot, recycled.
    EXPECT_EQ(arena.reuses(), 1u);
    EXPECT_EQ(arena.outstanding(), 1u);
  }
  EXPECT_EQ(arena.outstanding(), 0u);
}

TEST(PayloadArena, CountsCopyOnWriteAgainstTheArena) {
  PayloadArena<int> arena;
  PayloadRef<int> a = arena.Adopt(10);
  PayloadRef<int> b = a;
  b.MutableCopy() = 11;  // Shared: deep copy, charged to the arena.
  EXPECT_EQ(arena.copies(), 1u);
  EXPECT_EQ(*a, 10);
  EXPECT_EQ(*b, 11);
  a.reset();
  b.reset();  // b's copy is a heap block; a's block returns to the arena.
  EXPECT_EQ(arena.outstanding(), 0u);
}

// ---------------------------------------------------------------------------
// Engine-level lifecycle.
// ---------------------------------------------------------------------------

/// Payload with an observable lifetime: the test keeps the inner
/// shared_ptr and reads use_count() after the runtime died — every
/// envelope block still holding a Tracked must have been released.
struct Tracked {
  std::shared_ptr<int> alive;
  uint64_t v = 0;
};
struct Plain {
  uint64_t v = 0;
};
using Msg = std::variant<Tracked, Plain>;

class TrackedSpout : public stream::Spout<Msg> {
 public:
  TrackedSpout(int n, std::shared_ptr<int> sentinel)
      : n_(n), sentinel_(std::move(sentinel)) {}
  bool Next(Msg* out, Timestamp* time) override {
    if (i_ >= n_) return false;
    *out = Tracked{sentinel_, static_cast<uint64_t>(i_)};
    *time = static_cast<Timestamp>(i_);
    ++i_;
    return true;
  }

 private:
  int n_;
  int i_ = 0;
  std::shared_ptr<int> sentinel_;
};

/// Forwards spout tuples into the loop; swallows feedback tuples.
class LoopBolt : public Bolt<Msg> {
 public:
  explicit LoopBolt(int forward_source) : forward_source_(forward_source) {}
  void Execute(const Envelope<Msg>& in, Emitter<Msg>& out) override {
    if (in.source.component == forward_source_) out.Emit(in.payload());
  }

 private:
  int forward_source_;
};

/// Echoes everything back into the feedback edge.
class EchoBolt : public Bolt<Msg> {
 public:
  void Execute(const Envelope<Msg>& in, Emitter<Msg>& out) override {
    ++count;
    out.Emit(in.payload());
  }
  long long count = 0;
};

/// Feedback traffic still queued at end-of-stream is *discarded* by the
/// engine contract — the discard path must still release every payload
/// block (no leak, no double free). Tiny queues guarantee residue exists.
void RunFeedbackDiscardReleasesPayloads(stream::RuntimeKind kind) {
  auto sentinel = std::make_shared<int>(1);
  {
    Topology<Msg> topology;
    const int n = 3000;
    const int spout = topology.AddSpout(
        "src", std::make_unique<TrackedSpout>(n, sentinel));
    const int loop = topology.AddBolt(
        "loop",
        [spout](int) { return std::make_unique<LoopBolt>(spout); }, 1);
    const int echo = topology.AddBolt(
        "echo", [](int) { return std::make_unique<EchoBolt>(); }, 1);
    topology.Subscribe(loop, spout, Grouping<Msg>::Shuffle());
    topology.Subscribe(echo, loop, Grouping<Msg>::Global());
    topology.Subscribe(loop, echo, Grouping<Msg>::Global());  // Feedback.
    stream::RuntimeOptions options;
    options.queue_capacity = 4;
    options.num_threads = 2;
    auto runtime = stream::MakeRuntime<Msg>(kind, &topology, options);
    runtime->Run();
    // While the runtime lives, residual feedback envelopes MAY still hold
    // blocks; destruction must return every one of them.
  }
  EXPECT_EQ(sentinel.use_count(), 1)
      << "a payload block outlived the runtime (refcount leak on the "
         "feedback-discard shutdown path)";
}

TEST(PayloadLifecycle, FeedbackDiscardReleasesPayloadsPool) {
  RunFeedbackDiscardReleasesPayloads(stream::RuntimeKind::kPool);
}

TEST(PayloadLifecycle, SimulationDrainsEveryBlock) {
  auto sentinel = std::make_shared<int>(1);
  {
    Topology<Msg> topology;
    const int spout = topology.AddSpout(
        "src", std::make_unique<TrackedSpout>(500, sentinel));
    const int loop = topology.AddBolt(
        "loop",
        [spout](int) { return std::make_unique<LoopBolt>(spout); }, 1);
    const int echo = topology.AddBolt(
        "echo", [](int) { return std::make_unique<EchoBolt>(); }, 1);
    topology.Subscribe(loop, spout, Grouping<Msg>::Shuffle());
    topology.Subscribe(echo, loop, Grouping<Msg>::Global());
    topology.Subscribe(loop, echo, Grouping<Msg>::Global());
    stream::SimulationRuntime<Msg> runtime(&topology);
    runtime.Run();
    const stream::RuntimeStats stats = runtime.stats();
    EXPECT_GT(stats.arena_reuses, 0u);  // Steady state allocates nothing.
  }
  EXPECT_EQ(sentinel.use_count(), 1);
}

/// Two owners of one broadcast payload: the mutating consumer goes through
/// MutablePayload() (COW) and must not affect what its sibling observes.
class MutatingBolt : public Bolt<Msg> {
 public:
  void Execute(const Envelope<Msg>& in, Emitter<Msg>&) override {
    // Instance 0 mutates through the COW door while instance 1's envelope
    // still shares the block; instance 1 reads afterwards (the simulator
    // executes the fan-out in instance order).
    if (self_.instance == 0) {
      std::get<Tracked>(in.MutablePayload()).v += 1000000;
      mutated_sum += std::get<Tracked>(in.payload()).v;
    } else {
      observed_sum += std::get<Tracked>(in.payload()).v;
    }
  }
  void Prepare(stream::TaskAddress self, int) override { self_ = self; }
  uint64_t mutated_sum = 0;
  uint64_t observed_sum = 0;

 private:
  stream::TaskAddress self_;
};

TEST(PayloadLifecycle, CopyOnWriteIsolatesBroadcastConsumers) {
  auto sentinel = std::make_shared<int>(1);
  const int n = 100;
  Topology<Msg> topology;
  const int spout =
      topology.AddSpout("src", std::make_unique<TrackedSpout>(n, sentinel));
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
  stream::SimulationRuntime<Msg> runtime(&topology);
  runtime.Run();

  const uint64_t base = static_cast<uint64_t>(n) * (n - 1) / 2;
  // The mutator saw its own +1e6 per tuple...
  EXPECT_EQ(bolts[0]->mutated_sum, base + 1000000ull * n);
  // ...its sibling saw the original values, untouched.
  EXPECT_EQ(bolts[1]->observed_sum, base);

  const stream::RuntimeStats stats = runtime.stats();
  // Every broadcast shared one block two ways...
  EXPECT_EQ(stats.payload_shares, static_cast<uint64_t>(n));
  // ...and every mutation found the block still shared: n COW copies.
  EXPECT_EQ(stats.payload_copies, static_cast<uint64_t>(n));
}

TEST(PayloadLifecycle, SharesCountedAcrossSubstrates) {
  // The same broadcast topology must report payload_shares on the
  // concurrent substrate too (and release everything).
  const auto kind = stream::RuntimeKind::kPool;
  auto sentinel = std::make_shared<int>(1);
  {
    const int n = 2000;
    Topology<Msg> topology;
    const int spout = topology.AddSpout(
        "src", std::make_unique<TrackedSpout>(n, sentinel));
    const int consumers = topology.AddBolt(
        "consumer", [](int) { return std::make_unique<EchoBolt>(); }, 4);
    topology.Subscribe(consumers, spout, Grouping<Msg>::All());
    stream::RuntimeOptions options;
    options.num_threads = 2;
    auto runtime = stream::MakeRuntime<Msg>(kind, &topology, options);
    runtime->Run();
    EXPECT_EQ(runtime->stats().payload_shares,
              static_cast<uint64_t>(n) * 3)
        << stream::RuntimeKindName(kind);
    EXPECT_EQ(runtime->TuplesDelivered(consumers),
              static_cast<uint64_t>(n) * 4);
  }
  EXPECT_EQ(sentinel.use_count(), 1) << stream::RuntimeKindName(kind);
}

// ---------------------------------------------------------------------------
// TSan stress: tiny mailboxes + shared payloads + forced resize — the
// combination the CI ThreadSanitizer job watches: cross-thread block
// release/reuse under helping, stealing, stall escapes and task
// spawn/retire at once.
// ---------------------------------------------------------------------------

TEST(PayloadLifecycle, TsanStressTinyMailboxesSharedPayloadsForcedResize) {
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
    EXPECT_GT(stats.arena_reuses, 0u);
    const auto* tracker =
        static_cast<ops::TrackerBolt*>(runtime.bolt(handles.tracker, 0));
    EXPECT_FALSE(tracker->periods().empty());
  }
}

}  // namespace
}  // namespace corrtrack
