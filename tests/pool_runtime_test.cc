#include "stream/pool_runtime.h"

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "gen/tweet_generator.h"
#include "ops/centralized.h"
#include "ops/source.h"
#include "ops/topology_builder.h"
#include "ops/tracker_op.h"
#include "stream/runtime_factory.h"
#include "stream/simulation.h"

namespace corrtrack::stream {
namespace {

struct Value {
  int v = 0;
};
using Msg = std::variant<Value>;

class CountingSpout : public Spout<Msg> {
 public:
  explicit CountingSpout(int n) : n_(n) {}
  bool Next(Msg* out, Timestamp* time) override {
    if (i_ >= n_) return false;
    *out = Value{i_};
    *time = static_cast<Timestamp>(i_);
    ++i_;
    return true;
  }

 private:
  int n_;
  int i_ = 0;
};

/// Sums received values; task-confined state, inspected after Run.
class SummingBolt : public Bolt<Msg> {
 public:
  explicit SummingBolt(bool forward) : forward_(forward) {}
  void Execute(const Envelope<Msg>& in, Emitter<Msg>& out) override {
    const auto& value = std::get<Value>(in.payload());
    sum += value.v;
    ++count;
    if (forward_) out.Emit(in.payload());
  }
  void OnTick(Timestamp tick_time, Emitter<Msg>&) override {
    ticks.push_back(tick_time);
  }
  long long sum = 0;
  long long count = 0;
  std::vector<Timestamp> ticks;

 private:
  bool forward_;
};

/// Feedback-cycle bolt: forwards tuples that came from the spout side and
/// only counts tuples arriving on the feedback edge (or the loop would
/// never damp).
class EchoOnceBolt : public Bolt<Msg> {
 public:
  explicit EchoOnceBolt(int forward_source) : forward_source_(forward_source) {}
  void Execute(const Envelope<Msg>& in, Emitter<Msg>& out) override {
    if (in.source.component == forward_source_) {
      ++forwarded;
      out.Emit(in.payload());
    } else {
      ++feedback_seen;
    }
  }
  long long forwarded = 0;
  long long feedback_seen = 0;

 private:
  int forward_source_;
};

TEST(PoolRuntime, DeliversEverythingOnce) {
  for (int threads : {1, 2, 8}) {
    const int n = 20000;
    Topology<Msg> topology;
    const int spout =
        topology.AddSpout("src", std::make_unique<CountingSpout>(n));
    std::vector<SummingBolt*> bolts(4, nullptr);
    const int sink = topology.AddBolt(
        "sink",
        [&bolts](int instance) {
          auto b = std::make_unique<SummingBolt>(false);
          bolts[static_cast<size_t>(instance)] = b.get();
          return b;
        },
        4);
    topology.Subscribe(sink, spout, Grouping<Msg>::Shuffle());
    RuntimeOptions options;
    options.num_threads = threads;
    PoolRuntime<Msg> runtime(&topology, options);
    runtime.Run();
    long long total = 0;
    long long count = 0;
    for (SummingBolt* b : bolts) {
      total += b->sum;
      count += b->count;
    }
    EXPECT_EQ(count, n) << "threads=" << threads;
    EXPECT_EQ(total, static_cast<long long>(n) * (n - 1) / 2);
    EXPECT_EQ(runtime.TuplesDelivered(sink), static_cast<uint64_t>(n));
    EXPECT_EQ(runtime.stats().num_threads, threads);
  }
}

TEST(PoolRuntime, TasksFarExceedThreadsWithTinyQueues) {
  // 32 logical tasks on 2 workers with 2-slot mailboxes: the regime no
  // one-thread-per-task runtime can express, under maximal backpressure.
  // Every envelope must still arrive exactly once (the sum detects loss
  // and duplication), and the pusher side must have hit full queues.
  const int n = 20000;
  const int kTasks = 32;
  Topology<Msg> topology;
  const int spout =
      topology.AddSpout("src", std::make_unique<CountingSpout>(n));
  std::vector<SummingBolt*> bolts(kTasks, nullptr);
  const int sink = topology.AddBolt(
      "sink",
      [&bolts](int instance) {
        auto b = std::make_unique<SummingBolt>(false);
        bolts[static_cast<size_t>(instance)] = b.get();
        return b;
      },
      kTasks);
  topology.Subscribe(sink, spout, Grouping<Msg>::Shuffle());
  RuntimeOptions options;
  options.num_threads = 2;
  options.queue_capacity = 2;
  PoolRuntime<Msg> runtime(&topology, options);
  runtime.Run();
  long long total = 0;
  long long count = 0;
  for (SummingBolt* b : bolts) {
    total += b->sum;
    count += b->count;
  }
  EXPECT_EQ(count, n);
  EXPECT_EQ(total, static_cast<long long>(n) * (n - 1) / 2);
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.envelopes_moved, static_cast<uint64_t>(n));
  EXPECT_GT(stats.queue_full_blocks, 0u);
  EXPECT_GE(stats.max_queue_depth, 1u);
  // Bounded by the capacity plus, at worst, one stall-escape overflow of a
  // delivery lane (<= 64 staged envelopes).
  EXPECT_LE(stats.max_queue_depth, 66u);
}

TEST(PoolRuntime, ChainWithCapacityOne) {
  // Capacity 1 forces every hand-off through the full/help paths; the
  // two-stage chain must drain and terminate on a single worker.
  const int n = 2000;
  Topology<Msg> topology;
  const int spout =
      topology.AddSpout("src", std::make_unique<CountingSpout>(n));
  std::vector<SummingBolt*> mids(2, nullptr);
  const int mid = topology.AddBolt(
      "mid",
      [&mids](int instance) {
        auto b = std::make_unique<SummingBolt>(true);
        mids[static_cast<size_t>(instance)] = b.get();
        return b;
      },
      2);
  SummingBolt* last = nullptr;
  const int sink = topology.AddBolt(
      "sink",
      [&last](int) {
        auto b = std::make_unique<SummingBolt>(false);
        last = b.get();
        return b;
      },
      1);
  topology.Subscribe(mid, spout, Grouping<Msg>::Shuffle());
  topology.Subscribe(sink, mid, Grouping<Msg>::Global());
  RuntimeOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  PoolRuntime<Msg> runtime(&topology, options);
  runtime.Run();
  EXPECT_EQ(last->count, n);
  EXPECT_EQ(last->sum, static_cast<long long>(n) * (n - 1) / 2);
}

/// Shared state of SpoutThreadRunsQueuedWorkInsteadOfWaiting. Values >= 0
/// are A's stream, values < 0 are B's.
struct HandOff {
  static constexpr int kBatch = static_cast<int>(kQueueBatch);
  static constexpr int kBlockAt = kBatch - 1;  // A waits on the latch here.
  static constexpr int kReleaseAt = -kBatch;   // B opens the latch here.

  /// Waits up to 2 s for `ready`; returns false on timeout.
  template <typename Pred>
  bool WaitFor(std::unique_lock<std::mutex>& lock, Pred ready) {
    return cv.wait_for(lock, std::chrono::seconds(2), ready);
  }

  std::mutex mutex;
  std::condition_variable cv;
  bool worker_in_a = false;
  bool released = false;
  bool latch_timed_out = false;
  std::thread::id release_thread;
};

/// Phase 1: A's values 0..kBlockAt (one lane flush; the last one reaches
/// the mailbox in the final round, so only a worker can run it). Phase 2,
/// once that worker waits in A: B's values -1..kReleaseAt (the spout helps
/// B until the last two, which stay queued). Phase 3: more of A's values
/// until the latch opens or times out.
class HandOffSpout : public Spout<Msg> {
 public:
  explicit HandOffSpout(HandOff* hand_off) : hand_off_(hand_off) {}
  bool Next(Msg* out, Timestamp* time) override {
    *time = 0;
    if (next_a_ < HandOff::kBatch) {
      *out = Value{next_a_++};
      return true;
    }
    if (next_b_ == -1) {
      std::unique_lock<std::mutex> lock(hand_off_->mutex);
      hand_off_->WaitFor(lock, [this] { return hand_off_->worker_in_a; });
    }
    if (next_b_ >= HandOff::kReleaseAt) {
      *out = Value{next_b_--};
      return true;
    }
    {
      std::lock_guard<std::mutex> lock(hand_off_->mutex);
      if (hand_off_->released || hand_off_->latch_timed_out) return false;
    }
    *out = Value{next_a_++};
    return true;
  }

  int emitted_a() const { return next_a_; }

 private:
  HandOff* hand_off_;
  int next_a_ = 0;
  int next_b_ = -1;
};

/// Bolt A holds its runner on the latch at kBlockAt; bolt B opens it at
/// kReleaseAt and records the thread that did.
class HandOffBolt : public Bolt<Msg> {
 public:
  HandOffBolt(HandOff* hand_off, bool is_a)
      : hand_off_(hand_off), is_a_(is_a) {}
  void Execute(const Envelope<Msg>& in, Emitter<Msg>&) override {
    const int v = std::get<Value>(in.payload()).v;
    ++count;
    std::unique_lock<std::mutex> lock(hand_off_->mutex);
    if (is_a_ && v == HandOff::kBlockAt) {
      hand_off_->worker_in_a = true;
      hand_off_->cv.notify_all();
      if (!hand_off_->WaitFor(lock, [this] { return hand_off_->released; })) {
        hand_off_->latch_timed_out = true;
      }
    } else if (!is_a_ && v == HandOff::kReleaseAt) {
      hand_off_->released = true;
      hand_off_->release_thread = std::this_thread::get_id();
      hand_off_->cv.notify_all();
    }
  }
  long long count = 0;

 private:
  HandOff* hand_off_;
  bool is_a_;
};

TEST(PoolRuntime, SpoutThreadRunsQueuedWorkInsteadOfWaiting) {
  // The only worker waits inside A until B runs, and B's last slice is
  // queued behind that worker. The spout then fills A's mailbox: it must
  // run B's queued slice itself instead of sleeping on A's full mailbox,
  // or the latch times out after 2 s.
  HandOff hand_off;
  Topology<Msg> topology;
  auto owned_spout = std::make_unique<HandOffSpout>(&hand_off);
  HandOffSpout* spout_ptr = owned_spout.get();
  const int spout = topology.AddSpout("src", std::move(owned_spout));
  HandOffBolt* a = nullptr;
  HandOffBolt* b = nullptr;
  const int a_comp = topology.AddBolt(
      "A",
      [&](int) {
        auto bolt = std::make_unique<HandOffBolt>(&hand_off, true);
        a = bolt.get();
        return bolt;
      },
      1);
  const int b_comp = topology.AddBolt(
      "B",
      [&](int) {
        auto bolt = std::make_unique<HandOffBolt>(&hand_off, false);
        b = bolt.get();
        return bolt;
      },
      1);
  topology.Subscribe(a_comp, spout,
                     Grouping<Msg>::GlobalWhere([](const Msg& m) {
                       return std::get<Value>(m).v >= 0;
                     }));
  topology.Subscribe(b_comp, spout,
                     Grouping<Msg>::GlobalWhere([](const Msg& m) {
                       return std::get<Value>(m).v < 0;
                     }));
  RuntimeOptions options;
  options.num_threads = 1;
  options.queue_capacity = 2;
  PoolRuntime<Msg> runtime(&topology, options);
  runtime.Run();

  EXPECT_TRUE(hand_off.worker_in_a);
  EXPECT_FALSE(hand_off.latch_timed_out)
      << "the spout thread slept on A's full mailbox instead of running B";
  EXPECT_TRUE(hand_off.released);
  EXPECT_EQ(hand_off.release_thread, std::this_thread::get_id());
  EXPECT_EQ(a->count, spout_ptr->emitted_a());
  EXPECT_EQ(b->count, HandOff::kBatch);
  EXPECT_EQ(runtime.TuplesDelivered(a_comp),
            static_cast<uint64_t>(spout_ptr->emitted_a()));
  EXPECT_EQ(runtime.TuplesDelivered(b_comp),
            static_cast<uint64_t>(HandOff::kBatch));
  EXPECT_GT(runtime.stats().steals, 0u);  // The spout thread's claim.
}

/// Opened by the sink of SpoutLaneIsPushedWhileNoWorkerRuns when it executes
/// document 0.
struct FirstDocLatch {
  std::mutex mutex;
  std::condition_variable cv;
  bool opened = false;
};

/// Emits 0..n-1 like CountingSpout, but before document 1 waits up to 2 s
/// for the sink to have executed document 0.
class LatchedSpout : public Spout<Msg> {
 public:
  LatchedSpout(FirstDocLatch* latch, int n) : latch_(latch), n_(n) {}
  bool Next(Msg* out, Timestamp* time) override {
    if (i_ >= n_) return false;
    if (i_ == 1) {
      std::unique_lock<std::mutex> lock(latch_->mutex);
      opened_in_time_ = latch_->cv.wait_for(
          lock, std::chrono::seconds(2), [this] { return latch_->opened; });
    }
    *out = Value{i_};
    *time = static_cast<Timestamp>(i_);
    ++i_;
    return true;
  }
  bool opened_in_time() const { return opened_in_time_; }

 private:
  FirstDocLatch* latch_;
  int n_;
  int i_ = 0;
  bool opened_in_time_ = false;
};

/// SummingBolt that opens the latch when it executes document 0.
class LatchOpeningBolt : public SummingBolt {
 public:
  explicit LatchOpeningBolt(FirstDocLatch* latch)
      : SummingBolt(false), latch_(latch) {}
  void Execute(const Envelope<Msg>& in, Emitter<Msg>& out) override {
    SummingBolt::Execute(in, out);
    if (std::get<Value>(in.payload()).v != 0) return;
    std::lock_guard<std::mutex> lock(latch_->mutex);
    latch_->opened = true;
    latch_->cv.notify_all();
  }

 private:
  FirstDocLatch* latch_;
};

TEST(PoolRuntime, SpoutLaneIsPushedWhileNoWorkerRuns) {
  // No worker has anything to run when the spout emits document 0, so its
  // lane must reach the mailbox at once rather than wait for 63 more
  // documents that the spout only emits after document 0 has executed.
  for (int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const int n = 1000;
    FirstDocLatch latch;
    Topology<Msg> topology;
    auto owned_spout = std::make_unique<LatchedSpout>(&latch, n);
    LatchedSpout* spout_ptr = owned_spout.get();
    const int spout = topology.AddSpout("src", std::move(owned_spout));
    std::vector<LatchOpeningBolt*> sinks(2, nullptr);
    const int sink = topology.AddBolt(
        "sink",
        [&](int instance) {
          auto b = std::make_unique<LatchOpeningBolt>(&latch);
          sinks[static_cast<size_t>(instance)] = b.get();
          return b;
        },
        2);
    topology.Subscribe(sink, spout, Grouping<Msg>::Shuffle());
    RuntimeOptions options;
    options.num_threads = threads;
    PoolRuntime<Msg> runtime(&topology, options);
    runtime.Run();
    EXPECT_TRUE(spout_ptr->opened_in_time())
        << "document 0 stayed in the spout thread's lane";
    long long total = 0;
    long long count = 0;
    for (const LatchOpeningBolt* b : sinks) {
      total += b->sum;
      count += b->count;
    }
    EXPECT_EQ(count, n);
    EXPECT_EQ(total, static_cast<long long>(n) * (n - 1) / 2);
    EXPECT_EQ(runtime.TuplesDelivered(sink), static_cast<uint64_t>(n));
  }
}

/// Checks per-edge FIFO: each producer instance's values must arrive
/// strictly increasing. Optionally forwards its own sequence number.
class FifoCheckingBolt : public Bolt<Msg> {
 public:
  explicit FifoCheckingBolt(bool forward) : forward_(forward) {}
  void Execute(const Envelope<Msg>& in, Emitter<Msg>& out) override {
    const int v = std::get<Value>(in.payload()).v;
    const auto [it, first] = last_.try_emplace(in.source.instance, v);
    if (!first) {
      if (v <= it->second) ++violations;
      it->second = v;
    }
    ++count;
    if (forward_) out.Emit(Value{next_++});
  }
  long long count = 0;
  long long violations = 0;

 private:
  bool forward_;
  std::map<int, int> last_;  // Producer instance -> last value seen.
  int next_ = 0;
};

TEST(PoolRuntime, PerEdgeFifoHoldsWhenSpoutThreadRunsSlices) {
  // spout -> mid (2) -> sink (2) on 2 workers with tiny mailboxes: the
  // spout thread keeps finding full mailboxes and runs queued mid and sink
  // slices itself. Slices migrate between three threads, and every edge
  // must still deliver in emission order.
  for (size_t capacity : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("queue_capacity=" + std::to_string(capacity));
    const int n = 20000;
    Topology<Msg> topology;
    const int spout =
        topology.AddSpout("src", std::make_unique<CountingSpout>(n));
    std::vector<FifoCheckingBolt*> mids(2, nullptr);
    std::vector<FifoCheckingBolt*> sinks(2, nullptr);
    const int mid = topology.AddBolt(
        "mid",
        [&mids](int instance) {
          auto b = std::make_unique<FifoCheckingBolt>(true);
          mids[static_cast<size_t>(instance)] = b.get();
          return b;
        },
        2);
    const int sink = topology.AddBolt(
        "sink",
        [&sinks](int instance) {
          auto b = std::make_unique<FifoCheckingBolt>(false);
          sinks[static_cast<size_t>(instance)] = b.get();
          return b;
        },
        2);
    topology.Subscribe(mid, spout, Grouping<Msg>::Shuffle());
    topology.Subscribe(sink, mid, Grouping<Msg>::Shuffle());
    RuntimeOptions options;
    options.num_threads = 2;
    options.queue_capacity = capacity;
    PoolRuntime<Msg> runtime(&topology, options);
    runtime.Run();
    for (const auto* bolts : {&mids, &sinks}) {
      long long count = 0;
      for (const FifoCheckingBolt* b : *bolts) {
        EXPECT_EQ(b->violations, 0);
        count += b->count;
      }
      EXPECT_EQ(count, n);
    }
  }
}

/// Echoes each spout value kEchoesPerValue times to itself, numbering the
/// echoes, and checks that both its input edges arrive in order with no
/// gap or repeat.
class EchoingBolt : public Bolt<Msg> {
 public:
  // More than a lane per value, so every value's echoes overflow the
  // echoing task's own mailbox past its first ring size.
  static constexpr int kEchoesPerValue =
      static_cast<int>(kQueueBatch + kQueueBatch / 2);

  explicit EchoingBolt(int spout) : spout_(spout) {}
  void Execute(const Envelope<Msg>& in, Emitter<Msg>& out) override {
    const int v = std::get<Value>(in.payload()).v;
    if (in.source.component == spout_) {
      if (v != values) ++violations;
      ++values;
      for (int i = 0; i < kEchoesPerValue; ++i) out.Emit(Value{next_echo_++});
      return;
    }
    if (v != echoes) ++violations;
    ++echoes;
  }
  long long values = 0;
  long long echoes = 0;
  long long violations = 0;

 private:
  int spout_;
  int next_echo_ = 0;
};

TEST(PoolRuntime, MailboxRingKeepsFifoThroughOverflowGrowth) {
  // A task that feeds its own 2-slot mailbox: it is in its own help chain
  // when its lanes flush, so every echo batch is pushed past capacity.
  // Pops have moved the ring's head before the first overflow, so the
  // ring fills wrapped and grows while wrapped. Both edges must stay in
  // order and deliver every value and every echo exactly once; the echoes
  // still in flight at end of stream finish before the shutdown poison.
  const int n = 1000;
  for (int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Topology<Msg> topology;
    const int spout =
        topology.AddSpout("src", std::make_unique<CountingSpout>(n));
    EchoingBolt* bolt = nullptr;
    const int echo = topology.AddBolt(
        "echo",
        [&bolt, spout](int) {
          auto b = std::make_unique<EchoingBolt>(spout);
          bolt = b.get();
          return b;
        },
        1);
    topology.Subscribe(echo, spout, Grouping<Msg>::Shuffle());
    topology.Subscribe(echo, echo, Grouping<Msg>::Shuffle());  // Feedback.
    RuntimeOptions options;
    options.num_threads = threads;
    options.queue_capacity = 2;
    PoolRuntime<Msg> runtime(&topology, options);
    runtime.Run();
    EXPECT_EQ(bolt->violations, 0);
    EXPECT_EQ(bolt->values, n);
    EXPECT_EQ(bolt->echoes,
              static_cast<long long>(n) * EchoingBolt::kEchoesPerValue);
    // The overflow took the mailbox past its capacity and past the ring's
    // first size.
    EXPECT_GT(runtime.stats().max_queue_depth, kQueueBatch);
  }
}

TEST(PoolRuntime, TicksFireFromStreamTime) {
  const int n = 100;  // Times 0..99.
  Topology<Msg> topology;
  const int spout =
      topology.AddSpout("src", std::make_unique<CountingSpout>(n));
  SummingBolt* bolt = nullptr;
  const int sink = topology.AddBolt(
      "sink",
      [&bolt](int) {
        auto b = std::make_unique<SummingBolt>(false);
        bolt = b.get();
        return b;
      },
      1, /*tick_period=*/25);
  topology.Subscribe(sink, spout, Grouping<Msg>::Shuffle());
  RuntimeOptions options;
  options.num_threads = 2;
  PoolRuntime<Msg> runtime(&topology, options);
  runtime.Run(/*flush_horizon=*/26);
  // Boundaries 25, 50, 75 fire in-stream; 100 and 125 at the horizon.
  EXPECT_EQ(bolt->ticks,
            (std::vector<Timestamp>{25, 50, 75, 100, 125}));
}

TEST(PoolRuntime, FeedbackEdgeShutdown) {
  // spout -> B -> C with a C -> B feedback edge (the Disseminator-loop
  // shape). Shutdown must terminate despite the cycle: B awaits only the
  // spout's poison, C awaits B's, and feedback traffic still in flight at
  // end-of-stream is discarded per the engine contract. At capacity 1 the
  // cycle is also the cross-thread cyclic-full pattern: B's runner blocks
  // pushing at C's full mailbox while C's blocks pushing feedback at B's;
  // helping or the bounded-stall escape must keep the run live (the ctest
  // timeout turns a regression into a fast failure).
  for (size_t capacity : {RuntimeOptions().queue_capacity, size_t{1}}) {
    SCOPED_TRACE("queue_capacity=" + std::to_string(capacity));
    const int n = 5000;
    Topology<Msg> topology;
    const int spout =
        topology.AddSpout("src", std::make_unique<CountingSpout>(n));
    std::vector<EchoOnceBolt*> bs(2, nullptr);
    const int b_comp = topology.AddBolt(
        "B",
        [&bs, spout](int instance) {
          auto b = std::make_unique<EchoOnceBolt>(spout);
          bs[static_cast<size_t>(instance)] = b.get();
          return b;
        },
        2);
    SummingBolt* c_bolt = nullptr;
    const int c_comp = topology.AddBolt(
        "C",
        [&c_bolt](int) {
          auto b = std::make_unique<SummingBolt>(true);  // Echo into the loop.
          c_bolt = b.get();
          return b;
        },
        1);
    topology.Subscribe(b_comp, spout, Grouping<Msg>::Shuffle());
    topology.Subscribe(c_comp, b_comp, Grouping<Msg>::Global());
    topology.Subscribe(b_comp, c_comp, Grouping<Msg>::Shuffle());  // Feedback.
    RuntimeOptions options;
    options.num_threads = 2;
    options.queue_capacity = capacity;
    PoolRuntime<Msg> runtime(&topology, options);
    runtime.Run();
    // Everything the spout emitted flowed B -> C exactly once.
    EXPECT_EQ(bs[0]->forwarded + bs[1]->forwarded, n);
    EXPECT_EQ(c_bolt->count, n);
    EXPECT_EQ(c_bolt->sum, static_cast<long long>(n) * (n - 1) / 2);
    // Feedback tuples are best-effort at end-of-stream: delivered at most
    // once each, the tail legally dropped at shutdown.
    EXPECT_LE(bs[0]->feedback_seen + bs[1]->feedback_seen, n);
    if (capacity == 1) EXPECT_GT(runtime.stats().queue_full_blocks, 0u);
  }
}

TEST(PoolRuntime, FullTopologyTinyQueuesTerminates) {
  // Regression for the cross-thread cyclic-full deadlock: with tiny
  // mailboxes the Disseminator -> Merger feedback edge and the Merger ->
  // Disseminator broadcasts can both back up with both runners blocked
  // pushing at each other (neither claimable for helping). The
  // bounded-stall overflow escape must break the cycle and let the run
  // terminate; the ctest timeout turns a regression into a fast failure.
  ops::PipelineConfig pipeline;
  pipeline.algorithm = AlgorithmKind::kDS;
  pipeline.num_calculators = 4;
  pipeline.num_partitioners = 3;
  pipeline.window_span = kMillisPerMinute;
  pipeline.report_period = kMillisPerMinute;
  pipeline.bootstrap_time = kMillisPerMinute;

  gen::GeneratorConfig workload;
  workload.seed = 5;
  workload.topics.num_topics = 60;
  const uint64_t num_docs = 8000;

  Topology<ops::Message> topology;
  const auto handles = ops::BuildCorrelationTopology(
      &topology, std::make_unique<ops::GeneratorSpout>(workload, num_docs),
      pipeline, nullptr, /*with_centralized_baseline=*/true);
  RuntimeOptions options;
  options.num_threads = 2;
  options.queue_capacity = 8;
  PoolRuntime<ops::Message> runtime(&topology, options);
  runtime.Run(pipeline.report_period);
  EXPECT_EQ(runtime.TuplesDelivered(handles.parser), num_docs);
  EXPECT_GT(runtime.stats().queue_full_blocks, 0u);
}

TEST(PoolRuntime, FullCorrelationTopologyMatchesSimulation) {
  // Differential test: the cyclic Fig. 2 topology on the pool vs the
  // deterministic simulator over the same stream. The centralised
  // baseline's period maps are routing-independent — the pool must
  // reproduce them *exactly* (same periods, same tagsets, bit-identical
  // coefficients). The distributed path's routing is timing-dependent, so
  // it is held to order-insensitive aggregates.
  ops::PipelineConfig pipeline;
  pipeline.algorithm = AlgorithmKind::kDS;
  pipeline.num_calculators = 4;
  pipeline.num_partitioners = 3;
  pipeline.window_span = kMillisPerMinute;
  pipeline.report_period = kMillisPerMinute;
  pipeline.bootstrap_time = kMillisPerMinute;

  gen::GeneratorConfig workload;
  workload.seed = 21;
  workload.topics.num_topics = 60;
  // ~3 virtual minutes: the bootstrap install round-trip (requested at
  // minute 1) completes with minutes of stream to spare on any schedule.
  // Capping queue capacity does NOT bound spout/control-loop skew here —
  // a pool producer that fills a mailbox helps drain it instead of
  // blocking — so the margin must come from stream length, or an unlucky
  // schedule finishes the stream before the first partitions install (no
  // coefficients tracked at all).
  const uint64_t num_docs = 24000;

  // Pool run: 4 workers for 11 tasks.
  Topology<ops::Message> pool_topology;
  const auto pool_handles = ops::BuildCorrelationTopology(
      &pool_topology,
      std::make_unique<ops::GeneratorSpout>(workload, num_docs), pipeline,
      nullptr, /*with_centralized_baseline=*/true);
  RuntimeOptions options;
  options.num_threads = 4;
  options.queue_capacity = 128;
  PoolRuntime<ops::Message> pool(&pool_topology, options);
  pool.Run(pipeline.report_period);

  // Reference simulation run.
  Topology<ops::Message> sim_topology;
  const auto sim_handles = ops::BuildCorrelationTopology(
      &sim_topology,
      std::make_unique<ops::GeneratorSpout>(workload, num_docs), pipeline,
      nullptr, /*with_centralized_baseline=*/true);
  SimulationRuntime<ops::Message> sim(&sim_topology);
  sim.Run(pipeline.report_period);

  // Both runtimes parse the same stream.
  EXPECT_EQ(pool.TuplesDelivered(pool_handles.parser),
            sim.TuplesDelivered(sim_handles.parser));

  // Centralised period maps must agree bit-for-bit.
  const auto* pool_base = static_cast<ops::CentralizedBolt*>(
      pool.bolt(pool_handles.centralized, 0));
  const auto* sim_base = static_cast<ops::CentralizedBolt*>(
      sim.bolt(sim_handles.centralized, 0));
  ASSERT_EQ(pool_base->periods().size(), sim_base->periods().size());
  for (const auto& [period_end, sim_results] : sim_base->periods()) {
    const auto it = pool_base->periods().find(period_end);
    ASSERT_NE(it, pool_base->periods().end()) << "period " << period_end;
    ASSERT_EQ(it->second.size(), sim_results.size());
    for (const auto& [tags, sim_estimate] : sim_results) {
      const auto entry = it->second.find(tags);
      ASSERT_NE(entry, it->second.end()) << tags.ToString();
      EXPECT_EQ(entry->second.coefficient, sim_estimate.coefficient);
      EXPECT_EQ(entry->second.intersection_count,
                sim_estimate.intersection_count);
      EXPECT_EQ(entry->second.union_count, sim_estimate.union_count);
    }
  }

  // The distributed side produced coefficients.
  const auto* tracker = static_cast<ops::TrackerBolt*>(
      pool.bolt(pool_handles.tracker, 0));
  size_t tracked = 0;
  for (const auto& [period_end, results] : tracker->periods()) {
    tracked += results.size();
  }
  EXPECT_GT(tracked, 100u);

  const RuntimeStats stats = pool.stats();
  EXPECT_GT(stats.envelopes_moved, num_docs);  // Parser + downstream.
  EXPECT_GE(stats.max_queue_depth, 1u);
}

TEST(PoolRuntime, MakeConfiguredRuntimeSelectsSubstrate) {
  // The PipelineConfig knobs must reach the substrate: kind, thread count
  // and queue capacity all flow through ops::MakeConfiguredRuntime.
  for (RuntimeKind kind : {RuntimeKind::kSimulation, RuntimeKind::kPool}) {
    ops::PipelineConfig pipeline;
    pipeline.runtime = kind;
    pipeline.num_threads = 3;
    pipeline.queue_capacity = 7;
    Topology<ops::Message> topology;
    gen::GeneratorConfig workload;
    ops::BuildCorrelationTopology(
        &topology, std::make_unique<ops::GeneratorSpout>(workload, 10),
        pipeline, nullptr, /*with_centralized_baseline=*/false);
    auto runtime = ops::MakeConfiguredRuntime(&topology, pipeline);
    ASSERT_NE(runtime, nullptr);
    EXPECT_EQ(runtime->kind(), kind);
    const RuntimeStats stats = runtime->stats();
    if (kind == RuntimeKind::kSimulation) {
      EXPECT_EQ(stats.queue_capacity, 0u);  // No queues exist.
    } else {
      EXPECT_EQ(stats.queue_capacity, 7u);
    }
    if (kind == RuntimeKind::kPool) EXPECT_EQ(stats.num_threads, 3);
  }
}

TEST(RuntimeKindNames, RoundTrip) {
  for (RuntimeKind kind : {RuntimeKind::kSimulation, RuntimeKind::kPool}) {
    RuntimeKind parsed;
    ASSERT_TRUE(ParseRuntimeKind(RuntimeKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  RuntimeKind parsed;
  EXPECT_TRUE(ParseRuntimeKind("sim", &parsed));
  EXPECT_EQ(parsed, RuntimeKind::kSimulation);
  EXPECT_FALSE(ParseRuntimeKind("storm", &parsed));
  EXPECT_FALSE(ParseRuntimeKind("threaded", &parsed));
}

}  // namespace
}  // namespace corrtrack::stream
