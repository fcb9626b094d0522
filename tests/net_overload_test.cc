// Overload-protection tests for the serving front end: deadline budgets
// (clamp, ack, expiry at dequeue), admission-control shedding under a
// saturated reader pool, batch splitting, the timer-wheel reapers (idle and
// write-stall), the slow-client write-buffer cap, the accept-time
// connection cap, and graceful drain — plus unit tests for the TimerWheel
// itself and the SIGTERM self-pipe bridge. The shared theme: every overload
// answer is a contained PER-REQUEST error (the connection survives and
// later answers bit-identically), and the event loop never blocks.
//
// Determinism strategy: a single-reader server is occupied with one big
// pipelined snapshot batch (hundreds of ms of index work), which makes
// queue waits — and therefore deadline expiry and watermark shedding —
// reproducible without clock mocking.

#include <csignal>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/jaccard.h"
#include "net/client.h"
#include "net/server.h"
#include "net/signal_drain.h"
#include "net/timer_wheel.h"
#include "net_test_support.h"
#include "telemetry/registry.h"

namespace corrtrack::net {
namespace {

using serve::CorrelationIndex;
using serve::ScoredSet;
using testing::Bits;
using testing::MakePeriods;

// ------------------------------------------------------------- timer wheel

TEST(TimerWheelTest, SchedulesAndExpiresAtTheDeadline) {
  TimerWheel wheel(/*tick_ns=*/10, /*num_slots=*/8);
  std::vector<uint64_t> fired;
  wheel.Schedule(1, 35);
  wheel.Schedule(2, 95);
  wheel.Advance(30, [&](uint64_t id) { fired.push_back(id); });
  EXPECT_TRUE(fired.empty());
  wheel.Advance(40, [&](uint64_t id) { fired.push_back(id); });
  EXPECT_EQ(fired, (std::vector<uint64_t>{1}));
  wheel.Advance(200, [&](uint64_t id) { fired.push_back(id); });
  EXPECT_EQ(fired, (std::vector<uint64_t>{1, 2}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, CancelledTimersNeverFire) {
  TimerWheel wheel(10, 8);
  int fired = 0;
  wheel.Schedule(7, 25);
  wheel.Cancel(7);
  wheel.Advance(1000, [&](uint64_t) { ++fired; });
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, RescheduleSupersedesTheOldDeadline) {
  TimerWheel wheel(10, 8);
  std::vector<int64_t> fired_at;
  wheel.Schedule(7, 25);
  wheel.Schedule(7, 205);  // Same id, later deadline: the old entry is stale.
  wheel.Advance(100, [&](uint64_t) { fired_at.push_back(100); });
  EXPECT_TRUE(fired_at.empty());
  wheel.Advance(210, [&](uint64_t) { fired_at.push_back(210); });
  EXPECT_EQ(fired_at, (std::vector<int64_t>{210}));
}

TEST(TimerWheelTest, PastDeadlineFiresOnTheNextAdvance) {
  TimerWheel wheel(10, 8);
  wheel.Advance(500, [](uint64_t) {});
  int fired = 0;
  wheel.Schedule(3, 100);  // Already in the past relative to the last sweep.
  wheel.Advance(510, [&](uint64_t) { ++fired; });
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheelTest, SubTickDeadlineRefilesInsteadOfWaitingARevolution) {
  TimerWheel wheel(10, 8);
  int fired = 0;
  wheel.Schedule(4, 15);  // Tick 1.
  // Sweep through tick 1 while the deadline is still in the future: the
  // entry must re-file for the next sweep, not wait 8 ticks for the slot
  // to come around again.
  wheel.Advance(12, [&](uint64_t) { ++fired; });
  EXPECT_EQ(fired, 0);
  wheel.Advance(25, [&](uint64_t) { ++fired; });  // Next tick: fires.
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheelTest, GapLongerThanOneRevolutionFiresEverythingOnce) {
  TimerWheel wheel(10, 8);
  std::vector<uint64_t> fired;
  for (uint64_t id = 1; id <= 20; ++id) wheel.Schedule(id, 10 * id);
  wheel.Advance(1'000'000, [&](uint64_t id) { fired.push_back(id); });
  EXPECT_EQ(fired.size(), 20u);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, CallbackMayRescheduleItsOwnId) {
  TimerWheel wheel(10, 8);
  int fired = 0;
  wheel.Schedule(9, 20);
  wheel.Advance(30, [&](uint64_t id) {
    ++fired;
    wheel.Schedule(id, 60);  // Periodic re-arm from inside the callback.
  });
  EXPECT_EQ(fired, 1);
  wheel.Advance(70, [&](uint64_t) { ++fired; });
  EXPECT_EQ(fired, 2);
}

// ------------------------------------------------------------ server rigs

/// Fixture owning a populated index; each test Start()s a server with its
/// own overload knobs. Single net thread + single reader by default so one
/// fat snapshot batch deterministically saturates the reader pool.
class NetOverloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    periods_ = MakePeriods(/*periods=*/2, /*docs=*/3000, /*seed=*/99);
    for (size_t p = 0; p < periods_.size(); ++p) {
      index_.ApplyPeriod(static_cast<Timestamp>(p) * 1000, periods_[p]);
    }
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  void StartServer(ServerConfig config) {
    config.registry = &registry_;
    server_ = std::make_unique<Server>(&index_, config);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  bool ConnectClient(Client* client) {
    return client->Connect("127.0.0.1", server_->port());
  }

  uint64_t CounterValue(const std::string& name) {
    const telemetry::MetricsSnapshot snapshot = registry_.Snapshot();
    for (const auto& sample : snapshot.counters) {
      if (sample.name == name) return sample.value;
    }
    return 0;
  }

  /// Polls a counter until it reaches `at_least` or ~5s elapse.
  bool WaitForCounter(const std::string& name, uint64_t at_least) {
    for (int i = 0; i < 500; ++i) {
      if (CounterValue(name) >= at_least) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  /// Polls every 100us until a counter reaches `at_least` or ~5s elapse.
  /// An occupier batch covers one socket read, so it may hold the reader
  /// for only a few ms: a request meant to wait behind it must be sent
  /// early in it, not after a fixed sleep that may outlast it.
  bool WaitForCounterFinely(const std::string& name, uint64_t at_least) {
    for (int i = 0; i < 50'000; ++i) {
      if (CounterValue(name) >= at_least) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return false;
  }

  /// Waits until the reader has executed `n` Snapshot requests.
  bool WaitForScans(uint64_t n) {
    return WaitForCounterFinely("corrtrack_net_requests_total{op=\"scan\"}",
                                n);
  }

  /// Stages a reader-hogging batch on `client`: full-index snapshots that
  /// keep the (single) reader busy for tens of milliseconds (each snapshot
  /// costs microseconds; the count buys the wall time).
  static void QueueOccupier(Client* client, int snapshots = 20'000) {
    for (int i = 0; i < snapshots; ++i) client->QueueSnapshot(0.0, 0);
  }

  /// Waits until the server has read all of a QueueOccupier batch of
  /// `snapshots` frames (the test's only traffic so far).
  bool WaitForOccupierRead(int snapshots) {
    std::string frames;
    for (int i = 0; i < snapshots; ++i) {
      AppendSnapshotRequest(static_cast<uint32_t>(i + 1), 0.0, 0, &frames);
    }
    return WaitForCounterFinely("corrtrack_net_bytes_read_total",
                                frames.size());
  }

  /// Joins a flush thread even when an ASSERT unwinds the test early.
  struct Joiner {
    std::thread thread;
    ~Joiner() {
      if (thread.joinable()) thread.join();
    }
  };

  std::vector<std::vector<JaccardEstimate>> periods_;
  CorrelationIndex index_;
  telemetry::MetricRegistry registry_;
  std::unique_ptr<Server> server_;
};

// -------------------------------------------------------------- deadlines

TEST_F(NetOverloadTest, DeadlineAckEchoesTheServerClamp) {
  ServerConfig config;
  config.num_net_threads = 1;
  config.num_reader_threads = 1;
  config.max_deadline_ms = 500;
  StartServer(config);

  Client client;
  ASSERT_TRUE(ConnectClient(&client)) << client.last_error();
  uint32_t effective = 0;
  ASSERT_TRUE(client.SetDeadline(10'000'000, &effective))
      << client.last_error();
  EXPECT_EQ(effective, 500u);  // Proposal above the ceiling: clamped.
  ASSERT_TRUE(client.SetDeadline(100, &effective)) << client.last_error();
  EXPECT_EQ(effective, 100u);  // Below the ceiling: taken as-is.
  ASSERT_TRUE(client.SetDeadline(0, &effective)) << client.last_error();
  EXPECT_EQ(effective, 0u);  // Cleared.
  EXPECT_TRUE(client.Ping()) << client.last_error();
}

TEST_F(NetOverloadTest, ExpiredRequestsAnswerDeadlineExceededAndSurvive) {
  ServerConfig config;
  config.num_net_threads = 1;
  config.num_reader_threads = 1;
  StartServer(config);

  // Occupy the single reader with one fat batch...
  Client occupier;
  ASSERT_TRUE(ConnectClient(&occupier)) << occupier.last_error();
  QueueOccupier(&occupier);
  Joiner occupier_flush{std::thread([&] { occupier.Flush(nullptr); })};
  ASSERT_TRUE(WaitForScans(1));  // The reader is executing the occupier.

  // ...then pipeline a 1ms-budget ping that must wait behind it. The
  // deadline directive travels in the same batch: it is applied at decode,
  // so the ping is stamped before it ever queues.
  Client victim;
  ASSERT_TRUE(ConnectClient(&victim)) << victim.last_error();
  victim.QueueDeadline(1);
  victim.QueuePing();
  std::vector<Response> responses;
  ASSERT_TRUE(victim.Flush(&responses)) << victim.last_error();

  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].op, Opcode::kDeadlineAck);
  EXPECT_EQ(responses[0].effective_deadline_ms, 1u);
  ASSERT_EQ(responses[1].op, Opcode::kError);
  EXPECT_EQ(responses[1].error_code, ErrorCode::kDeadlineExceeded);
  EXPECT_GE(CounterValue("corrtrack_net_deadline_exceeded_total"), 1u);

  // Per-request error: the connection survives, and with the budget
  // cleared the next call executes normally.
  uint32_t effective = 123;
  ASSERT_TRUE(victim.SetDeadline(0, &effective)) << victim.last_error();
  EXPECT_EQ(effective, 0u);
  EXPECT_TRUE(victim.Ping()) << victim.last_error();
}

// --------------------------------------------------------------- shedding

TEST_F(NetOverloadTest, WatermarkShedsWithOverloadedAndConnectionSurvives) {
  ServerConfig config;
  config.num_net_threads = 1;
  config.num_reader_threads = 1;
  config.shed_occupancy_watermark = 1;
  StartServer(config);

  // Occupier saturates the reader (its batch leaves the queue immediately),
  // filler parks batches IN the queue so occupancy sits at the watermark.
  Client occupier;
  ASSERT_TRUE(ConnectClient(&occupier)) << occupier.last_error();
  QueueOccupier(&occupier);
  Joiner occupier_flush{std::thread([&] { occupier.Flush(nullptr); })};
  ASSERT_TRUE(WaitForScans(1));  // The reader is executing the occupier.

  Client filler;
  ASSERT_TRUE(ConnectClient(&filler)) << filler.last_error();
  QueueOccupier(&filler);
  Joiner filler_flush{std::thread([&] { filler.Flush(nullptr); })};
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // The victim's pings arrive with the queue at the watermark: the whole
  // group is shed with per-request kOverloaded frames, never enqueued.
  Client victim;
  ASSERT_TRUE(ConnectClient(&victim)) << victim.last_error();
  for (int i = 0; i < 5; ++i) victim.QueuePing();
  std::vector<Response> responses;
  ASSERT_TRUE(victim.Flush(&responses)) << victim.last_error();
  ASSERT_EQ(responses.size(), 5u);
  for (const Response& response : responses) {
    ASSERT_EQ(response.op, Opcode::kError);
    EXPECT_EQ(response.error_code, ErrorCode::kOverloaded);
  }
  EXPECT_GE(CounterValue("corrtrack_net_shed_requests_total"), 5u);

  // Containment: once the storm drains the same connection answers, and
  // bit-identically to a direct Reader call.
  occupier_flush.thread.join();
  filler_flush.thread.join();
  ASSERT_TRUE(victim.Ping()) << victim.last_error();
  CorrelationIndex::Reader direct = index_.NewReader();
  const TagId probe = periods_[0][0].tags[0];
  std::vector<ScoredSet> via_socket;
  ASSERT_TRUE(victim.TopCorrelated(probe, 8, &via_socket))
      << victim.last_error();
  std::vector<ScoredSet> expected;
  direct.TopCorrelated(probe, 8, &expected);
  ASSERT_EQ(via_socket.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(via_socket[i].tags, expected[i].tags);
    EXPECT_EQ(Bits(via_socket[i].coefficient), Bits(expected[i].coefficient));
    EXPECT_EQ(via_socket[i].period_end, expected[i].period_end);
  }
}

// --------------------------------------------------- inline-path admission

// The net thread answers small groups itself only while the reader pool is
// idle. These pin the other half of that gate: a single cheap frame that
// arrives while the only reader is busy goes through the queue's admission
// control like any other group — it can expire there, or be shed.

TEST_F(NetOverloadTest, UnaryRequestBehindABusyReaderStillExpires) {
  ServerConfig config;
  config.num_net_threads = 1;
  config.num_reader_threads = 1;
  StartServer(config);

  Client victim;
  ASSERT_TRUE(ConnectClient(&victim)) << victim.last_error();
  uint32_t effective = 0;
  ASSERT_TRUE(victim.SetDeadline(1, &effective)) << victim.last_error();
  ASSERT_EQ(effective, 1u);

  Client occupier;
  ASSERT_TRUE(ConnectClient(&occupier)) << occupier.last_error();
  QueueOccupier(&occupier);
  Joiner occupier_flush{std::thread([&] { occupier.Flush(nullptr); })};
  ASSERT_TRUE(WaitForScans(1));  // The reader is executing the occupier.

  const uint64_t inlined = CounterValue("corrtrack_net_inline_batches_total");
  victim.QueuePing();
  std::vector<Response> responses;
  ASSERT_TRUE(victim.Flush(&responses)) << victim.last_error();
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_EQ(responses[0].op, Opcode::kError);
  EXPECT_EQ(responses[0].error_code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(CounterValue("corrtrack_net_inline_batches_total"), inlined);
  EXPECT_GE(CounterValue("corrtrack_net_deadline_exceeded_total"), 1u);
}

TEST_F(NetOverloadTest, UnaryRequestAtTheWatermarkIsShedWhileReadersAreBusy) {
  ServerConfig config;
  config.num_net_threads = 1;
  config.num_reader_threads = 1;
  config.shed_occupancy_watermark = 1;
  StartServer(config);

  // Occupier on the reader, filler's batch parked in the queue.
  Client occupier;
  ASSERT_TRUE(ConnectClient(&occupier)) << occupier.last_error();
  QueueOccupier(&occupier);
  Joiner occupier_flush{std::thread([&] { occupier.Flush(nullptr); })};
  ASSERT_TRUE(WaitForScans(1));
  Client filler;
  ASSERT_TRUE(ConnectClient(&filler)) << filler.last_error();
  QueueOccupier(&filler);
  Joiner filler_flush{std::thread([&] { filler.Flush(nullptr); })};
  ASSERT_TRUE(WaitForCounterFinely("corrtrack_net_batches_total", 2));

  Client victim;
  ASSERT_TRUE(ConnectClient(&victim)) << victim.last_error();
  victim.QueuePing();
  std::vector<Response> responses;
  ASSERT_TRUE(victim.Flush(&responses)) << victim.last_error();
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_EQ(responses[0].op, Opcode::kError);
  EXPECT_EQ(responses[0].error_code, ErrorCode::kOverloaded);
  EXPECT_EQ(CounterValue("corrtrack_net_inline_batches_total"), 0u);
  EXPECT_GE(CounterValue("corrtrack_net_shed_requests_total"), 1u);
}

// -------------------------------------------------------------- batch cap

TEST_F(NetOverloadTest, BatchCapSplitsFloodsWithoutReordering) {
  ServerConfig config;
  config.num_net_threads = 1;
  config.num_reader_threads = 1;
  config.max_requests_per_batch = 4;
  StartServer(config);

  Client client;
  ASSERT_TRUE(ConnectClient(&client)) << client.last_error();
  for (int i = 0; i < 10; ++i) client.QueuePing();
  std::vector<Response> responses;
  ASSERT_TRUE(client.Flush(&responses)) << client.last_error();
  ASSERT_EQ(responses.size(), 10u);
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].op, Opcode::kPong) << i;
    // In-order request_id echo across the split boundaries.
    if (i > 0) EXPECT_GT(responses[i].request_id, responses[i - 1].request_id);
  }
  // 10 pings under a cap of 4 must travel as at least 3 batches.
  EXPECT_GE(CounterValue("corrtrack_net_batches_total"), 3u);
}

// ---------------------------------------------------------------- reapers

TEST_F(NetOverloadTest, IdleConnectionsAreReaped) {
  ServerConfig config;
  config.num_net_threads = 1;
  config.num_reader_threads = 1;
  config.idle_timeout_ms = 50;
  StartServer(config);

  Client client;
  ASSERT_TRUE(ConnectClient(&client)) << client.last_error();
  ASSERT_TRUE(client.Ping()) << client.last_error();
  EXPECT_TRUE(WaitForCounter(
      "corrtrack_net_timeout_closed_total{kind=\"idle\"}", 1));
  // The socket is gone: the next round-trip fails.
  EXPECT_FALSE(client.Ping());
}

TEST_F(NetOverloadTest, WriteStalledConnectionsAreReaped) {
  ServerConfig config;
  config.num_net_threads = 1;
  config.num_reader_threads = 1;
  config.write_stall_timeout_ms = 100;
  StartServer(config);

  // Ask for megabytes of snapshots and never read a byte: the responses
  // overwhelm the socket buffer, write progress stops, the stall reaper
  // fires.
  Client client;
  ASSERT_TRUE(ConnectClient(&client)) << client.last_error();
  std::string wire;
  for (uint32_t i = 0; i < 2000; ++i) {
    AppendSnapshotRequest(i + 1, 0.0, 0, &wire);
  }
  ASSERT_TRUE(client.SendRaw(wire)) << client.last_error();
  EXPECT_TRUE(WaitForCounter(
      "corrtrack_net_timeout_closed_total{kind=\"write_stall\"}", 1));
}

TEST_F(NetOverloadTest, SlowClientsAreClosedAtTheWriteBufferCap) {
  ServerConfig config;
  config.num_net_threads = 1;
  config.num_reader_threads = 1;
  config.max_write_buffer_bytes = 64 * 1024;
  StartServer(config);

  // Same non-reading client, but here the backlog cap (64 KiB vs megabytes
  // of snapshot responses) trips before any timeout could.
  Client client;
  ASSERT_TRUE(ConnectClient(&client)) << client.last_error();
  std::string wire;
  for (uint32_t i = 0; i < 2000; ++i) {
    AppendSnapshotRequest(i + 1, 0.0, 0, &wire);
  }
  ASSERT_TRUE(client.SendRaw(wire)) << client.last_error();
  EXPECT_TRUE(WaitForCounter("corrtrack_net_slow_client_closed_total", 1));
}

// ----------------------------------------------------------- accept cap

TEST_F(NetOverloadTest, ConnectionCapRejectsAtAccept) {
  ServerConfig config;
  config.num_net_threads = 1;
  config.num_reader_threads = 1;
  config.max_connections = 2;
  StartServer(config);

  Client first, second;
  ASSERT_TRUE(ConnectClient(&first)) << first.last_error();
  ASSERT_TRUE(ConnectClient(&second)) << second.last_error();
  ASSERT_TRUE(first.Ping()) << first.last_error();
  ASSERT_TRUE(second.Ping()) << second.last_error();

  // The third TCP handshake completes (listen backlog), but the server
  // closes it at accept time without ever serving a byte.
  Client third;
  if (ConnectClient(&third)) EXPECT_FALSE(third.Ping());
  EXPECT_TRUE(WaitForCounter("corrtrack_net_accept_rejected_total", 1));

  // The admitted connections are untouched.
  EXPECT_TRUE(first.Ping()) << first.last_error();
  EXPECT_TRUE(second.Ping()) << second.last_error();
}

// ---------------------------------------------------------------- drain

TEST_F(NetOverloadTest, DrainDeliversEveryOwedResponseBeforeClosing) {
  ServerConfig config;
  config.num_net_threads = 1;
  config.num_reader_threads = 1;
  StartServer(config);

  // A fat batch is mid-flight when Drain starts: every one of its
  // responses must still be delivered before the connection closes.
  Client client;
  ASSERT_TRUE(ConnectClient(&client)) << client.last_error();
  QueueOccupier(&client, /*snapshots=*/5000);
  std::atomic<bool> flush_ok{false};
  std::atomic<size_t> got{0};
  std::atomic<size_t> pongs{0};
  Joiner flusher{std::thread([&] {
    std::vector<Response> responses;
    flush_ok.store(client.Flush(&responses));
    got.store(responses.size());
    size_t ok_count = 0;
    for (const Response& response : responses) {
      if (response.op == Opcode::kSnapshotSets) ++ok_count;
    }
    pongs.store(ok_count);
  })};
  ASSERT_TRUE(WaitForOccupierRead(5000));

  EXPECT_TRUE(server_->Drain(/*deadline_ms=*/10'000));
  flusher.thread.join();
  EXPECT_TRUE(flush_ok.load());
  EXPECT_EQ(got.load(), 5000u);
  EXPECT_EQ(pongs.load(), 5000u);  // Real answers, not shed placeholders.
  EXPECT_GE(CounterValue("corrtrack_net_drain_closed_total"), 1u);
  EXPECT_FALSE(server_->running());

  // Fully stopped: nobody is listening any more.
  Client late;
  ClientConfig late_config;
  late_config.connect_timeout_ms = 500;
  Client late_client(late_config);
  EXPECT_FALSE(late_client.Connect("127.0.0.1", server_->port()));
}

TEST_F(NetOverloadTest, DrainRejectsNewConnectionsWhileFinishingOldWork) {
  ServerConfig config;
  config.num_net_threads = 1;
  config.num_reader_threads = 1;
  StartServer(config);

  // Drain starts only once the server has READ the whole flood: drain owes
  // answers only to received frames, so an unread tail could legitimately
  // be cut off mid-socket.
  Client client;
  ASSERT_TRUE(ConnectClient(&client)) << client.last_error();
  QueueOccupier(&client, /*snapshots=*/5000);
  std::atomic<bool> flush_ok{false};
  Joiner flusher{std::thread([&] { flush_ok.store(client.Flush(nullptr)); })};
  ASSERT_TRUE(WaitForOccupierRead(5000));

  Joiner drainer{
      std::thread([&] { server_->Drain(/*deadline_ms=*/10'000); })};
  // While the drain is waiting out the in-flight batch, a new connect must
  // not be served (listen socket is shut down).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ClientConfig probe_config;
  probe_config.connect_timeout_ms = 500;
  Client probe(probe_config);
  if (probe.Connect("127.0.0.1", server_->port())) EXPECT_FALSE(probe.Ping());

  drainer.thread.join();
  flusher.thread.join();
  EXPECT_TRUE(flush_ok.load());
}

// ---------------------------------------------------------- signal drain

TEST(SignalDrainerTest, RaisedSigtermWakesWaitForSignal) {
  SignalDrainer drainer;
  EXPECT_EQ(drainer.signaled(), 0);
  EXPECT_EQ(drainer.WaitForSignal(/*timeout_ms=*/10), 0);  // Nothing yet.
  ::raise(SIGTERM);
  EXPECT_EQ(drainer.WaitForSignal(/*timeout_ms=*/5000), SIGTERM);
  EXPECT_EQ(drainer.signaled(), SIGTERM);
}

TEST(SignalDrainerTest, HandlersAreRestoredAfterDestruction) {
  {
    SignalDrainer drainer;
    ::raise(SIGINT);
    EXPECT_EQ(drainer.WaitForSignal(5000), SIGINT);
  }
  // A second instance starts clean — no stale byte, no stale signo.
  SignalDrainer fresh;
  EXPECT_EQ(fresh.signaled(), 0);
  EXPECT_EQ(fresh.WaitForSignal(/*timeout_ms=*/10), 0);
}

}  // namespace
}  // namespace corrtrack::net
