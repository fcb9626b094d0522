// Socket chaos tests: the seeded FaultInjectingSocketOps harness itself
// (rules fire at exact op indices, same seed => same draws), the client's
// partial-I/O discipline (short writes, EINTR/EAGAIN storms — satellite of
// the EINTR audit), and the full chaos matrix: every SocketFaultKind
// stormed against the serving path on both the server and the client side.
// The matrix contract is CONTAINMENT: transparent faults (short reads and
// writes, EINTR, EAGAIN) never change an answer or kill a connection;
// connection-fatal faults (reset, EPIPE) kill exactly one connection
// cleanly; every answer that does arrive is BIT-identical to a direct
// CorrelationIndex::Reader call; and the server survives the whole storm.
// Runs under ASan+UBSan in CI — a fault landing on a buffer-management
// seam is exactly where a use-after-free would hide.

#include <cerrno>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/jaccard.h"
#include "net/client.h"
#include "net/server.h"
#include "net_test_support.h"
#include "telemetry/registry.h"

namespace corrtrack::net {
namespace {

using serve::CorrelationIndex;
using serve::LookupResult;
using serve::ScoredSet;
using testing::Bits;
using testing::ExpectSameScored;
using testing::MakePeriods;

// ------------------------------------------------------- injector itself

/// Loopback socketpair rig for driving the injector directly, with no
/// server in the way: op indices are then fully deterministic.
class SocketPairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  int fds_[2];
};

TEST_F(SocketPairTest, RulesFireAtExactOpIndices) {
  SocketFaultPlan plan;
  plan.rules = {{/*at_op=*/1, SocketFaultKind::kEintrWrite, /*repeat=*/1},
                {/*at_op=*/4, SocketFaultKind::kShortRead, /*repeat=*/1}};
  FaultInjectingSocketOps faults(plan);

  char buf[16];
  // Op 0: clean send.
  EXPECT_EQ(faults.Send(fds_[0], "abcd", 4), 4);
  // Op 1: EINTR, nothing written.
  EXPECT_EQ(faults.Send(fds_[0], "efgh", 4), -1);
  EXPECT_EQ(errno, EINTR);
  // Op 2: clean recv of the 4 bytes that actually left.
  EXPECT_EQ(faults.Recv(fds_[1], buf, sizeof(buf)), 4);
  EXPECT_EQ(std::string_view(buf, 4), "abcd");
  // Op 3: clean send (the kShortRead rule keyed at op 4 cannot fire on a
  // Send even if the indices collided — kind/direction must match).
  EXPECT_EQ(faults.Send(fds_[0], "wxyz", 4), 4);
  // Op 4: the short read — truncated to 1 byte, the rest stays buffered.
  EXPECT_EQ(faults.Recv(fds_[1], buf, sizeof(buf)), 1);
  EXPECT_EQ(buf[0], 'w');
  // Op 5: the remainder arrives untouched.
  EXPECT_EQ(faults.Recv(fds_[1], buf, sizeof(buf)), 3);
  EXPECT_EQ(std::string_view(buf, 3), "xyz");

  EXPECT_EQ(faults.stats().count(SocketFaultKind::kEintrWrite), 1u);
  EXPECT_EQ(faults.stats().count(SocketFaultKind::kShortRead), 1u);
  EXPECT_EQ(faults.stats().total, 2u);
  EXPECT_EQ(faults.ops(), 6u);
}

TEST_F(SocketPairTest, ShortFaultsMoveExactlyOneRealByte) {
  SocketFaultPlan plan;
  plan.rules = {{/*at_op=*/0, SocketFaultKind::kShortWrite, /*repeat=*/1},
                {/*at_op=*/1, SocketFaultKind::kShortRead, /*repeat=*/1}};
  FaultInjectingSocketOps faults(plan);

  // Short write: reports 1, and exactly 1 byte crossed.
  EXPECT_EQ(faults.Send(fds_[0], "hello", 5), 1);
  char buf[16];
  // Short read: truncated to 1 byte even though more was requested.
  EXPECT_EQ(faults.Recv(fds_[1], buf, sizeof(buf)), 1);
  EXPECT_EQ(buf[0], 'h');
  // Nothing else is in flight: the short write really only sent one byte.
  EXPECT_EQ(faults.Send(fds_[0], "i", 1), 1);
  EXPECT_EQ(faults.Recv(fds_[1], buf, sizeof(buf)), 1);
  EXPECT_EQ(buf[0], 'i');
  EXPECT_EQ(faults.stats().total, 2u);
}

TEST_F(SocketPairTest, EagainStormRepeatsThenClears) {
  SocketFaultPlan plan;
  plan.rules = {{/*at_op=*/1, SocketFaultKind::kEagainRead, /*repeat=*/3}};
  FaultInjectingSocketOps faults(plan);

  EXPECT_EQ(faults.Send(fds_[0], "ok", 2), 2);  // Op 0: clean.
  char buf[8];
  for (int i = 0; i < 3; ++i) {  // Ops 1-3: the storm.
    EXPECT_EQ(faults.Recv(fds_[1], buf, sizeof(buf)), -1) << i;
    EXPECT_EQ(errno, EAGAIN) << i;
  }
  EXPECT_EQ(faults.Recv(fds_[1], buf, sizeof(buf)), 2);  // Op 4: clears.
  EXPECT_EQ(faults.stats().count(SocketFaultKind::kEagainRead), 3u);
}

TEST_F(SocketPairTest, ResetAndPipeFaultsReportADeadPeer) {
  SocketFaultPlan plan;
  plan.rules = {{0, SocketFaultKind::kResetRead, 1},
                {1, SocketFaultKind::kResetWrite, 1},
                {2, SocketFaultKind::kPipeWrite, 1}};
  FaultInjectingSocketOps faults(plan);

  char buf[8];
  EXPECT_EQ(faults.Recv(fds_[0], buf, sizeof(buf)), -1);
  EXPECT_EQ(errno, ECONNRESET);
  EXPECT_EQ(faults.Send(fds_[0], "x", 1), -1);
  EXPECT_EQ(errno, ECONNRESET);
  EXPECT_EQ(faults.Send(fds_[0], "x", 1), -1);
  EXPECT_EQ(errno, EPIPE);
  EXPECT_EQ(faults.stats().total, 3u);
}

TEST_F(SocketPairTest, SameSeedDrawsTheSameFaultSequence) {
  SocketFaultPlan plan;
  plan.seed = 0xC0FFEE;
  plan.probability = 0.5;
  FaultInjectingSocketOps first(plan);
  FaultInjectingSocketOps second(plan);

  // Drive both injectors through identical logic: since every draw depends
  // only on (seed, op index), identical control flow follows identical
  // draws, op for op.
  const auto drive = [this](FaultInjectingSocketOps& ops) {
    for (int i = 0; i < 64; ++i) {
      const ssize_t sent = ops.Send(fds_[0], "abcdefgh", 8);
      ssize_t drained = 0;
      while (drained < (sent > 0 ? sent : 0)) {
        char buf[16];
        const ssize_t n = ops.Recv(fds_[1], buf, sizeof(buf));
        if (n > 0) drained += n;  // Faulted recvs retry; bytes are owed.
      }
    }
  };
  drive(first);
  drive(second);
  // Same seed, same op sequence: the stats must agree exactly, kind by
  // kind.
  ASSERT_EQ(first.ops(), second.ops());
  const SocketFaultStats sa = first.stats();
  const SocketFaultStats sb = second.stats();
  EXPECT_EQ(sa.total, sb.total);
  for (int k = 0; k < kNumSocketFaultKinds; ++k) {
    EXPECT_EQ(sa.by_kind[k], sb.by_kind[k]) << "kind " << k;
  }
  EXPECT_GT(sa.total, 0u) << "probability 0.5 over 128+ ops must inject";
}

// --------------------------------------------------------- serving rigs

/// Chaos fixture: a populated index; each test starts a server (with or
/// without server-side fault injection) and probes it with (with or
/// without client-side fault injection) clients.
class NetChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    periods_ = MakePeriods(/*periods=*/2, /*docs=*/2000, /*seed=*/1234);
    for (size_t p = 0; p < periods_.size(); ++p) {
      index_.ApplyPeriod(static_cast<Timestamp>(p) * 1000, periods_[p]);
    }
    for (size_t i = 0; i < periods_[0].size() && probes_.size() < 16;
         i += 7) {
      probes_.push_back(periods_[0][i].tags[0]);
    }
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  void StartServer(SocketOps* server_faults) {
    ServerConfig config;
    config.num_net_threads = 2;
    config.num_reader_threads = 2;
    config.socket_ops = server_faults;
    config.registry = &registry_;
    server_ = std::make_unique<Server>(&index_, config);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  /// One mixed-workload pass: every answer that arrives must be
  /// bit-identical to the direct Reader; a failed call is tolerated only
  /// when `fatal_allowed` (connection-fatal fault kinds), and is followed
  /// by a reconnect. Returns the number of failed calls.
  int RunWorkload(Client* client, int ops, bool fatal_allowed) {
    CorrelationIndex::Reader direct = index_.NewReader();
    int failures = 0;
    for (int i = 0; i < ops; ++i) {
      if (!client->connected()) {
        // Reconnects go straight to the kernel (no injector on connect),
        // but give the occasional refused race a couple of tries.
        bool connected = false;
        for (int attempt = 0; attempt < 10 && !connected; ++attempt) {
          connected = client->Connect("127.0.0.1", server_->port());
        }
        EXPECT_TRUE(connected) << client->last_error();
        if (!connected) return failures + (ops - i);
      }
      const TagId probe = probes_[static_cast<size_t>(i) % probes_.size()];
      bool ok = true;
      switch (i % 3) {
        case 0: {
          std::vector<ScoredSet> via_socket;
          ok = client->TopCorrelated(probe, 8, &via_socket);
          if (ok) {
            std::vector<ScoredSet> expected;
            direct.TopCorrelated(probe, 8, &expected);
            ExpectSameScored(via_socket, expected, "chaos top");
          }
          break;
        }
        case 1: {
          std::optional<LookupResult> via_socket;
          ok = client->Lookup(TagSet({probe}), &via_socket);
          if (ok) {
            const std::optional<LookupResult> expected =
                direct.Lookup(TagSet({probe}));
            EXPECT_EQ(via_socket.has_value(), expected.has_value());
            if (via_socket.has_value() && expected.has_value()) {
              EXPECT_EQ(Bits(via_socket->coefficient),
                        Bits(expected->coefficient));
              EXPECT_EQ(via_socket->epoch, expected->epoch);
            }
          }
          break;
        }
        default:
          ok = client->Ping();
          break;
      }
      if (!ok) {
        EXPECT_TRUE(fatal_allowed)
            << "transparent fault broke a call: " << client->last_error();
        ++failures;
        client->Close();
      }
    }
    return failures;
  }

  /// Post-storm containment check: a fresh, fault-free client must get
  /// bit-identical answers. Under server-side fatal storms even the fresh
  /// connection can be hit, so retry until one full pass succeeds.
  void ExpectServerStillExact() {
    CorrelationIndex::Reader direct = index_.NewReader();
    for (int attempt = 0; attempt < 20; ++attempt) {
      Client fresh;
      if (!fresh.Connect("127.0.0.1", server_->port())) continue;
      std::vector<ScoredSet> via_socket;
      if (!fresh.TopCorrelated(probes_[0], 16, &via_socket)) continue;
      std::vector<ScoredSet> expected;
      direct.TopCorrelated(probes_[0], 16, &expected);
      ExpectSameScored(via_socket, expected, "post-storm");
      return;
    }
    FAIL() << "server never answered a clean connection after the storm";
  }

  std::vector<std::vector<JaccardEstimate>> periods_;
  std::vector<TagId> probes_;
  CorrelationIndex index_;
  telemetry::MetricRegistry registry_;
  std::unique_ptr<Server> server_;
};

// --------------------------------------------- client partial-I/O units

TEST_F(NetChaosTest, ClientSendLoopSurvivesShortAndInterruptedWrites) {
  StartServer(/*server_faults=*/nullptr);

  // Hit the first sends with a short write, an EINTR and an EAGAIN run:
  // the send loop must carry on from the partial offset every time.
  SocketFaultPlan plan;
  plan.rules = {{/*at_op=*/0, SocketFaultKind::kShortWrite, 1},
                {/*at_op=*/1, SocketFaultKind::kEintrWrite, 1},
                {/*at_op=*/2, SocketFaultKind::kShortWrite, 1},
                {/*at_op=*/3, SocketFaultKind::kEagainWrite, 2}};
  FaultInjectingSocketOps faults(plan);
  ClientConfig config;
  config.socket_ops = &faults;
  Client client(config);
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()))
      << client.last_error();

  std::vector<Response> responses;
  for (int i = 0; i < 20; ++i) client.QueuePing();
  ASSERT_TRUE(client.Flush(&responses)) << client.last_error();
  ASSERT_EQ(responses.size(), 20u);
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].op, Opcode::kPong) << i;
  }
  EXPECT_GE(faults.stats().total, 4u);
}

TEST_F(NetChaosTest, ClientRecvLoopSurvivesShortReadsAndEintr) {
  StartServer(/*server_faults=*/nullptr);

  // Storm the read side only: every response crosses one byte at a time
  // or bounces with EINTR/EAGAIN, and must still decode bit-identically.
  SocketFaultPlan plan;
  plan.seed = 7;
  plan.probability = 0.6;
  plan.kinds = {SocketFaultKind::kShortRead, SocketFaultKind::kEintrRead,
                SocketFaultKind::kEagainRead};
  FaultInjectingSocketOps faults(plan);
  ClientConfig config;
  config.socket_ops = &faults;
  Client client(config);
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()))
      << client.last_error();

  CorrelationIndex::Reader direct = index_.NewReader();
  for (int i = 0; i < 30; ++i) {
    const TagId probe = probes_[static_cast<size_t>(i) % probes_.size()];
    std::vector<ScoredSet> via_socket;
    ASSERT_TRUE(client.TopCorrelated(probe, 8, &via_socket))
        << client.last_error();
    std::vector<ScoredSet> expected;
    direct.TopCorrelated(probe, 8, &expected);
    ExpectSameScored(via_socket, expected, "short-read storm");
  }
  EXPECT_GT(faults.stats().total, 0u);
}

// --------------------------------------------------------- chaos matrix

struct MatrixCase {
  SocketFaultKind kind;
  bool fatal;  ///< May this kind cost a connection (vs fully transparent)?
};

constexpr MatrixCase kMatrix[] = {
    {SocketFaultKind::kShortRead, false},
    {SocketFaultKind::kShortWrite, false},
    {SocketFaultKind::kEintrRead, false},
    {SocketFaultKind::kEintrWrite, false},
    {SocketFaultKind::kEagainRead, false},
    {SocketFaultKind::kEagainWrite, false},
    {SocketFaultKind::kResetRead, true},
    {SocketFaultKind::kResetWrite, true},
    {SocketFaultKind::kPipeWrite, true},
};

TEST_F(NetChaosTest, ServerSideFaultMatrixIsContained) {
  for (const MatrixCase& test_case : kMatrix) {
    SCOPED_TRACE(SocketFaultKindName(test_case.kind));
    SocketFaultPlan plan;
    plan.seed = 0x5EED0000 + static_cast<uint64_t>(test_case.kind);
    plan.probability = 0.04;
    plan.kinds = {test_case.kind};
    FaultInjectingSocketOps faults(plan);
    StartServer(&faults);

    Client client;
    RunWorkload(&client, /*ops=*/120, /*fatal_allowed=*/test_case.fatal);
    EXPECT_GT(faults.stats().count(test_case.kind), 0u)
        << "the storm never actually injected";
    EXPECT_TRUE(server_->running());
    ExpectServerStillExact();
    server_->Stop();
    server_.reset();
  }
}

TEST_F(NetChaosTest, ClientSideFaultMatrixIsContained) {
  StartServer(/*server_faults=*/nullptr);
  for (const MatrixCase& test_case : kMatrix) {
    SCOPED_TRACE(SocketFaultKindName(test_case.kind));
    SocketFaultPlan plan;
    plan.seed = 0xC11E0000 + static_cast<uint64_t>(test_case.kind);
    plan.probability = 0.04;
    plan.kinds = {test_case.kind};
    FaultInjectingSocketOps faults(plan);
    ClientConfig config;
    config.socket_ops = &faults;
    Client client(config);
    RunWorkload(&client, /*ops=*/120, /*fatal_allowed=*/test_case.fatal);
    EXPECT_GT(faults.stats().count(test_case.kind), 0u)
        << "the storm never actually injected";
    EXPECT_TRUE(server_->running());
  }
  // One clean client at the end: the server took 9 storms and still
  // answers bit-identically.
  ExpectServerStillExact();
}

// --------------------------------------------------- client retry logic

TEST(NetClientRetryTest, ConnectRefusedRetriesWithJitteredBackoff) {
  // Bind-then-close to obtain a port with (almost surely) no listener.
  int probe_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(probe_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe_fd, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  const uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe_fd);

  std::vector<int64_t> sleeps;
  ClientConfig config;
  config.max_attempts = 3;
  config.base_backoff_ms = 8;
  config.retry_seed = 42;
  config.sleeper = [&](int64_t ms) { sleeps.push_back(ms); };
  Client client(config);
  // Connect() itself does not retry; the unary call does (reconnecting).
  EXPECT_FALSE(client.Connect("127.0.0.1", dead_port));
  EXPECT_FALSE(client.Ping());
  EXPECT_TRUE(client.last_error_transient()) << client.last_error();
  EXPECT_EQ(client.retries(), 2u);  // 3 attempts = 2 retries.
  ASSERT_EQ(sleeps.size(), 2u);
  // Exponential base (8, 16) scaled by jitter in [0.5, 1.5).
  EXPECT_GE(sleeps[0], 4);
  EXPECT_LT(sleeps[0], 12);
  EXPECT_GE(sleeps[1], 8);
  EXPECT_LT(sleeps[1], 24);

  // Same seed replays the same jitter; a different seed (almost surely)
  // diverges — the herd does not re-converge.
  std::vector<int64_t> replay;
  ClientConfig config2 = config;
  config2.sleeper = [&](int64_t ms) { replay.push_back(ms); };
  Client again(config2);
  EXPECT_FALSE(again.Ping());
  ASSERT_EQ(replay.size(), 2u);
  EXPECT_EQ(replay[0], sleeps[0]);
  EXPECT_EQ(replay[1], sleeps[1]);
}

TEST_F(NetChaosTest, HalfSentFlushIsNeverRetried) {
  StartServer(/*server_faults=*/nullptr);

  // A flush whose send dies mid-frame must come back non-transient: the
  // client cannot know whether the server saw the head of the batch.
  SocketFaultPlan plan;
  plan.rules = {{/*at_op=*/0, SocketFaultKind::kShortWrite, 1},
                {/*at_op=*/1, SocketFaultKind::kResetWrite, 1}};
  FaultInjectingSocketOps faults(plan);
  ClientConfig config;
  config.socket_ops = &faults;
  config.max_attempts = 4;  // Even with retries armed...
  int sleep_calls = 0;
  config.sleeper = [&](int64_t) { ++sleep_calls; };
  Client client(config);
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()))
      << client.last_error();
  for (int i = 0; i < 8; ++i) client.QueuePing();
  std::vector<Response> responses;
  EXPECT_FALSE(client.Flush(&responses));  // One byte left, then reset.
  EXPECT_FALSE(client.last_error_transient())
      << "half-sent batch must not be flagged retryable";
  EXPECT_EQ(sleep_calls, 0) << "pipelined Flush must never retry on its own";
  EXPECT_EQ(client.retries(), 0u);
}

}  // namespace
}  // namespace corrtrack::net
