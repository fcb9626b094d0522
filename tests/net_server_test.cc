// Loopback tests for the epoll serving front end. The heart of the suite is
// the differential contract: every answer that crosses the socket must be
// BIT-identical (IEEE-754 bit patterns, not approximate equality) to the
// same call made directly on a CorrelationIndex::Reader — including while a
// writer publishes a new period mid-stream. The rest gates error
// containment (malformed bytes kill one connection, never the index), the
// pipelined ordering guarantee, concurrent-connection coherence (TSan CI
// job) and the corrtrack_net_* instruments.

#include "net/server.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/jaccard.h"
#include "gen/tweet_generator.h"
#include "net/client.h"
#include "telemetry/registry.h"

namespace corrtrack::net {
namespace {

using serve::CorrelationIndex;
using serve::LookupResult;
using serve::ScoredSet;

// Generator-made period batches: realistic tag skew, deterministic content.
std::vector<std::vector<JaccardEstimate>> MakePeriods(int periods, int docs,
                                                      uint64_t seed) {
  gen::GeneratorConfig config;
  config.seed = seed;
  gen::TweetGenerator generator(config);
  std::vector<std::vector<JaccardEstimate>> out;
  for (int p = 0; p < periods; ++p) {
    SubsetCounterTable counters;
    for (int d = 0; d < docs; ++d) counters.Observe(generator.Next().tags);
    out.push_back(counters.ReportAll(2));
  }
  return out;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectSameScored(const std::vector<ScoredSet>& via_socket,
                      const std::vector<ScoredSet>& direct,
                      const char* what) {
  ASSERT_EQ(via_socket.size(), direct.size()) << what;
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_socket[i].tags, direct[i].tags) << what << " [" << i << "]";
    EXPECT_EQ(Bits(via_socket[i].coefficient), Bits(direct[i].coefficient))
        << what << " [" << i << "]";
    EXPECT_EQ(via_socket[i].period_end, direct[i].period_end)
        << what << " [" << i << "]";
  }
}

void ExpectSameLookup(const std::optional<LookupResult>& via_socket,
                      const std::optional<LookupResult>& direct,
                      const char* what) {
  ASSERT_EQ(via_socket.has_value(), direct.has_value()) << what;
  if (!direct.has_value()) return;
  EXPECT_EQ(Bits(via_socket->coefficient), Bits(direct->coefficient)) << what;
  EXPECT_EQ(via_socket->intersection_count, direct->intersection_count)
      << what;
  EXPECT_EQ(via_socket->union_count, direct->union_count) << what;
  EXPECT_EQ(via_socket->period_end, direct->period_end) << what;
  EXPECT_EQ(via_socket->epoch, direct->epoch) << what;
}

/// Loopback fixture: a generator-populated index behind a freshly started
/// server on an ephemeral port, 2 net threads x 3 readers so the
/// cross-thread completion path is actually exercised.
class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    periods_ = MakePeriods(/*periods=*/3, /*docs=*/3000, /*seed=*/77);
    for (size_t p = 0; p < periods_.size(); ++p) {
      index_.ApplyPeriod(static_cast<Timestamp>(p) * 1000, periods_[p]);
    }
    ServerConfig config;
    config.num_net_threads = 2;
    config.num_reader_threads = 3;
    config.registry = &registry_;
    server_ = std::make_unique<Server>(&index_, config);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  void TearDown() override { server_->Stop(); }

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

  uint64_t HistogramCount(const std::string& name) {
    const telemetry::MetricsSnapshot snapshot = registry_.Snapshot();
    for (const auto& sample : snapshot.histograms) {
      if (sample.name == name) return sample.hist.count;
    }
    return 0;
  }

  std::vector<std::vector<JaccardEstimate>> periods_;
  CorrelationIndex index_;
  telemetry::MetricRegistry registry_;
  std::unique_ptr<Server> server_;
};

// ------------------------------------------------------------ differential

TEST_F(NetServerTest, EveryOpIsBitIdenticalToDirectReaderCalls) {
  Client client;
  ASSERT_TRUE(ConnectClient(&client)) << client.last_error();
  CorrelationIndex::Reader direct = index_.NewReader();

  // TopCorrelated over a spread of tags (members of known sets plus tags
  // that are absent), several k values including over-ask.
  std::vector<TagId> probe_tags;
  for (size_t i = 0; i < periods_[0].size() && probe_tags.size() < 48;
       i += 5) {
    probe_tags.push_back(periods_[0][i].tags[0]);
  }
  probe_tags.push_back(0xDEAD);  // No such tag: empty answer.
  for (const TagId tag : probe_tags) {
    for (const uint32_t k : {1u, 8u, 1000u}) {
      std::vector<ScoredSet> via_socket, expected;
      ASSERT_TRUE(client.TopCorrelated(tag, k, &via_socket))
          << client.last_error();
      direct.TopCorrelated(tag, k, &expected);
      ExpectSameScored(via_socket, expected, "TopCorrelated");
    }
  }

  // Lookup: hits (exact sets from every period) and structural misses.
  for (const auto& period : periods_) {
    for (size_t i = 0; i < period.size(); i += 9) {
      std::optional<LookupResult> via_socket;
      ASSERT_TRUE(client.Lookup(period[i].tags, &via_socket))
          << client.last_error();
      ExpectSameLookup(via_socket, direct.Lookup(period[i].tags), "Lookup");
    }
  }
  std::optional<LookupResult> miss;
  ASSERT_TRUE(client.Lookup(TagSet({0xBEEF, 0xDEAD}), &miss));
  EXPECT_FALSE(miss.has_value());

  // Snapshot at several thresholds; a tight limit must be an exact prefix.
  for (const double min_jaccard : {0.0, 0.1, 0.5, 0.99}) {
    std::vector<ScoredSet> via_socket, expected;
    ASSERT_TRUE(client.Snapshot(min_jaccard, 1u << 20, &via_socket))
        << client.last_error();
    direct.Snapshot(min_jaccard, &expected);
    ExpectSameScored(via_socket, expected, "Snapshot");
  }
  std::vector<ScoredSet> limited, full;
  ASSERT_TRUE(client.Snapshot(0.0, 7, &limited));
  direct.Snapshot(0.0, &full);
  ASSERT_GE(full.size(), 7u);
  full.resize(7);
  ExpectSameScored(limited, full, "Snapshot limit prefix");

  // Stats mirrors the index's own view.
  StatsResult stats;
  ASSERT_TRUE(client.Stats(&stats)) << client.last_error();
  EXPECT_EQ(stats.epoch, index_.epoch());
  EXPECT_EQ(stats.latest_period, index_.latest_period());
  EXPECT_EQ(stats.total_sets, direct.TotalSets());
  EXPECT_EQ(stats.num_shards, index_.num_shards());

  ASSERT_TRUE(client.Ping()) << client.last_error();
}

TEST_F(NetServerTest, StaysBitIdenticalAcrossLivePublishMidStream) {
  // One connection straddles an ApplyPeriod: answers before the publish
  // match the old snapshot's contract, answers after match a fresh direct
  // reader — the server's per-thread readers must pick the new epoch up
  // without reconnecting.
  Client client;
  ASSERT_TRUE(ConnectClient(&client)) << client.last_error();
  const TagSet probe = periods_[0][0].tags;

  std::optional<LookupResult> before;
  ASSERT_TRUE(client.Lookup(probe, &before)) << client.last_error();
  ASSERT_TRUE(before.has_value());

  // Publish a fresh period that re-reports the probe set with a new value.
  JaccardEstimate fresh;
  fresh.tags = probe;
  fresh.coefficient = 0.123456789;
  fresh.intersection_count = 12;
  fresh.union_count = 97;
  index_.ApplyPeriod(99000, {fresh});

  CorrelationIndex::Reader direct = index_.NewReader();
  std::optional<LookupResult> after;
  ASSERT_TRUE(client.Lookup(probe, &after)) << client.last_error();
  ExpectSameLookup(after, direct.Lookup(probe), "post-publish Lookup");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->period_end, 99000);
  EXPECT_EQ(Bits(after->coefficient), Bits(0.123456789));
  EXPECT_GT(after->epoch, before->epoch);

  std::vector<ScoredSet> via_socket, expected;
  ASSERT_TRUE(client.Snapshot(0.0, 1u << 20, &via_socket));
  direct.Snapshot(0.0, &expected);
  ExpectSameScored(via_socket, expected, "post-publish Snapshot");
}

// --------------------------------------------------------------- pipelining

TEST_F(NetServerTest, PipelinedResponsesComeBackInRequestOrder) {
  Client client;
  ASSERT_TRUE(ConnectClient(&client)) << client.last_error();
  CorrelationIndex::Reader direct = index_.NewReader();
  const TagId hot_tag = periods_[0][0].tags[0];

  // A mixed burst in one flush: the response opcode sequence must mirror
  // the request sequence exactly (the one-batch-in-flight discipline).
  for (int round = 0; round < 8; ++round) {
    client.QueuePing();
    client.QueueTopCorrelated(hot_tag, 4);
    client.QueueLookup(periods_[0][0].tags);
    client.QueueStats();
    client.QueueSnapshot(0.9, 3);
    std::vector<Response> responses;
    ASSERT_TRUE(client.Flush(&responses)) << client.last_error();
    ASSERT_EQ(responses.size(), 5u);
    EXPECT_EQ(responses[0].op, Opcode::kPong);
    EXPECT_EQ(responses[1].op, Opcode::kScoredSets);
    EXPECT_EQ(responses[2].op, Opcode::kLookupResult);
    EXPECT_EQ(responses[3].op, Opcode::kStatsResult);
    EXPECT_EQ(responses[4].op, Opcode::kSnapshotSets);
    // And the payloads are the real answers, not just shaped bytes.
    std::vector<ScoredSet> expected;
    direct.TopCorrelated(hot_tag, 4, &expected);
    ExpectSameScored(responses[1].scored, expected, "pipelined top");
    ExpectSameLookup(responses[2].lookup, direct.Lookup(periods_[0][0].tags),
                     "pipelined lookup");
  }
}

TEST_F(NetServerTest, DeepPipelineMatchesUnaryAnswers) {
  Client pipelined, unary;
  ASSERT_TRUE(ConnectClient(&pipelined));
  ASSERT_TRUE(ConnectClient(&unary));
  std::vector<TagId> tags;
  for (size_t i = 0; i < periods_[1].size() && tags.size() < 64; i += 3) {
    tags.push_back(periods_[1][i].tags[0]);
  }
  for (const TagId tag : tags) pipelined.QueueTopCorrelated(tag, 8);
  std::vector<Response> burst;
  ASSERT_TRUE(pipelined.Flush(&burst)) << pipelined.last_error();
  ASSERT_EQ(burst.size(), tags.size());
  for (size_t i = 0; i < tags.size(); ++i) {
    std::vector<ScoredSet> expected;
    ASSERT_TRUE(unary.TopCorrelated(tags[i], 8, &expected))
        << unary.last_error();
    ExpectSameScored(burst[i].scored, expected, "deep pipeline");
  }
}

// ------------------------------------------------------------------ routing

TEST_F(NetServerTest, SmallGroupsRunInlineOnlyWhileTheReaderPoolIsIdle) {
  // Unary calls wait for their answer, so every request below is decoded
  // with no batch queued or executing: small groups must run on the net
  // thread (inline counter moves, queue span does not) and still answer
  // bit-identically to direct Reader calls.
  Client client;
  ASSERT_TRUE(ConnectClient(&client)) << client.last_error();
  CorrelationIndex::Reader direct = index_.NewReader();
  const std::string inline_name = "corrtrack_net_inline_batches_total";
  const std::string queue_name = "corrtrack_net_stage_ns{stage=\"queue\"}";
  uint64_t inlined = CounterValue(inline_name);
  uint64_t queued = HistogramCount(queue_name);
  const auto expect_route = [&](bool inline_path, const char* what) {
    EXPECT_EQ(CounterValue(inline_name), inlined + (inline_path ? 1 : 0))
        << what;
    EXPECT_EQ(HistogramCount(queue_name), queued + (inline_path ? 0 : 1))
        << what;
    inlined = CounterValue(inline_name);
    queued = HistogramCount(queue_name);
  };

  const TagSet& probe = periods_[0][0].tags;
  std::vector<ScoredSet> via_socket, expected;
  ASSERT_TRUE(client.TopCorrelated(probe[0], 8, &via_socket))
      << client.last_error();
  direct.TopCorrelated(probe[0], 8, &expected);
  ExpectSameScored(via_socket, expected, "inline TopCorrelated");
  expect_route(true, "TopCorrelated");

  std::optional<LookupResult> hit;
  ASSERT_TRUE(client.Lookup(probe, &hit)) << client.last_error();
  ExpectSameLookup(hit, direct.Lookup(probe), "inline Lookup");
  expect_route(true, "Lookup");

  ASSERT_TRUE(client.Ping()) << client.last_error();
  expect_route(true, "Ping");

  StatsResult stats;
  ASSERT_TRUE(client.Stats(&stats)) << client.last_error();
  EXPECT_EQ(stats.epoch, index_.epoch());
  EXPECT_EQ(stats.latest_period, index_.latest_period());
  EXPECT_EQ(stats.total_sets, direct.TotalSets());
  EXPECT_EQ(stats.num_shards, index_.num_shards());
  expect_route(true, "Stats");

  // A Snapshot scans the whole index: always queued, however small.
  ASSERT_TRUE(client.Snapshot(0.0, 1u << 20, &via_socket))
      << client.last_error();
  direct.Snapshot(0.0, &expected);
  ExpectSameScored(via_socket, expected, "queued Snapshot");
  expect_route(false, "Snapshot");

  // One pipelined group just past the inline limit: queued as one batch.
  for (size_t i = 0; i <= Server::kInlineMaxRequests; ++i) client.QueuePing();
  std::vector<Response> responses;
  ASSERT_TRUE(client.Flush(&responses)) << client.last_error();
  ASSERT_EQ(responses.size(), Server::kInlineMaxRequests + 1);
  for (const Response& response : responses) {
    EXPECT_EQ(response.op, Opcode::kPong);
  }
  expect_route(false, "pipelined group over the inline limit");
}

// --------------------------------------------------------- error containment

std::vector<Response> DecodeAll(std::string_view bytes) {
  std::vector<Response> responses;
  while (!bytes.empty()) {
    Response response;
    size_t consumed = 0;
    std::string error;
    if (DecodeResponse(bytes, &response, &consumed, &error) !=
        DecodeStatus::kOk) {
      break;
    }
    responses.push_back(std::move(response));
    bytes.remove_prefix(consumed);
  }
  return responses;
}

TEST_F(NetServerTest, GarbageOpcodeErrorsOnlyThatConnection) {
  Client healthy, hostile;
  ASSERT_TRUE(ConnectClient(&healthy));
  ASSERT_TRUE(ConnectClient(&hostile));
  CorrelationIndex::Reader direct = index_.NewReader();
  const uint64_t sets_before = direct.TotalSets();

  // A syntactically well-framed request with an unassigned opcode.
  std::string frame;
  AppendPingRequest(1, &frame);
  frame[kLengthPrefixBytes] = static_cast<char>(0x6E);
  ASSERT_TRUE(hostile.SendRaw(frame)) << hostile.last_error();
  const std::vector<Response> answers = DecodeAll(hostile.ReadUntilClose());
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].op, Opcode::kError);
  EXPECT_EQ(answers[0].error_code, ErrorCode::kBadOpcode);

  // The healthy connection is untouched and the index never saw the frame.
  ASSERT_TRUE(healthy.Ping()) << healthy.last_error();
  StatsResult stats;
  ASSERT_TRUE(healthy.Stats(&stats));
  EXPECT_EQ(stats.total_sets, sets_before);
  EXPECT_EQ(stats.epoch, index_.epoch());
  EXPECT_GE(CounterValue("corrtrack_net_protocol_errors_total"), 1u);
}

TEST_F(NetServerTest, OversizedLengthPrefixErrorsAndCloses) {
  Client hostile;
  ASSERT_TRUE(ConnectClient(&hostile));
  const uint32_t huge = 0xFFFFFFFFu;
  std::string frame(reinterpret_cast<const char*>(&huge), sizeof(huge));
  frame += "payload that will never be read";
  ASSERT_TRUE(hostile.SendRaw(frame));
  const std::vector<Response> answers = DecodeAll(hostile.ReadUntilClose());
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].op, Opcode::kError);
  EXPECT_EQ(answers[0].error_code, ErrorCode::kBadFrame);
}

TEST_F(NetServerTest, ValidFramesAheadOfTheErrorAreStillAnswered) {
  // ping | lookup | garbage arrives as one burst: the two good requests
  // must be answered IN ORDER before the error frame — protocol errors
  // never jump the queue ahead of owed responses.
  Client hostile;
  ASSERT_TRUE(ConnectClient(&hostile));
  std::string burst;
  AppendPingRequest(1, &burst);
  AppendLookupRequest(2, periods_[0][0].tags, &burst);
  std::string bad;
  AppendPingRequest(3, &bad);
  bad[kLengthPrefixBytes] = static_cast<char>(0x6E);
  burst += bad;
  ASSERT_TRUE(hostile.SendRaw(burst));
  const std::vector<Response> answers = DecodeAll(hostile.ReadUntilClose());
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_EQ(answers[0].op, Opcode::kPong);
  EXPECT_EQ(answers[0].request_id, 1u);
  EXPECT_EQ(answers[1].op, Opcode::kLookupResult);
  EXPECT_EQ(answers[1].request_id, 2u);
  EXPECT_EQ(answers[2].op, Opcode::kError);
  CorrelationIndex::Reader direct = index_.NewReader();
  ExpectSameLookup(answers[1].lookup, direct.Lookup(periods_[0][0].tags),
                   "answer ahead of error");
}

TEST_F(NetServerTest, MidFrameDisconnectLeavesServerServing) {
  // A client that dies mid-frame — after the length prefix, before the
  // body — must cost the server nothing but the connection teardown. Run
  // several shapes, then prove the server still answers. ASan owns the
  // "no leaked buffers" half of the contract.
  for (int shape = 0; shape < 3; ++shape) {
    Client flaky;
    ASSERT_TRUE(ConnectClient(&flaky));
    std::string frame;
    AppendLookupRequest(1, TagSet({1, 2, 3}), &frame);
    std::string partial;
    if (shape == 0) partial = frame.substr(0, 2);  // Inside the prefix.
    if (shape == 1) partial = frame.substr(0, kLengthPrefixBytes + 3);
    if (shape == 2) {  // A whole frame, then half of the next one.
      partial = frame + frame.substr(0, frame.size() / 2);
    }
    ASSERT_TRUE(flaky.SendRaw(partial));
    if (shape == 2) {
      // The complete first frame is still answered before we vanish. Read
      // with max_bytes=1: the server keeps the connection open (it is
      // waiting for the rest of the half frame), so "until close" would
      // block — one byte proves the response flush happened.
      const std::string bytes = flaky.ReadUntilClose(1);
      EXPECT_FALSE(bytes.empty());
    }
    flaky.Close();
  }
  Client survivor;
  ASSERT_TRUE(ConnectClient(&survivor));
  ASSERT_TRUE(survivor.Ping()) << survivor.last_error();
}

// ------------------------------------------------- concurrency (TSan gate)

TEST_F(NetServerTest, ConcurrentConnectionsStayCoherentUnderLiveWrites) {
  // 8 connections pipeline mixed batches while the main thread keeps
  // publishing fresh sentinel sets into the newest period. Under TSan this
  // races the whole path: accept, decode, shared queue, per-reader
  // snapshot caches, completion hand-back, coalesced flush, vs. live RCU
  // publishes. The value checks catch torn reads on any build.
  constexpr int kClients = 8;
  constexpr int kRounds = 40;
  constexpr TagId kSentinelBase = 1u << 20;
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> violations{0};
  std::atomic<int> rounds_done{0};

  const TagId hot_tag = periods_[0][0].tags[0];
  const TagSet probe = periods_[0][0].tags;
  auto client_loop = [&](int which) {
    Client client;
    if (!ConnectClient(&client)) {
      failures.fetch_add(1);
      return;
    }
    uint64_t last_epoch = 0;
    for (int round = 0; round < kRounds; ++round) {
      client.QueueTopCorrelated(hot_tag, 8);
      client.QueueLookup(probe);
      client.QueueStats();
      client.QueuePing();
      client.QueueTopCorrelated(static_cast<TagId>(which), 4);
      std::vector<Response> responses;
      if (!client.Flush(&responses) || responses.size() != 5) {
        failures.fetch_add(1);
        return;
      }
      for (const ScoredSet& scored : responses[0].scored) {
        if (scored.coefficient < 0.0 || scored.coefficient > 1.0) {
          violations.fetch_add(1);
        }
      }
      if (responses[1].lookup.has_value()) {
        const LookupResult& hit = *responses[1].lookup;
        if (hit.intersection_count > hit.union_count) violations.fetch_add(1);
      }
      // Epochs observed over one connection never go backwards.
      if (responses[2].stats.epoch < last_epoch) violations.fetch_add(1);
      last_epoch = responses[2].stats.epoch;
      rounds_done.fetch_add(1);
    }
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client_loop, c);

  // Live writer: churn publishes until the clients finish (bounded).
  TagId sentinel = kSentinelBase;
  const Timestamp newest = index_.latest_period();
  while (rounds_done.load() < kClients * kRounds &&
         sentinel < kSentinelBase + 100000) {
    JaccardEstimate churn;
    churn.tags = TagSet({sentinel, sentinel + 1});
    churn.coefficient = 0.5;
    churn.intersection_count = 5;
    churn.union_count = 10;
    index_.ApplyPeriod(newest, {churn});
    sentinel += 2;
    std::this_thread::yield();
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(violations.load(), 0u);
}

// ----------------------------------------------------------------- metrics

TEST_F(NetServerTest, InstrumentsRecordTheSocketPath) {
  Client client;
  ASSERT_TRUE(ConnectClient(&client));
  std::vector<ScoredSet> scored;
  ASSERT_TRUE(client.TopCorrelated(periods_[0][0].tags[0], 4, &scored));
  std::optional<LookupResult> hit;
  ASSERT_TRUE(client.Lookup(periods_[0][0].tags, &hit));
  ASSERT_TRUE(client.Snapshot(0.5, 10, &scored));
  ASSERT_TRUE(client.Ping());
  StatsResult stats;
  ASSERT_TRUE(client.Stats(&stats));
  client.Close();

  // Disconnect bookkeeping is asynchronous (the net thread notices the
  // close on its next wake) — poll briefly instead of asserting instantly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (CounterValue("corrtrack_net_disconnects_total") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  EXPECT_GE(CounterValue("corrtrack_net_connections_total"), 1u);
  EXPECT_GE(CounterValue("corrtrack_net_disconnects_total"), 1u);
  EXPECT_GE(CounterValue("corrtrack_net_batches_total"), 5u);
  EXPECT_GT(CounterValue("corrtrack_net_bytes_read_total"), 0u);
  EXPECT_GT(CounterValue("corrtrack_net_bytes_written_total"), 0u);
  for (const char* op : {"top", "lookup", "scan", "ping", "stats"}) {
    EXPECT_EQ(CounterValue(std::string("corrtrack_net_requests_total{op=\"") +
                           op + "\"}"),
              1u)
        << op;
  }
  // Every stage span and the per-op latency histograms saw samples.
  const telemetry::MetricsSnapshot snapshot = registry_.Snapshot();
  size_t live_histograms = 0;
  for (const auto& sample : snapshot.histograms) {
    if (sample.name.rfind("corrtrack_net_", 0) == 0 &&
        sample.hist.count > 0) {
      ++live_histograms;
    }
  }
  // 4 stage spans + 5 per-op request spans.
  EXPECT_GE(live_histograms, 9u);
}

TEST_F(NetServerTest, RegistersExactlyTheDocumentedInstrumentNames) {
  // Drift guard for the exposition goldens (telemetry_test.cc) and the
  // README: the server's registered name set is part of the public
  // monitoring surface.
  const telemetry::MetricsSnapshot snapshot = registry_.Snapshot();
  std::vector<std::string> counters, gauges, histograms;
  for (const auto& sample : snapshot.counters) counters.push_back(sample.name);
  for (const auto& sample : snapshot.gauges) gauges.push_back(sample.name);
  for (const auto& sample : snapshot.histograms) {
    histograms.push_back(sample.name);
  }
  EXPECT_EQ(counters,
            (std::vector<std::string>{
                "corrtrack_net_accept_rejected_total",
                "corrtrack_net_batches_total",
                "corrtrack_net_bytes_read_total",
                "corrtrack_net_bytes_written_total",
                "corrtrack_net_connections_total",
                "corrtrack_net_deadline_exceeded_total",
                "corrtrack_net_disconnects_total",
                "corrtrack_net_drain_closed_total",
                "corrtrack_net_inline_batches_total",
                "corrtrack_net_protocol_errors_total",
                "corrtrack_net_requests_total{op=\"deadline\"}",
                "corrtrack_net_requests_total{op=\"lookup\"}",
                "corrtrack_net_requests_total{op=\"ping\"}",
                "corrtrack_net_requests_total{op=\"scan\"}",
                "corrtrack_net_requests_total{op=\"stats\"}",
                "corrtrack_net_requests_total{op=\"top\"}",
                "corrtrack_net_shed_requests_total",
                "corrtrack_net_slow_client_closed_total",
                "corrtrack_net_timeout_closed_total{kind=\"idle\"}",
                "corrtrack_net_timeout_closed_total{kind=\"write_stall\"}"}));
  EXPECT_EQ(gauges,
            (std::vector<std::string>{"corrtrack_net_open_connections"}));
  EXPECT_EQ(histograms,
            (std::vector<std::string>{
                "corrtrack_net_request_ns{op=\"deadline\"}",
                "corrtrack_net_request_ns{op=\"lookup\"}",
                "corrtrack_net_request_ns{op=\"ping\"}",
                "corrtrack_net_request_ns{op=\"scan\"}",
                "corrtrack_net_request_ns{op=\"stats\"}",
                "corrtrack_net_request_ns{op=\"top\"}",
                "corrtrack_net_stage_ns{stage=\"decode\"}",
                "corrtrack_net_stage_ns{stage=\"execute\"}",
                "corrtrack_net_stage_ns{stage=\"flush\"}",
                "corrtrack_net_stage_ns{stage=\"queue\"}"}));
}

// ------------------------------------------------------- shutdown races

TEST_F(NetServerTest, StopRacesInFlightBatchesWithoutHangingOrCrashing) {
  // Clients keep deep pipelines in flight while the main thread pulls the
  // plug. Stop() must (a) return, (b) leave no thread behind, (c) never
  // touch freed connection state — TSan/ASan own (c); the joins inside
  // Stop own (b). Client-side failures are expected and fine.
  constexpr int kClients = 6;
  std::atomic<bool> halt{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      while (!halt.load(std::memory_order_acquire)) {
        Client client;
        if (!ConnectClient(&client)) return;  // Listener already gone.
        while (!halt.load(std::memory_order_acquire)) {
          for (int i = 0; i < 16; ++i) client.QueuePing();
          if (!client.Flush(nullptr)) break;  // Server went away mid-batch.
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->Stop();
  halt.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  // The fixture's TearDown calls Stop again — idempotence is part of the
  // contract under test.
}

TEST(SharedQueueTest, CloseRacesConcurrentPushAndTryPush) {
  // Producers hammer Push/TryPush while another thread Closes: no pushed
  // item may be lost-but-acknowledged, every consumer must wake, and the
  // whole dance must be TSan-clean.
  for (int round = 0; round < 20; ++round) {
    SharedQueue<int> queue(8);
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> popped{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < 1000; ++i) {
          if (p % 2 == 0) {
            if (queue.Push(i)) accepted.fetch_add(1);
          } else {
            int item = i;
            if (queue.TryPush(item)) accepted.fetch_add(1);
          }
        }
      });
    }
    std::thread consumer([&] {
      int item;
      while (queue.Pop(&item)) popped.fetch_add(1);
    });
    std::this_thread::yield();
    queue.Close();
    for (std::thread& t : producers) t.join();
    consumer.join();
    // Everything acknowledged before (or despite) the close was consumed:
    // Pop drains the queue after Close by contract.
    EXPECT_EQ(popped.load(), accepted.load());
  }
}

}  // namespace
}  // namespace corrtrack::net
