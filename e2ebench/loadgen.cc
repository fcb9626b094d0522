#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <deque>
#include <limits>
#include <memory>

#include "telemetry/clock.h"

namespace e2ebench {

namespace net = corrtrack::net;
using corrtrack::telemetry::MonotonicNanos;

void EncodeQuery(const QuerySpec& q, uint32_t request_id, std::string* out) {
  switch (q.kind) {
    case QuerySpec::Kind::kTop:
      net::AppendTopCorrelatedRequest(request_id, q.tag, q.k, out);
      return;
    case QuerySpec::Kind::kLookup:
      net::AppendLookupRequest(request_id, q.tags, out);
      return;
    case QuerySpec::Kind::kScan:
      net::AppendSnapshotRequest(request_id, q.min_jaccard, q.limit, out);
      return;
  }
}

namespace {

bool ValidCoefficient(double j) { return j >= 0.0 && j <= 1.0; }

bool SortedScoredSets(const std::vector<corrtrack::serve::ScoredSet>& sets) {
  for (size_t i = 0; i < sets.size(); ++i) {
    if (!ValidCoefficient(sets[i].coefficient)) return false;
    if (i > 0 && sets[i].coefficient > sets[i - 1].coefficient) return false;
  }
  return true;
}

}  // namespace

bool WellFormed(const QuerySpec& q, const net::Response& r) {
  switch (q.kind) {
    case QuerySpec::Kind::kTop:
      if (r.op != net::Opcode::kScoredSets || r.scored.size() > q.k ||
          !SortedScoredSets(r.scored)) {
        return false;
      }
      for (const auto& s : r.scored) {
        if (!s.tags.Contains(q.tag)) return false;
      }
      return true;
    case QuerySpec::Kind::kLookup:
      if (r.op != net::Opcode::kLookupResult) return false;
      return !r.lookup.has_value() ||
             (ValidCoefficient(r.lookup->coefficient) &&
              r.lookup->intersection_count <= r.lookup->union_count);
    case QuerySpec::Kind::kScan:
      if (r.op != net::Opcode::kSnapshotSets || !SortedScoredSets(r.scored)) {
        return false;
      }
      if (q.limit != 0 && r.scored.size() > q.limit) return false;
      for (const auto& s : r.scored) {
        if (s.coefficient < q.min_jaccard) return false;
      }
      return true;
  }
  return false;
}

namespace {

constexpr size_t kStatsKind = 3;

/// The freshness probe asks for Stats this long after its last answer.
constexpr int64_t kProbeIntervalNs = 250'000;
/// After each phase, outstanding requests are sent and answered for at
/// most this long; what is still missing then counts as failed.
constexpr int64_t kDrainTimeoutNs = 5'000'000'000;
/// Requests a query connection may have unanswered. A request due while its
/// connection is at the cap waits in the generator; its latency still runs
/// from its due time, so the cap moves queueing out of the server without
/// hiding it, and keeps the generator's memory independent of the rate.
constexpr size_t kMaxInFlight = 8192;

uint64_t PhaseRequests(const Phase& phase) {
  return static_cast<uint64_t>(phase.rate *
                               static_cast<double>(phase.duration_ns) / 1e9);
}

struct Pending {
  uint32_t request_id;
  int64_t due_ns;
  uint64_t query;    // Index into the mix (query connections).
  size_t phase;      // Index into result->phases; SIZE_MAX when abandoned.
};

struct Connection {
  int fd = -1;
  bool probe = false;
  bool dead = false;
  uint32_t next_id = 1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<Pending> pending;

  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

constexpr size_t kAbandoned = static_cast<size_t>(-1);

bool ConnectLoopback(uint16_t port, Connection* conn, std::string* error) {
  conn->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (conn->fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(conn->fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
  return true;
}

/// Per-run state of the event loop.
class EventLoop {
 public:
  EventLoop(const LoadgenConfig& config, LoadgenResult* result,
         std::atomic<Timestamp>* probe_latest)
      : config_(config), result_(result), probe_latest_(probe_latest) {}

  bool Setup() {
    for (int i = 0; i < config_.query_connections; ++i) {
      conns_.push_back(std::make_unique<Connection>());
    }
    if (config_.stats_probe) {
      conns_.push_back(std::make_unique<Connection>());
      conns_.back()->probe = true;
    }
    for (auto& conn : conns_) {
      if (!ConnectLoopback(config_.port, conn.get(), &result_->error)) {
        return false;
      }
    }
    return true;
  }

  void Run(int64_t start_ns, const std::atomic<bool>* stop) {
    next_probe_ns_ = start_ns;
    int64_t phase_start = start_ns;
    uint64_t sequence = 0;
    size_t p = 0;
    for (; p < config_.phases.size(); ++p) {
      const Phase& phase = config_.phases[p];
      PhaseResult& pr = result_->phases[p];
      pr.rate = phase.rate;
      const OpenLoopSchedule schedule{phase_start, phase.rate};
      const uint64_t total = PhaseRequests(phase);
      const int64_t phase_end = phase_start + phase.duration_ns;
      pr.lateness = LatenessTracker(phase_start, phase_end);
      uint64_t next = 0;
      while (true) {
        const int64_t now = MonotonicNanos();
        const uint64_t due = std::min(total, schedule.DueBy(now));
        bool capped = false;
        for (; next < due; ++next, ++sequence) {
          Connection& conn = *conns_[next % static_cast<uint64_t>(
                                              config_.query_connections)];
          if (!conn.dead && conn.pending.size() >= kMaxInFlight) {
            capped = true;
            break;
          }
          const uint64_t q = sequence % config_.mix->size();
          const int64_t due_ns = schedule.DueNs(next);
          pr.lateness.Record(due_ns, now);
          ++pr.attempted;
          ++result_->attempted[KindOf(q)];
          if (conn.dead) {
            Fail(p, q);
            continue;
          }
          const uint32_t id = conn.next_id++;
          EncodeQuery((*config_.mix)[q], id, &conn.out);
          conn.pending.push_back({id, due_ns, q, p});
          ++result_->requests_written;
        }
        MaybeProbe(now);
        FlushAll();
        const bool sending = next < total;
        if (now > phase_end + kDrainTimeoutNs && (sending || HasPending(p))) {
          for (; next < total; ++next, ++sequence) {
            const uint64_t q = sequence % config_.mix->size();
            ++pr.attempted;
            ++result_->attempted[KindOf(q)];
            Fail(p, q);
          }
          Abandon(p);
          break;
        }
        if (!sending && !HasPending(p)) break;
        int64_t wake =
            sending && !capped ? schedule.DueNs(next) : now + 1'000'000;
        if (config_.stats_probe && !probe_busy_) {
          wake = std::min(wake, next_probe_ns_);
        }
        Poll(wake - now);
      }
      pr.met_limit = PercentileSupported(pr.latency_us.size(), 0.99) &&
                     WindowedQuantile(pr.latency_us, 0.99) <= config_.p99_limit_us &&
                     !pr.lateness.Grows();
      phase_start = std::max(phase_end, MonotonicNanos());
      if (!pr.met_limit) {
        ++p;
        break;
      }
    }
    result_->phases.resize(p);
    while (config_.stats_probe && !stop->load(std::memory_order_acquire)) {
      const int64_t now = MonotonicNanos();
      MaybeProbe(now);
      FlushAll();
      Poll(probe_busy_ ? 1'000'000 : next_probe_ns_ - now);
    }
  }

 private:
  size_t KindOf(uint64_t q) const {
    return static_cast<size_t>((*config_.mix)[q].kind);
  }

  void Fail(size_t phase, uint64_t q) {
    ++result_->failed[KindOf(q)];
    if (phase != kAbandoned) {
      PhaseResult& pr = result_->phases[phase];
      ++pr.failed;
      pr.latency_us.push_back(std::numeric_limits<double>::infinity());
    }
  }

  bool HasPending(size_t phase) const {
    for (const auto& conn : conns_) {
      for (const Pending& p : conn->pending) {
        if (p.phase == phase) return true;
      }
    }
    return false;
  }

  /// Requests still unanswered at the drain deadline count as failed; their
  /// late answers are still consumed to keep the per-connection order.
  void Abandon(size_t phase) {
    for (auto& conn : conns_) {
      for (Pending& p : conn->pending) {
        if (p.phase != phase || conn->probe) continue;
        Fail(phase, p.query);
        p.phase = kAbandoned;
      }
    }
  }

  void MaybeProbe(int64_t now) {
    if (!config_.stats_probe || probe_busy_ || now < next_probe_ns_) return;
    Connection& conn = *conns_.back();
    ++result_->attempted[kStatsKind];
    if (conn.dead) {
      ++result_->failed[kStatsKind];
      next_probe_ns_ = now + kProbeIntervalNs;
      return;
    }
    const uint32_t id = conn.next_id++;
    net::AppendStatsRequest(id, &conn.out);
    conn.pending.push_back({id, now, 0, kAbandoned});
    probe_busy_ = true;
  }

  void FlushAll() {
    for (auto& conn : conns_) {
      if (conn->dead || conn->out_off >= conn->out.size()) continue;
      while (conn->out_off < conn->out.size()) {
        const ssize_t n =
            ::send(conn->fd, conn->out.data() + conn->out_off,
                   conn->out.size() - conn->out_off, MSG_NOSIGNAL);
        if (n > 0) {
          conn->out_off += static_cast<size_t>(n);
          if (!conn->probe) ++result_->writes;
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        Kill(*conn, std::string("send: ") + std::strerror(errno));
        break;
      }
      if (conn->out_off == conn->out.size()) {
        conn->out.clear();
        conn->out_off = 0;
      }
    }
  }

  void Poll(int64_t timeout_ns) {
    if (timeout_ns < 0) timeout_ns = 0;
    std::vector<pollfd> fds;
    fds.reserve(conns_.size());
    for (const auto& conn : conns_) {
      short events = 0;
      if (!conn->dead) {
        events = POLLIN;
        if (conn->out_off < conn->out.size()) events |= POLLOUT;
      }
      fds.push_back({conn->dead ? -1 : conn->fd, events, 0});
    }
    timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                static_cast<long>(timeout_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) return;
    for (size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        Read(*conns_[i]);
      }
    }
  }

  /// One bounded read per readiness, so a burst of answers cannot hold
  /// the loop (and the send schedule) for long.
  void Read(Connection& conn) {
    char buf[32 * 1024];
    ssize_t n = 0;
    do {
      n = ::recv(conn.fd, buf, sizeof(buf), 0);
    } while (n < 0 && errno == EINTR);
    if (n > 0) {
      conn.in.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      Kill(conn, n == 0 ? "server closed the connection"
                        : std::string("recv: ") + std::strerror(errno));
      return;
    }
    const int64_t now = MonotonicNanos();
    size_t offset = 0;
    while (!conn.dead) {
      net::Response response;
      size_t consumed = 0;
      std::string error;
      const net::DecodeStatus status = net::DecodeResponse(
          std::string_view(conn.in).substr(offset), &response, &consumed,
          &error);
      if (status == net::DecodeStatus::kNeedMore) break;
      if (status == net::DecodeStatus::kError || conn.pending.empty()) {
        Kill(conn, "undecodable response: " + error);
        return;
      }
      offset += consumed;
      const Pending pending = conn.pending.front();
      conn.pending.pop_front();
      if (response.request_id != pending.request_id) {
        ++result_->malformed;
        Kill(conn, "response out of order");
        return;
      }
      if (conn.probe) {
        OnProbeAnswer(response, now);
      } else {
        OnAnswer(pending, response, now);
      }
    }
    conn.in.erase(0, offset);
  }

  void OnProbeAnswer(const net::Response& response, int64_t now) {
    probe_busy_ = false;
    next_probe_ns_ = now + kProbeIntervalNs;
    if (response.op != net::Opcode::kStatsResult) {
      ++result_->failed[kStatsKind];
      return;
    }
    const Timestamp latest = response.stats.latest_period;
    if (result_->probe.empty() || latest > result_->probe.back().latest_period) {
      result_->probe.push_back({now, latest});
      probe_latest_->store(latest, std::memory_order_release);
    }
  }

  void OnAnswer(const Pending& pending, const net::Response& response,
                int64_t now) {
    if (pending.phase == kAbandoned) return;  // Already counted failed.
    const QuerySpec& q = (*config_.mix)[pending.query];
    if (response.op == net::Opcode::kError) {
      Fail(pending.phase, pending.query);
      return;
    }
    if (!WellFormed(q, response)) {
      ++result_->malformed;
      Fail(pending.phase, pending.query);
      return;
    }
    result_->phases[pending.phase].latency_us.push_back(
        static_cast<double>(now - pending.due_ns) / 1e3);
  }

  void Kill(Connection& conn, const std::string& why) {
    if (conn.dead) return;
    conn.dead = true;
    if (result_->error.empty()) result_->error = why;
    for (const Pending& p : conn.pending) {
      if (conn.probe) {
        ++result_->failed[kStatsKind];
      } else if (p.phase != kAbandoned) {
        Fail(p.phase, p.query);
      }
    }
    conn.pending.clear();
    probe_busy_ = probe_busy_ && !conn.probe;
  }

  const LoadgenConfig& config_;
  LoadgenResult* result_;
  std::atomic<Timestamp>* probe_latest_;
  std::vector<std::unique_ptr<Connection>> conns_;
  bool probe_busy_ = false;
  int64_t next_probe_ns_ = 0;
};

}  // namespace

void PrepareResult(const std::vector<Phase>& phases, LoadgenResult* result) {
  result->phases.resize(phases.size());
  for (size_t p = 0; p < phases.size(); ++p) {
    std::vector<double>& latency = result->phases[p].latency_us;
    latency.assign(PhaseRequests(phases[p]), 0.0);
    latency.clear();
  }
}

bool RunLoadgen(const LoadgenConfig& config, int64_t start_ns,
                const std::atomic<bool>* stop,
                std::atomic<Timestamp>* probe_latest, LoadgenResult* result) {
  if (result->phases.size() != config.phases.size()) {
    result->error = "result not prepared for the configured phases";
    return false;
  }
  EventLoop loop(config, result, probe_latest);
  if (!loop.Setup()) return false;
  loop.Run(start_ns, stop);
  return result->error.empty();
}

}  // namespace e2ebench
