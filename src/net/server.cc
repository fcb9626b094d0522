#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "net/timer_wheel.h"
#include "telemetry/clock.h"
#include "telemetry/log.h"

namespace corrtrack::net {

namespace {

/// epoll_data sentinels for the two per-thread non-connection fds.
/// Connection ids start at 16 (Server::next_conn_id_) so they never collide.
constexpr uint64_t kEventFdData = 0;
constexpr uint64_t kListenerData = 1;

/// Per-readiness-event read budget: bytes drained from one socket before
/// the loop moves on (fairness under pipelined flooding; level-triggered
/// epoll re-delivers the rest).
constexpr size_t kMaxReadPerEvent = 256 * 1024;

void RecordNs(telemetry::LatencyHistogram* hist, int64_t span_ns) {
  if (hist != nullptr && span_ns > 0) {
    hist->Record(static_cast<uint64_t>(span_ns));
  }
}

void Bump(telemetry::Counter* counter, uint64_t n = 1) {
  if (counter != nullptr && n != 0) counter->Increment(n);
}

/// Timer-wheel ids multiplex two timers per connection.
constexpr uint64_t IdleTimerId(uint64_t conn_id) { return conn_id << 1; }
constexpr uint64_t StallTimerId(uint64_t conn_id) {
  return (conn_id << 1) | 1;
}

}  // namespace

/// Per-connection state machine, owned by exactly one net thread (no
/// locks). The in/out buffers use offset-consumption so pipelined floods
/// do not degenerate into O(n^2) front-erases.
struct Server::Connection {
  uint64_t id = 0;
  int fd = -1;

  std::string in_buf;   // Raw bytes read; [0, in_off) already decoded.
  size_t in_off = 0;
  std::string out_buf;  // Encoded responses pending write; [0, out_off) sent.
  size_t out_off = 0;

  /// Error frame built at decode-error time, appended to out_buf only
  /// after any in-flight batch's responses (order preserved).
  std::string pending_error;

  bool executing = false;    // A batch is in the queue / on a reader thread.
  bool closing = false;      // Protocol error: close once out_buf drains.
  bool peer_closed = false;  // read() saw EOF; flush what we owe, then close.
  uint32_t interest = 0;     // Events currently registered with epoll.

  int64_t arrival_ns = 0;  // First byte of the batch being accumulated.

  /// Effective deadline budget from the connection's last kDeadline
  /// directive (already clamped); 0 = requests never expire.
  uint32_t deadline_ms = 0;

  // Timeout bookkeeping (only touched when the reapers are configured).
  int64_t last_activity_ns = 0;
  int64_t last_write_progress_ns = 0;
  bool write_stall_armed = false;
};

/// One decoded batch in flight: every complete frame drained from one
/// readiness event (or left over from the previous batch). Requests are
/// kept after execution so the net thread can stamp per-op e2e latency.
struct Server::RequestBatch {
  uint64_t conn_id = 0;
  int net_thread = 0;
  std::vector<Request> requests;
  std::string responses;  // Filled by the reader thread, frame per request.
  int64_t arrival_ns = 0;
  int64_t enqueue_ns = 0;
};

struct Server::NetThread {
  explicit NetThread(serve::CorrelationIndex::Reader index_reader)
      : reader(std::move(index_reader)) {}

  int index = 0;
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread thread;
  std::atomic<bool> stop{false};

  /// Cross-thread inboxes, drained on eventfd wake. `intake` carries
  /// accepted fds dispatched by thread 0; `completions` carries executed
  /// batches handed back by reader threads.
  std::mutex mutex;
  std::vector<int> intake;
  std::vector<std::unique_ptr<RequestBatch>> completions;

  /// Connections owned by this thread — touched by this thread only.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;

  /// Idle / write-stall timers for this thread's connections; swept after
  /// each epoll round when either reaper is configured.
  TimerWheel wheel;

  /// This thread's own index view for groups it executes inline.
  serve::CorrelationIndex::Reader reader;
  std::vector<serve::ScoredSet> scratch;
};

/// Why a connection is being torn down — routes the close into the right
/// counter so operators can tell shed load from broken peers.
enum class Server::CloseReason {
  kNormal,      // Peer hangup, protocol error, fatal socket error, Stop.
  kIdle,        // Idle reaper fired.
  kWriteStall,  // Write-stall (slowloris) reaper fired.
  kSlowClient,  // Write buffer cap exceeded.
  kDrain,       // Graceful drain finished this connection's owed work.
};

struct Server::Instruments {
  telemetry::LatencyHistogram* stage_decode = nullptr;
  telemetry::LatencyHistogram* stage_queue = nullptr;
  telemetry::LatencyHistogram* stage_execute = nullptr;
  telemetry::LatencyHistogram* stage_flush = nullptr;
  telemetry::LatencyHistogram* request_ns[6] = {};  // Indexed by OpIndex.
  telemetry::Counter* requests_total[6] = {};
  telemetry::Counter* connections = nullptr;
  telemetry::Counter* disconnects = nullptr;
  telemetry::Counter* protocol_errors = nullptr;
  telemetry::Counter* batches = nullptr;
  telemetry::Counter* inline_batches = nullptr;
  telemetry::Counter* bytes_read = nullptr;
  telemetry::Counter* bytes_written = nullptr;
  telemetry::Counter* shed_requests = nullptr;
  telemetry::Counter* deadline_exceeded = nullptr;
  telemetry::Counter* timeout_closed_idle = nullptr;
  telemetry::Counter* timeout_closed_write_stall = nullptr;
  telemetry::Counter* accept_rejected = nullptr;
  telemetry::Counter* slow_client_closed = nullptr;
  telemetry::Counter* drain_closed = nullptr;
  telemetry::Gauge* open_connections = nullptr;
  std::atomic<int64_t> open_count{0};

  static int OpIndex(Opcode op) {
    switch (op) {
      case Opcode::kTopCorrelated:
        return 0;
      case Opcode::kLookup:
        return 1;
      case Opcode::kSnapshot:
        return 2;
      case Opcode::kPing:
        return 3;
      case Opcode::kStats:
        return 4;
      default:
        return 5;  // kDeadline.
    }
  }

  explicit Instruments(telemetry::MetricRegistry* registry) {
    if (registry == nullptr) return;
    stage_decode =
        registry->GetHistogram("corrtrack_net_stage_ns{stage=\"decode\"}");
    stage_queue =
        registry->GetHistogram("corrtrack_net_stage_ns{stage=\"queue\"}");
    stage_execute =
        registry->GetHistogram("corrtrack_net_stage_ns{stage=\"execute\"}");
    stage_flush =
        registry->GetHistogram("corrtrack_net_stage_ns{stage=\"flush\"}");
    static constexpr Opcode kOps[6] = {Opcode::kTopCorrelated, Opcode::kLookup,
                                       Opcode::kSnapshot, Opcode::kPing,
                                       Opcode::kStats, Opcode::kDeadline};
    for (const Opcode op : kOps) {
      const std::string label = RequestOpLabel(op);
      request_ns[OpIndex(op)] = registry->GetHistogram(
          "corrtrack_net_request_ns{op=\"" + label + "\"}");
      requests_total[OpIndex(op)] = registry->GetCounter(
          "corrtrack_net_requests_total{op=\"" + label + "\"}");
    }
    connections = registry->GetCounter("corrtrack_net_connections_total");
    disconnects = registry->GetCounter("corrtrack_net_disconnects_total");
    protocol_errors =
        registry->GetCounter("corrtrack_net_protocol_errors_total");
    batches = registry->GetCounter("corrtrack_net_batches_total");
    inline_batches = registry->GetCounter("corrtrack_net_inline_batches_total");
    bytes_read = registry->GetCounter("corrtrack_net_bytes_read_total");
    bytes_written = registry->GetCounter("corrtrack_net_bytes_written_total");
    shed_requests = registry->GetCounter("corrtrack_net_shed_requests_total");
    deadline_exceeded =
        registry->GetCounter("corrtrack_net_deadline_exceeded_total");
    timeout_closed_idle =
        registry->GetCounter("corrtrack_net_timeout_closed_total{kind=\"idle\"}");
    timeout_closed_write_stall = registry->GetCounter(
        "corrtrack_net_timeout_closed_total{kind=\"write_stall\"}");
    accept_rejected =
        registry->GetCounter("corrtrack_net_accept_rejected_total");
    slow_client_closed =
        registry->GetCounter("corrtrack_net_slow_client_closed_total");
    drain_closed = registry->GetCounter("corrtrack_net_drain_closed_total");
    open_connections = registry->GetGauge("corrtrack_net_open_connections");
  }

  /// Closes the socket-to-socket spans of a group whose responses were
  /// just flushed: the flush stage and each request's end-to-end latency.
  void RecordFlushed(const std::vector<Request>& requests, int64_t arrival_ns,
                     int64_t flush_start_ns) {
    const int64_t flushed_ns = telemetry::MonotonicNanos();
    RecordNs(stage_flush, flushed_ns - flush_start_ns);
    for (const Request& request : requests) {
      RecordNs(request_ns[OpIndex(request.op)], flushed_ns - arrival_ns);
    }
  }

  void ConnectionOpened() {
    Bump(connections);
    const int64_t open = open_count.fetch_add(1, std::memory_order_relaxed) + 1;
    if (open_connections != nullptr) {
      open_connections->Set(static_cast<double>(open));
    }
  }

  void ConnectionClosed() {
    Bump(disconnects);
    const int64_t open = open_count.fetch_sub(1, std::memory_order_relaxed) - 1;
    if (open_connections != nullptr) {
      open_connections->Set(static_cast<double>(open));
    }
  }
};

Server::Server(const serve::CorrelationIndex* index,
               const ServerConfig& config)
    : index_(index), config_(config) {
  if (config_.num_net_threads < 1) config_.num_net_threads = 1;
  if (config_.num_reader_threads < 1) config_.num_reader_threads = 1;
  if (config_.queue_capacity < 1) config_.queue_capacity = 1;
  sock_ = config_.socket_ops != nullptr ? config_.socket_ops
                                        : SocketOps::Real();
}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  if (started_) {
    if (error != nullptr) *error = "server already started";
    return false;
  }
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::string("socket: ") + strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    if (error != nullptr) {
      *error = "bad bind address '" + config_.bind_address + "'";
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 511) < 0) {
    if (error != nullptr) *error = std::string("bind/listen: ") +
                                   strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  instruments_ = std::make_unique<Instruments>(config_.registry);
  queue_ = std::make_unique<SharedQueue<std::unique_ptr<RequestBatch>>>(
      config_.queue_capacity);

  net_threads_.clear();
  for (int i = 0; i < config_.num_net_threads; ++i) {
    auto net = std::make_unique<NetThread>(index_->NewReader());
    net->index = i;
    net->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    net->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (net->epoll_fd < 0 || net->event_fd < 0) {
      if (error != nullptr) {
        *error = std::string("epoll/eventfd: ") + strerror(errno);
      }
      if (net->epoll_fd >= 0) ::close(net->epoll_fd);
      if (net->event_fd >= 0) ::close(net->event_fd);
      for (auto& prev : net_threads_) {
        ::close(prev->epoll_fd);
        ::close(prev->event_fd);
      }
      net_threads_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kEventFdData;
    ::epoll_ctl(net->epoll_fd, EPOLL_CTL_ADD, net->event_fd, &ev);
    if (i == 0) {
      // The listener lives in thread 0's loop; accepted connections are
      // dealt round-robin to every net thread via the intake inboxes.
      ev.events = EPOLLIN;
      ev.data.u64 = kListenerData;
      ::epoll_ctl(net->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
    }
    net_threads_.push_back(std::move(net));
  }

  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  started_ = true;
  for (int i = 0; i < config_.num_reader_threads; ++i) {
    reader_threads_.emplace_back([this] { ReaderThreadMain(); });
  }
  for (int i = 0; i < config_.num_net_threads; ++i) {
    net_threads_[i]->thread = std::thread([this, i] { NetThreadMain(i); });
  }
  CORRTRACK_LOG(kInfo, "net", "serving on %s:%u (%d net, %d reader threads)",
                config_.bind_address.c_str(), static_cast<unsigned>(port_),
                config_.num_net_threads, config_.num_reader_threads);
  return true;
}

void Server::Stop() {
  if (!started_) return;
  running_.store(false, std::memory_order_release);
  // Order matters: readers drain and exit first so no completion is handed
  // to a net thread that has already been torn down; net threads then get
  // a final wake and exit their loops before any fd is closed.
  queue_->Close();
  for (std::thread& t : reader_threads_) t.join();
  reader_threads_.clear();
  for (auto& net : net_threads_) {
    net->stop.store(true, std::memory_order_release);
    uint64_t wake = 1;
    [[maybe_unused]] ssize_t n =
        ::write(net->event_fd, &wake, sizeof(wake));
  }
  for (auto& net : net_threads_) {
    net->thread.join();
    for (auto& [id, conn] : net->conns) ::close(conn->fd);
    for (const int fd : net->intake) ::close(fd);
    net->conns.clear();
    net->intake.clear();
    net->completions.clear();
    ::close(net->epoll_fd);
    ::close(net->event_fd);
  }
  net_threads_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  queue_.reset();
  started_ = false;
  draining_.store(false, std::memory_order_release);
}

bool Server::Drain(int64_t deadline_ms) {
  if (!started_) return true;
  bool expected = false;
  if (draining_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    CORRTRACK_LOG(kInfo, "net", "drain: stop accepting, finishing owed work");
    // Unblocks pending accepts with EINVAL; AcceptReady treats any
    // non-EINTR failure as "drained" and stops. fd ownership stays with
    // Stop so the teardown path is identical either way.
    ::shutdown(listen_fd_, SHUT_RDWR);
    for (auto& net : net_threads_) {
      uint64_t wake = 1;
      [[maybe_unused]] ssize_t n =
          ::write(net->event_fd, &wake, sizeof(wake));
    }
  }
  const int64_t give_up_ns =
      telemetry::MonotonicNanos() + deadline_ms * 1'000'000;
  bool drained = instruments_->open_count.load(std::memory_order_acquire) == 0;
  while (!drained && telemetry::MonotonicNanos() < give_up_ns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    drained = instruments_->open_count.load(std::memory_order_acquire) == 0;
  }
  if (!drained) {
    CORRTRACK_LOG(kWarn, "net",
                  "drain deadline (%lld ms) expired with connections open",
                  static_cast<long long>(deadline_ms));
  }
  Stop();
  return drained;
}

// --------------------------------------------------------- reader threads

void Server::ReaderThreadMain() {
  // One Reader per thread: per-shard snapshot caches make the steady-state
  // query path lock-free (see CorrelationIndex::Reader).
  serve::CorrelationIndex::Reader reader = index_->NewReader();
  std::vector<serve::ScoredSet> scratch;
  Instruments& ins = *instruments_;
  std::unique_ptr<RequestBatch> batch;
  while (queue_->Pop(&batch)) {
    const int64_t dequeued_ns = telemetry::MonotonicNanos();
    RecordNs(ins.stage_queue, dequeued_ns - batch->enqueue_ns);
    ExecuteRequests(reader, &scratch, batch->requests, dequeued_ns,
                    &batch->responses);
    reader_batches_.fetch_sub(1, std::memory_order_release);
    NetThread& net = *net_threads_[batch->net_thread];
    {
      std::lock_guard<std::mutex> lock(net.mutex);
      net.completions.push_back(std::move(batch));
    }
    uint64_t wake = 1;
    [[maybe_unused]] ssize_t n = ::write(net.event_fd, &wake, sizeof(wake));
  }
}

int64_t Server::ExecuteRequests(const serve::CorrelationIndex::Reader& reader,
                                std::vector<serve::ScoredSet>* scratch,
                                const std::vector<Request>& requests,
                                int64_t start_ns, std::string* out) {
  Instruments& ins = *instruments_;
  for (const Request& request : requests) {
    // Deadline enforcement happens HERE, at execution start: a request
    // whose budget burned away in the queue is answered without touching
    // the index — under overload that converts wasted work into fast
    // failures the client already knows how to interpret.
    if (request.deadline_ns != 0 && request.op != Opcode::kDeadline &&
        start_ns > request.deadline_ns) {
      AppendErrorResponse(request.request_id, ErrorCode::kDeadlineExceeded,
                          "deadline expired before execution", out);
      Bump(ins.deadline_exceeded);
      Bump(ins.requests_total[Instruments::OpIndex(request.op)]);
      continue;
    }
    switch (request.op) {
      case Opcode::kTopCorrelated: {
        const uint32_t k = request.k < kMaxTopK ? request.k : kMaxTopK;
        reader.TopCorrelated(request.tag, k, scratch);
        AppendScoredSetsResponse(Opcode::kScoredSets, request.request_id,
                                 *scratch, out);
        break;
      }
      case Opcode::kLookup:
        AppendLookupResponse(request.request_id, reader.Lookup(request.tags),
                             out);
        break;
      case Opcode::kSnapshot: {
        reader.Snapshot(request.min_jaccard, scratch);
        if (request.limit != 0 && scratch->size() > request.limit) {
          scratch->resize(request.limit);
        }
        AppendScoredSetsResponse(Opcode::kSnapshotSets, request.request_id,
                                 *scratch, out);
        break;
      }
      case Opcode::kPing:
        AppendPongResponse(request.request_id, out);
        break;
      case Opcode::kDeadline:
        // The directive itself was applied at decode on the net thread
        // (budget_ms holds the post-clamp value); here we only owe the
        // in-order acknowledgement.
        AppendDeadlineAckResponse(request.request_id, request.budget_ms, out);
        break;
      case Opcode::kStats:
      default: {
        StatsResult stats;
        stats.epoch = index_->epoch();
        stats.latest_period = index_->latest_period();
        stats.total_sets = reader.TotalSets();
        stats.num_shards = index_->num_shards();
        AppendStatsResponse(request.request_id, stats, out);
        break;
      }
    }
    Bump(ins.requests_total[Instruments::OpIndex(request.op)]);
  }
  const int64_t done_ns = telemetry::MonotonicNanos();
  RecordNs(ins.stage_execute, done_ns - start_ns);
  return done_ns;
}

bool Server::RunsInline(const std::vector<Request>& requests) const {
  if (requests.size() > kInlineMaxRequests) return false;
  for (const Request& request : requests) {
    if (request.op == Opcode::kSnapshot) return false;
  }
  return reader_batches_.load(std::memory_order_acquire) == 0;
}

// ------------------------------------------------------------ net threads

void Server::NetThreadMain(int thread_index) {
  NetThread& net = *net_threads_[thread_index];
  const bool timers =
      config_.idle_timeout_ms > 0 || config_.write_stall_timeout_ms > 0;
  const int wait_ms =
      timers ? static_cast<int>(net.wheel.tick_ns() / 1'000'000) : -1;
  epoll_event events[64];
  while (!net.stop.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(net.epoll_fd, events, 64, wait_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t data = events[i].data.u64;
      if (data == kEventFdData) {
        uint64_t drained;
        while (::read(net.event_fd, &drained, sizeof(drained)) > 0) {
        }
        AdoptIntake(net);
        ProcessCompletions(net);
      } else if (data == kListenerData) {
        AcceptReady(net);
      } else {
        auto it = net.conns.find(data);
        if (it == net.conns.end()) continue;  // Closed earlier this round.
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
          CloseConnection(net, data, CloseReason::kNormal);
          continue;
        }
        if ((events[i].events & EPOLLIN) != 0) {
          HandleReadable(net, *it->second);
        }
        it = net.conns.find(data);  // HandleReadable may have closed it.
        if (it != net.conns.end() && (events[i].events & EPOLLOUT) != 0) {
          FlushWrites(net, *it->second);
        }
      }
    }
    if (timers) AdvanceTimers(net);
    if (draining_.load(std::memory_order_acquire)) DrainSweep(net);
  }
}

void Server::AcceptReady(NetThread& net) {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: drained. Anything else: retry on next readiness.
    }
    if (draining_.load(std::memory_order_acquire) ||
        (config_.max_connections > 0 &&
         instruments_->open_count.load(std::memory_order_relaxed) >=
             static_cast<int64_t>(config_.max_connections))) {
      // Hard cap (or drain): reject at the door. The close delivers RST —
      // the peer learns immediately instead of queueing behind a server
      // that would never serve it.
      ::close(fd);
      Bump(instruments_->accept_rejected);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    instruments_->ConnectionOpened();
    const int target = next_net_thread_.fetch_add(
                           1, std::memory_order_relaxed) %
                       static_cast<int>(net_threads_.size());
    if (target == net.index) {
      std::lock_guard<std::mutex> lock(net.mutex);
      net.intake.push_back(fd);
    } else {
      NetThread& other = *net_threads_[target];
      {
        std::lock_guard<std::mutex> lock(other.mutex);
        other.intake.push_back(fd);
      }
      uint64_t wake = 1;
      [[maybe_unused]] ssize_t n =
          ::write(other.event_fd, &wake, sizeof(wake));
    }
  }
  AdoptIntake(net);  // Self-dispatched fds adopt without an eventfd round.
}

void Server::AdoptIntake(NetThread& net) {
  std::vector<int> adopted;
  {
    std::lock_guard<std::mutex> lock(net.mutex);
    adopted.swap(net.intake);
  }
  for (const int fd : adopted) {
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    conn->interest = EPOLLIN;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(net.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      instruments_->ConnectionClosed();
      continue;
    }
    if (config_.idle_timeout_ms > 0) {
      conn->last_activity_ns = telemetry::MonotonicNanos();
      net.wheel.Schedule(IdleTimerId(conn->id),
                         conn->last_activity_ns +
                             static_cast<int64_t>(config_.idle_timeout_ms) *
                                 1'000'000);
    }
    net.conns.emplace(conn->id, std::move(conn));
  }
}

void Server::ProcessCompletions(NetThread& net) {
  std::vector<std::unique_ptr<RequestBatch>> done;
  {
    std::lock_guard<std::mutex> lock(net.mutex);
    done.swap(net.completions);
  }
  Instruments& ins = *instruments_;
  for (auto& batch : done) {
    auto it = net.conns.find(batch->conn_id);
    // The connection may have died (EPOLLHUP, reset) while its batch was
    // executing; the orphaned responses are simply dropped with the batch.
    if (it == net.conns.end()) continue;
    Connection& conn = *it->second;
    const int64_t flush_start_ns = telemetry::MonotonicNanos();
    conn.last_activity_ns = flush_start_ns;
    conn.out_buf.append(batch->responses);
    conn.executing = false;
    if (!conn.pending_error.empty()) {
      // The decode error that followed this batch's frames: error frame
      // goes out after the answers it owes, then the connection closes.
      conn.out_buf.append(conn.pending_error);
      conn.pending_error.clear();
      conn.closing = true;
    }
    if (!FlushWrites(net, conn)) continue;
    ins.RecordFlushed(batch->requests, batch->arrival_ns, flush_start_ns);
    if (!conn.closing) {
      UpdateInterest(net, conn);
      DecodeAndSubmit(net, conn);  // Frames that arrived behind the batch.
    }
  }
}

void Server::HandleReadable(NetThread& net, Connection& conn) {
  if (conn.executing || conn.closing || conn.peer_closed ||
      draining_.load(std::memory_order_acquire)) {
    return;
  }
  if (conn.in_buf.empty()) conn.arrival_ns = telemetry::MonotonicNanos();
  char buf[65536];
  size_t total = 0;
  bool fatal = false;
  while (total < kMaxReadPerEvent) {
    const ssize_t n = sock_->Recv(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.in_buf.append(buf, static_cast<size_t>(n));
      total += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      conn.peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    fatal = true;  // ECONNRESET and friends.
    break;
  }
  Bump(instruments_->bytes_read, total);
  if (total > 0 && config_.idle_timeout_ms > 0) {
    conn.last_activity_ns = telemetry::MonotonicNanos();
  }
  if (fatal) {
    CloseConnection(net, conn.id, CloseReason::kNormal);
    return;
  }
  DecodeAndSubmit(net, conn);
}

void Server::DecodeAndSubmit(NetThread& net, Connection& conn) {
  if (conn.executing || conn.closing) return;
  Instruments& ins = *instruments_;
  const size_t batch_cap = config_.max_requests_per_batch;
  bool decode_error = false;
  // Outer loop: one decoded GROUP per iteration. A group that the queue
  // admits becomes the connection's in-flight batch and we return; a group
  // that runs inline, or that admission control refuses (shed wholesale:
  // per-request kOverloaded frames appended in order), is answered on the
  // spot and we decode the next group, so complete frames never sit in
  // in_buf with nothing scheduled to revisit them (level-triggered epoll
  // only re-reports SOCKET bytes).
  while (true) {
    std::vector<Request> requests;
    std::string_view view(conn.in_buf.data() + conn.in_off,
                          conn.in_buf.size() - conn.in_off);
    const int64_t decode_ns = telemetry::MonotonicNanos();
    while (!view.empty()) {
      if (batch_cap != 0 && requests.size() >= batch_cap) break;
      Request request;
      size_t consumed = 0;
      ErrorCode code = ErrorCode::kBadFrame;
      std::string message;
      const DecodeStatus status =
          DecodeRequest(view, &request, &consumed, &code, &message);
      if (status == DecodeStatus::kNeedMore) break;
      if (status == DecodeStatus::kError) {
        Bump(ins.protocol_errors);
        // request_id 0: the id of a frame that failed to decode is
        // untrusted.
        AppendErrorResponse(0, code, message, &conn.pending_error);
        decode_error = true;
        break;
      }
      if (request.op == Opcode::kDeadline) {
        // Connection-level directive, applied immediately so it governs
        // every following request — including the rest of this group.
        uint32_t effective = request.budget_ms;
        if (effective > config_.max_deadline_ms) {
          effective = config_.max_deadline_ms;
        }
        conn.deadline_ms = effective;
        request.budget_ms = effective;  // Echoed in the kDeadlineAck.
      } else if (conn.deadline_ms != 0) {
        request.deadline_ns =
            decode_ns + static_cast<int64_t>(conn.deadline_ms) * 1'000'000;
      }
      requests.push_back(std::move(request));
      view.remove_prefix(consumed);
      conn.in_off += consumed;
    }
    if (conn.in_off > 0) {
      conn.in_buf.erase(0, conn.in_off);
      conn.in_off = 0;
    }
    if (requests.empty()) break;

    if (RunsInline(requests)) {
      // The reader pool is idle, so queueing would only add a futex wake,
      // an eventfd wake back and an EPOLLIN park/re-arm to this group.
      RecordNs(ins.stage_decode, decode_ns - conn.arrival_ns);
      Bump(ins.batches);
      Bump(ins.inline_batches);
      const int64_t flush_start_ns =
          ExecuteRequests(net.reader, &net.scratch, requests,
                          telemetry::MonotonicNanos(), &conn.out_buf);
      // A decode error behind these frames: the tail below appends the
      // error frame after their answers and flushes both.
      if (decode_error) break;
      if (!FlushWrites(net, conn)) return;
      ins.RecordFlushed(requests, conn.arrival_ns, flush_start_ns);
      continue;
    }

    // Admission control. The watermark sheds early (before the queue is
    // outright full); TryPush failure is the no-watermark backstop. Either
    // way the net thread NEVER blocks on the queue.
    bool shed = config_.shed_occupancy_watermark > 0 &&
                queue_->size() >= config_.shed_occupancy_watermark;
    if (!shed) {
      RecordNs(ins.stage_decode, decode_ns - conn.arrival_ns);
      auto batch = std::make_unique<RequestBatch>();
      batch->conn_id = conn.id;
      batch->net_thread = net.index;
      batch->requests = std::move(requests);
      batch->arrival_ns = conn.arrival_ns;
      batch->enqueue_ns = decode_ns;
      conn.executing = true;
      reader_batches_.fetch_add(1, std::memory_order_relaxed);
      if (queue_->TryPush(batch)) {
        Bump(ins.batches);
        UpdateInterest(net, conn);
        // A decode error behind valid frames waits in pending_error; the
        // completion path appends it after the answers and closes.
        return;
      }
      conn.executing = false;
      reader_batches_.fetch_sub(1, std::memory_order_relaxed);
      requests = std::move(batch->requests);  // Reclaim for the shed path.
      shed = true;
    }
    if (shed) {
      for (const Request& request : requests) {
        if (request.op == Opcode::kDeadline) {
          // The directive already took effect at decode; only the ack is
          // owed, and the net thread can write it without the index.
          AppendDeadlineAckResponse(request.request_id, request.budget_ms,
                                    &conn.out_buf);
        } else {
          AppendErrorResponse(request.request_id, ErrorCode::kOverloaded,
                              "shed: server overloaded", &conn.out_buf);
          Bump(ins.shed_requests);
        }
      }
    }
    if (decode_error) break;
  }

  if (decode_error) {
    conn.out_buf.append(conn.pending_error);
    conn.pending_error.clear();
    conn.closing = true;
  }
  if (!FlushWrites(net, conn)) return;
  UpdateInterest(net, conn);
}

bool Server::FlushWrites(NetThread& net, Connection& conn) {
  size_t written = 0;
  while (conn.out_off < conn.out_buf.size()) {
    const ssize_t n =
        sock_->Send(conn.fd, conn.out_buf.data() + conn.out_off,
                    conn.out_buf.size() - conn.out_off);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    Bump(instruments_->bytes_written, written);
    CloseConnection(net, conn.id, CloseReason::kNormal);
    return false;
  }
  Bump(instruments_->bytes_written, written);
  const bool stall_reaper = config_.write_stall_timeout_ms > 0;
  if (written > 0 && (stall_reaper || config_.idle_timeout_ms > 0)) {
    const int64_t now_ns = telemetry::MonotonicNanos();
    conn.last_write_progress_ns = now_ns;
    conn.last_activity_ns = now_ns;
  }
  if (conn.out_off >= conn.out_buf.size()) {
    conn.out_buf.clear();
    conn.out_off = 0;
    if (conn.closing ||
        ((conn.peer_closed ||
          draining_.load(std::memory_order_acquire)) &&
         !conn.executing && !HasPendingFrame(conn))) {
      const CloseReason reason = (conn.closing || conn.peer_closed)
                                     ? CloseReason::kNormal
                                     : CloseReason::kDrain;
      CloseConnection(net, conn.id, reason);
      return false;
    }
  } else {
    const size_t backlog = conn.out_buf.size() - conn.out_off;
    if (config_.max_write_buffer_bytes > 0 &&
        backlog > config_.max_write_buffer_bytes) {
      // The peer is reading slower than it queries (or not at all):
      // dropping it bounds our memory — the protocol has no way to
      // un-send half a frame anyway.
      CloseConnection(net, conn.id, CloseReason::kSlowClient);
      return false;
    }
    if (stall_reaper && !conn.write_stall_armed) {
      const int64_t now_ns = telemetry::MonotonicNanos();
      if (conn.last_write_progress_ns == 0) {
        conn.last_write_progress_ns = now_ns;
      }
      net.wheel.Schedule(
          StallTimerId(conn.id),
          now_ns +
              static_cast<int64_t>(config_.write_stall_timeout_ms) *
                  1'000'000);
      conn.write_stall_armed = true;
    }
  }
  UpdateInterest(net, conn);
  return true;
}

bool Server::HasPendingFrame(const Connection& conn) {
  const size_t avail = conn.in_buf.size() - conn.in_off;
  if (avail < kLengthPrefixBytes) return false;
  uint32_t length;
  std::memcpy(&length, conn.in_buf.data() + conn.in_off, sizeof(length));
  // A garbage length will fail decode with a connection-fatal error the
  // moment it is looked at; "pending" only needs to cover frames a drain
  // or EOF close would otherwise silently drop.
  if (length > kMaxFrameBytes) return true;
  return avail >= kLengthPrefixBytes + length;
}

void Server::UpdateInterest(NetThread& net, Connection& conn) {
  uint32_t want = 0;
  if (!conn.executing && !conn.closing && !conn.peer_closed &&
      !draining_.load(std::memory_order_acquire)) {
    want |= EPOLLIN;
  }
  if (conn.out_off < conn.out_buf.size()) want |= EPOLLOUT;
  if (want == conn.interest) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn.id;
  ::epoll_ctl(net.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.interest = want;
}

void Server::AdvanceTimers(NetThread& net) {
  const int64_t now_ns = telemetry::MonotonicNanos();
  net.wheel.Advance(now_ns, [&](uint64_t timer_id) {
    const uint64_t conn_id = timer_id >> 1;
    auto it = net.conns.find(conn_id);
    if (it == net.conns.end()) return;
    Connection& conn = *it->second;
    if (timer_id == StallTimerId(conn_id)) {
      conn.write_stall_armed = false;
      if (conn.out_off >= conn.out_buf.size()) return;  // Drained meanwhile.
      const int64_t stall_deadline =
          conn.last_write_progress_ns +
          static_cast<int64_t>(config_.write_stall_timeout_ms) * 1'000'000;
      if (now_ns < stall_deadline) {
        net.wheel.Schedule(timer_id, stall_deadline);
        conn.write_stall_armed = true;
        return;
      }
      CloseConnection(net, conn_id, CloseReason::kWriteStall);
      return;
    }
    // Idle timer: lazy check against the last recorded activity — the hot
    // path only stamps a timestamp, never touches the wheel.
    const int64_t idle_deadline =
        conn.last_activity_ns +
        static_cast<int64_t>(config_.idle_timeout_ms) * 1'000'000;
    if (conn.executing || conn.out_off < conn.out_buf.size() ||
        now_ns < idle_deadline) {
      net.wheel.Schedule(timer_id, now_ns < idle_deadline
                                       ? idle_deadline
                                       : now_ns +
                                             static_cast<int64_t>(
                                                 config_.idle_timeout_ms) *
                                                 1'000'000);
      return;
    }
    CloseConnection(net, conn_id, CloseReason::kIdle);
  });
}

void Server::DrainSweep(NetThread& net) {
  // Snapshot ids first: DecodeAndSubmit / FlushWrites may erase from conns.
  std::vector<uint64_t> ids;
  ids.reserve(net.conns.size());
  for (const auto& [id, conn] : net.conns) ids.push_back(id);
  for (const uint64_t id : ids) {
    auto it = net.conns.find(id);
    if (it == net.conns.end()) continue;
    Connection& conn = *it->second;
    if (conn.executing) {
      UpdateInterest(net, conn);  // Park EPOLLIN; close comes at completion.
      continue;
    }
    // Decodes any frames received before the drain began (submitting or
    // shedding them), flushes, and closes once nothing is owed.
    DecodeAndSubmit(net, conn);
  }
}

void Server::CloseConnection(NetThread& net, uint64_t conn_id,
                             CloseReason reason) {
  auto it = net.conns.find(conn_id);
  if (it == net.conns.end()) return;
  switch (reason) {
    case CloseReason::kIdle:
      Bump(instruments_->timeout_closed_idle);
      break;
    case CloseReason::kWriteStall:
      Bump(instruments_->timeout_closed_write_stall);
      break;
    case CloseReason::kSlowClient:
      Bump(instruments_->slow_client_closed);
      break;
    case CloseReason::kDrain:
      Bump(instruments_->drain_closed);
      break;
    case CloseReason::kNormal:
      break;
  }
  net.wheel.Cancel(IdleTimerId(conn_id));
  net.wheel.Cancel(StallTimerId(conn_id));
  ::close(it->second->fd);
  net.conns.erase(it);
  instruments_->ConnectionClosed();
}

}  // namespace corrtrack::net
