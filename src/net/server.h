#ifndef CORRTRACK_NET_SERVER_H_
#define CORRTRACK_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "net/shared_queue.h"
#include "net/socket_ops.h"
#include "serve/correlation_index.h"
#include "telemetry/registry.h"

namespace corrtrack::net {

struct ServerConfig {
  /// TCP port to listen on; 0 picks an ephemeral port (read it back with
  /// Server::port() — the tests and benches bind this way).
  uint16_t port = 0;

  /// Dotted-quad address to bind. Loopback by default: the in-repo
  /// consumers are the tests, benches and the loadgen example; a real
  /// deployment flips this to "0.0.0.0" explicitly.
  std::string bind_address = "127.0.0.1";

  /// Network threads: each owns an epoll instance and a disjoint set of
  /// connections (sockets are never shared across threads, so connection
  /// state needs no locks — the bolt discipline, applied to sockets).
  int num_net_threads = 1;

  /// Index reader threads: each executes decoded batches against its own
  /// CorrelationIndex::Reader (per-thread snapshot caches, lock-free
  /// steady-state reads).
  int num_reader_threads = 2;

  /// Shared-queue capacity backstop (see SharedQueue). Sized above any
  /// realistic connection count so producers never block the event loop.
  size_t queue_capacity = 4096;

  /// Per-readiness-event read budget: bytes drained from one socket before
  /// the loop moves on (fairness under pipelined flooding; level-triggered
  /// epoll re-delivers the rest).
  size_t max_read_per_event = 256 * 1024;

  // ------------------------------------------------ overload protection

  /// Ceiling on the per-request deadline budget a client may propose with
  /// a kDeadline directive; proposals above it are clamped and the clamp
  /// is echoed back in the kDeadlineAck. 0 disables deadlines entirely.
  uint32_t max_deadline_ms = 60'000;

  /// Deadline budget applied to connections that never proposed one.
  /// 0 (the default) means such requests never expire.
  uint32_t default_deadline_ms = 0;

  /// Admission-control watermark: when the shared queue holds at least
  /// this many batches, newly decoded request groups are shed with
  /// per-request kOverloaded errors instead of being enqueued. 0 sheds
  /// only when the queue is outright full (TryPush refuses) — the event
  /// loop never blocks on the queue either way.
  size_t shed_occupancy_watermark = 0;

  /// Cap on requests bundled into one batch. Oversized pipelined floods
  /// are split: the first `max_requests_per_batch` frames travel now, the
  /// rest stay buffered and follow when the batch completes. 0 = no cap.
  size_t max_requests_per_batch = 0;

  /// Hard cap on concurrently open connections; accepts beyond it are
  /// closed immediately (counted corrtrack_net_accept_rejected_total).
  /// 0 = unlimited.
  size_t max_connections = 0;

  /// Per-connection bound on buffered-but-unsent response bytes. A client
  /// that stops reading while responses pile up is closed (counted
  /// corrtrack_net_slow_client_closed_total) instead of growing the
  /// buffer without bound.
  size_t max_write_buffer_bytes = 64 * 1024 * 1024;

  /// Close connections with no inbound traffic and nothing in flight for
  /// this long. 0 disables the idle reaper.
  uint32_t idle_timeout_ms = 0;

  /// Close connections whose pending responses make no write progress for
  /// this long (slowloris containment). 0 disables the write-stall reaper.
  uint32_t write_stall_timeout_ms = 0;

  /// Socket I/O indirection: null uses the real recv/send. Tests inject a
  /// FaultInjectingSocketOps here to storm the serving path with short
  /// reads, EINTR, EAGAIN, resets and EPIPE.
  SocketOps* socket_ops = nullptr;

  /// Optional metrics sink: when set, the server registers and records the
  /// corrtrack_net_* instruments (socket-to-socket spans, per-op request
  /// counters, byte/connection counters, overload counters).
  telemetry::MetricRegistry* registry = nullptr;
};

/// The network serving front end over a CorrelationIndex: a non-blocking
/// epoll event loop speaking the length-prefixed binary protocol of
/// net/protocol.h.
///
/// Threading model (responder / shared-queue split, with an inline path):
///
///   accept -> [net thread: epoll, decode, flush]  x N
///                 |  RequestBatch (all frames drained in one readiness event)
///                 |
///                 +--> inline (small group, reader pool idle): the net
///                 |    thread's own Reader, encode, one write
///                 v
///            SharedQueue (bounded MPMC)
///                 |
///                 v
///            [reader thread: CorrelationIndex::Reader, encode]  x M
///                 |  completed batch (responses coalesced into one buffer)
///                 v
///            owning net thread (eventfd wake) -> one write per batch
///
/// Batching is the headline perf lever: every frame already sitting in the
/// socket when it turns readable travels the queue as ONE batch, is
/// executed by one reader thread, and comes back as ONE coalesced response
/// buffer flushed with one write — so a client pipelining d requests pays
/// ~2 syscalls and 2 queue hops per d requests instead of per request.
///
/// Inline path: a decoded group runs on the net thread itself, against the
/// net thread's own Reader, when all three hold — no batch is queued or
/// executing on any reader thread, the group has at most
/// kInlineMaxRequests requests, and it contains no Snapshot (whose full-
/// index scan grows with the index). A unary request then skips the futex
/// wake to a reader, the eventfd wake back and the EPOLLIN park/re-arm.
/// Every other group takes the queue path unchanged; since the inline path
/// only runs while no reader has work, overload behaviour (shedding,
/// deadline expiry at dequeue, batch splitting) is exactly the queue
/// path's.
///
/// Ordering and flow control: at most one batch per connection is in
/// flight (EPOLLIN is parked while it executes). Responses therefore come
/// back in request order per connection, and a connection can never flood
/// the queue faster than it drains.
///
/// Overload protection: admission is decided on the net thread at submit
/// time — a full (or watermarked) queue sheds the whole decoded group with
/// per-request kOverloaded frames rather than blocking the event loop, so
/// one saturated reader pool degrades into fast rejections, not stalled
/// epoll. Requests carry an absolute deadline stamped at decode (client
/// budget via the kDeadline directive, clamped to max_deadline_ms);
/// expired work is answered kDeadlineExceeded at reader dequeue without
/// touching the index. A per-net-thread timer wheel reaps idle and
/// write-stalled connections; a connection cap rejects at accept; a write
/// buffer cap closes clients that stop reading their responses.
///
/// Error containment: any decode error (bad length, unknown opcode,
/// malformed body) makes the connection answer one kError frame and close
/// — after any in-flight batch's responses flush. The index is never
/// touched by a malformed frame, and every buffer is reclaimed with the
/// connection (ASan-gated in CI). The per-request kOverloaded /
/// kDeadlineExceeded family, by contrast, leaves the connection open.
///
/// Lifetime: the index must outlive the server; Stop() (or the destructor)
/// joins every thread before returning.
class Server {
 public:
  Server(const serve::CorrelationIndex* index, const ServerConfig& config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the threads. False (with `*error` set) when
  /// the socket setup fails; the server is then inert and Stop is a no-op.
  bool Start(std::string* error);

  /// Stops accepting, drains in-flight batches, closes every connection
  /// and joins all threads. Idempotent.
  void Stop();

  /// Graceful shutdown: stops accepting, delivers every response owed to
  /// already-received requests, closes connections as they finish, then
  /// Stop()s. Connections still owing work when `deadline_ms` elapses are
  /// cut off by Stop. Returns true when everything drained in time.
  /// Idempotent with Stop; safe to call from a signal-handling thread.
  bool Drain(int64_t deadline_ms);

  /// The bound port (after a successful Start) — the ephemeral port when
  /// config.port was 0.
  uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Largest decoded group a net thread executes inline (see the class
  /// comment); larger groups always take the shared queue.
  static constexpr size_t kInlineMaxRequests = 4;

 private:
  struct Connection;
  struct RequestBatch;
  struct NetThread;
  struct Instruments;
  enum class CloseReason;

  void NetThreadMain(int thread_index);
  void ReaderThreadMain();

  /// Answers `requests` in order into `out`: expired deadlines (against
  /// `start_ns`) get kDeadlineExceeded without touching the index, the
  /// rest run on `reader`. Records the execute span and the per-op request
  /// counters; returns the time execution finished. Shared by reader
  /// threads (queued batches) and net threads (inline groups).
  int64_t ExecuteRequests(const serve::CorrelationIndex::Reader& reader,
                          std::vector<serve::ScoredSet>* scratch,
                          const std::vector<Request>& requests,
                          int64_t start_ns, std::string* out);
  /// The inline gate: small, Snapshot-free, and the reader pool idle.
  bool RunsInline(const std::vector<Request>& requests) const;

  // Event-loop helpers (called on the owning net thread only).
  void AcceptReady(NetThread& net);
  void AdoptIntake(NetThread& net);
  void ProcessCompletions(NetThread& net);
  void HandleReadable(NetThread& net, Connection& conn);
  void DecodeAndSubmit(NetThread& net, Connection& conn);
  /// Returns false when the flush closed the connection (fatal write error,
  /// write-buffer overrun, or an orderly close-after-drain) — `conn` is
  /// dead then.
  bool FlushWrites(NetThread& net, Connection& conn);
  /// True when in_buf holds at least one complete (or provably bad) frame
  /// — work a drain or EOF close must not silently drop.
  static bool HasPendingFrame(const Connection& conn);
  void UpdateInterest(NetThread& net, Connection& conn);
  void CloseConnection(NetThread& net, uint64_t conn_id, CloseReason reason);
  void AdvanceTimers(NetThread& net);
  void DrainSweep(NetThread& net);

  const serve::CorrelationIndex* index_;
  ServerConfig config_;
  SocketOps* sock_ = nullptr;
  std::unique_ptr<Instruments> instruments_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  bool started_ = false;

  std::vector<std::unique_ptr<NetThread>> net_threads_;
  std::vector<std::thread> reader_threads_;
  std::unique_ptr<SharedQueue<std::unique_ptr<RequestBatch>>> queue_;
  /// Batches queued or executing on a reader thread; 0 means the reader
  /// pool is idle and small groups may run inline.
  std::atomic<int> reader_batches_{0};
  std::atomic<uint64_t> next_conn_id_{16};  // Low ids are epoll sentinels.
  std::atomic<int> next_net_thread_{0};     // Round-robin accept dispatch.
};

}  // namespace corrtrack::net

#endif  // CORRTRACK_NET_SERVER_H_
