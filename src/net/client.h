#ifndef CORRTRACK_NET_CLIENT_H_
#define CORRTRACK_NET_CLIENT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/socket_ops.h"
#include "serve/correlation_index.h"

namespace corrtrack::net {

struct ClientConfig {
  /// Socket receive/send timeout (SO_RCVTIMEO/SO_SNDTIMEO). A blocking
  /// call that makes no progress for this long fails the operation with
  /// "timed out" instead of hanging the caller forever against a stalled
  /// or overloaded server. 0 = no timeout.
  int64_t io_timeout_ms = 0;

  /// Connect() budget, enforced with a non-blocking connect + poll.
  /// 0 = the kernel default (minutes of SYN retries).
  int64_t connect_timeout_ms = 0;

  /// Unary-call retry budget, executed through the storage RetryOp
  /// taxonomy: only TRANSIENT failures retry (connect refused/reset,
  /// send failures before any byte left, kOverloaded responses). A flush
  /// that failed after part of the batch was sent is never retried —
  /// the protocol cannot un-send half a frame. 1 = no retries.
  int max_attempts = 1;

  /// Backoff before retry n is base_backoff_ms * 2^(n-1), clamped at
  /// storage::kMaxBackoffMs, scaled by a seeded jitter factor in
  /// [0.5, 1.5) so a herd of retrying clients does not re-converge on the
  /// same instant.
  int base_backoff_ms = 5;
  uint64_t retry_seed = 0;

  /// Injectable sleep for the backoff — the retry tests run sleepless.
  /// Default: std::this_thread::sleep_for.
  std::function<void(int64_t ms)> sleeper;

  /// Socket I/O indirection: null uses the real recv/send. The chaos
  /// tests inject a FaultInjectingSocketOps to prove the client survives
  /// short writes, EINTR storms and mid-stream resets.
  SocketOps* socket_ops = nullptr;
};

/// Blocking client for the binary serving protocol — the consumer side used
/// by the tests, the loopback differential suite and the load generator.
/// Not thread-safe: one Client per thread (the connection is the unit of
/// pipelining, like the server's per-connection batching).
///
/// Two usage shapes:
///  * Unary: TopCorrelated/Lookup/Snapshot/Ping/Stats/SetDeadline — one
///    request, one syscall round-trip, retried per ClientConfig (every
///    unary op is a read-only query, so retry is safe). This is the
///    "batching off" arm of the A/B.
///  * Pipelined: Queue* any number of requests, then Flush() — ONE write
///    carrying every frame, then responses read back in request order.
///    This is the "batching on" arm: the server decodes the whole burst in
///    one readiness event, executes it as one batch and answers with one
///    coalesced write. Flush never retries on its own: a failed flush may
///    have half-sent the batch, and replaying it is the caller's decision
///    (check last_error_transient() — false means bytes may have landed).
///
/// Overload errors: a kOverloaded / kDeadlineExceeded frame is a normal
/// PER-REQUEST response — Flush returns it in `out` (op == kError,
/// IsPerRequestError(error_code)) with the connection intact. Any other
/// kError fails the call and closes, matching the server's
/// connection-fatal semantics.
///
/// All methods return false on connection/protocol failure with
/// last_error() set; the connection is closed and must be Re-Connect()ed.
class Client {
 public:
  Client() = default;
  explicit Client(const ClientConfig& config) : config_(config) {}
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  // Unary calls.
  bool TopCorrelated(TagId tag, uint32_t k, std::vector<serve::ScoredSet>* out);
  bool Lookup(const TagSet& tags, std::optional<serve::LookupResult>* out);
  bool Snapshot(double min_jaccard, uint32_t limit,
                std::vector<serve::ScoredSet>* out);
  bool Ping();
  bool Stats(StatsResult* out);

  /// Proposes a per-request deadline budget for every following request on
  /// this connection (0 clears). The server clamps to its maximum;
  /// `*effective_ms` (optional) receives the acknowledged value.
  bool SetDeadline(uint32_t budget_ms, uint32_t* effective_ms = nullptr);

  // Pipelined calls: stage frames, then Flush.
  void QueueTopCorrelated(TagId tag, uint32_t k);
  void QueueLookup(const TagSet& tags);
  void QueueSnapshot(double min_jaccard, uint32_t limit);
  void QueuePing();
  void QueueStats();
  void QueueDeadline(uint32_t budget_ms);
  size_t pending() const { return pending_; }

  /// Writes every staged frame in one burst and reads exactly one response
  /// per staged request, in order, into `*out` (cleared first). `out` may
  /// be nullptr to discard (loadgen warm-up). Per-request error frames
  /// (kOverloaded/kDeadlineExceeded) come back as responses; any other
  /// kError fails the flush (the server closes after sending it).
  bool Flush(std::vector<Response>* out);

  /// Sends raw bytes as-is — the protocol-robustness tests use this to
  /// probe the server with malformed frames. Returns false on send failure.
  bool SendRaw(std::string_view bytes);

  /// Reads until the peer closes (or `max_bytes` arrive); returns the raw
  /// bytes. Used to observe error frames and connection teardown.
  std::string ReadUntilClose(size_t max_bytes = 1 << 20);

  const std::string& last_error() const { return last_error_; }

  /// Whether the last failure is safe to retry from scratch: the request
  /// provably never reached the server (or was answered kOverloaded).
  /// False after half-sent batches, protocol errors and mid-response
  /// failures.
  bool last_error_transient() const { return last_error_transient_; }

  /// Transient-failure retries performed by the unary calls (cumulative).
  uint64_t retries() const { return retries_; }

 private:
  bool Fail(const std::string& message, bool transient = false);
  bool ReadResponses(size_t count, std::vector<Response>* out);
  bool RunUnary(const char* what, const std::function<void()>& queue_one,
                Opcode expect, Response* out);
  void JitterSleep(int64_t ms);
  SocketOps* sock() const {
    return config_.socket_ops != nullptr ? config_.socket_ops
                                         : SocketOps::Real();
  }

  ClientConfig config_;
  int fd_ = -1;
  uint32_t next_id_ = 1;
  size_t pending_ = 0;
  std::string host_;   // Remembered for unary-retry reconnects.
  uint16_t port_ = 0;
  std::string send_buf_;
  std::string recv_buf_;
  std::string last_error_;
  bool last_error_transient_ = false;
  uint64_t retries_ = 0;
  uint64_t jitter_draws_ = 0;
};

}  // namespace corrtrack::net

#endif  // CORRTRACK_NET_CLIENT_H_
