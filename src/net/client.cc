#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "core/fault_schedule.h"
#include "storage/retry.h"

namespace corrtrack::net {

namespace {

void SetSocketTimeout(int fd, int optname, int64_t ms) {
  if (ms <= 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv));
}

}  // namespace

Client::~Client() { Close(); }

bool Client::Connect(const std::string& host, uint16_t port) {
  Close();
  host_ = host;
  port_ = port;
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return Fail(std::string("socket: ") + strerror(errno), /*transient=*/true);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Fail("bad host '" + host + "' (dotted quad expected)");
  }
  // Non-blocking connect + poll: honours connect_timeout_ms and makes an
  // EINTR mid-handshake resumable (a blocking connect interrupted by a
  // signal cannot be safely re-issued).
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno != EINPROGRESS && errno != EINTR) {
      return Fail(std::string("connect: ") + strerror(errno),
                  /*transient=*/true);
    }
    const int timeout_ms = config_.connect_timeout_ms > 0
                               ? static_cast<int>(config_.connect_timeout_ms)
                               : -1;
    pollfd pfd{fd_, POLLOUT, 0};
    int ready;
    do {
      ready = ::poll(&pfd, 1, timeout_ms);
    } while (ready < 0 && errno == EINTR);
    if (ready <= 0) {
      return Fail(ready == 0 ? "connect: timed out"
                             : std::string("connect poll: ") + strerror(errno),
                  /*transient=*/true);
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) {
      return Fail(std::string("connect: ") + strerror(so_error),
                  /*transient=*/true);
    }
  }
  ::fcntl(fd_, F_SETFL, flags);
  SetSocketTimeout(fd_, SO_RCVTIMEO, config_.io_timeout_ms);
  SetSocketTimeout(fd_, SO_SNDTIMEO, config_.io_timeout_ms);
  // The unary path is one small frame per round-trip — exactly the shape
  // Nagle would hold back behind delayed ACKs.
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  send_buf_.clear();
  recv_buf_.clear();
  pending_ = 0;
  last_error_.clear();
  last_error_transient_ = false;
  return true;
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  send_buf_.clear();
  recv_buf_.clear();
  pending_ = 0;
}

bool Client::Fail(const std::string& message, bool transient) {
  last_error_ = message;
  last_error_transient_ = transient;
  Close();
  return false;
}

void Client::JitterSleep(int64_t ms) {
  // Seeded, so a retry schedule replays exactly in tests.
  const uint64_t roll = SplitMix64(config_.retry_seed ^ ++jitter_draws_);
  const double factor =
      0.5 + static_cast<double>(roll >> 11) * (1.0 / 9007199254740992.0);
  const int64_t jittered = static_cast<int64_t>(static_cast<double>(ms) *
                                                factor);
  if (config_.sleeper) {
    config_.sleeper(jittered);
  } else if (jittered > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(jittered));
  }
}

// ------------------------------------------------------------- pipelined

void Client::QueueTopCorrelated(TagId tag, uint32_t k) {
  AppendTopCorrelatedRequest(next_id_++, tag, k, &send_buf_);
  ++pending_;
}

void Client::QueueLookup(const TagSet& tags) {
  AppendLookupRequest(next_id_++, tags, &send_buf_);
  ++pending_;
}

void Client::QueueSnapshot(double min_jaccard, uint32_t limit) {
  AppendSnapshotRequest(next_id_++, min_jaccard, limit, &send_buf_);
  ++pending_;
}

void Client::QueuePing() {
  AppendPingRequest(next_id_++, &send_buf_);
  ++pending_;
}

void Client::QueueStats() {
  AppendStatsRequest(next_id_++, &send_buf_);
  ++pending_;
}

void Client::QueueDeadline(uint32_t budget_ms) {
  AppendDeadlineRequest(next_id_++, budget_ms, &send_buf_);
  ++pending_;
}

bool Client::Flush(std::vector<Response>* out) {
  if (out != nullptr) out->clear();
  if (fd_ < 0) return Fail("not connected");
  const size_t expect = pending_;
  pending_ = 0;
  std::string frames = std::move(send_buf_);
  send_buf_.clear();
  size_t off = 0;
  while (off < frames.size()) {
    const ssize_t n =
        sock()->Send(fd_, frames.data() + off, frames.size() - off);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (config_.io_timeout_ms > 0) {
        // SO_SNDTIMEO expired. off > 0 means part of the batch is on the
        // wire — NOT safe to replay.
        return Fail("send: timed out", /*transient=*/off == 0);
      }
      continue;  // Spurious EAGAIN (fault injection); blocking send retries.
    }
    // n == 0 should be impossible for send(); treat it as a broken socket
    // rather than spinning.
    return Fail(n == 0 ? "send: returned 0"
                       : std::string("send: ") + strerror(errno),
                /*transient=*/off == 0);
  }
  return ReadResponses(expect, out);
}

bool Client::ReadResponses(size_t count, std::vector<Response>* out) {
  size_t received = 0;
  char buf[65536];
  while (received < count) {
    // Decode everything already buffered before reading more.
    bool progressed = true;
    while (progressed && received < count) {
      Response response;
      size_t consumed = 0;
      std::string error;
      const DecodeStatus status =
          DecodeResponse(recv_buf_, &response, &consumed, &error);
      switch (status) {
        case DecodeStatus::kOk:
          recv_buf_.erase(0, consumed);
          if (response.op == Opcode::kError &&
              !IsPerRequestError(response.error_code)) {
            // Connection-fatal family: the server closes after this frame.
            // The per-request family (kOverloaded/kDeadlineExceeded) flows
            // through as a normal response with the connection intact.
            return Fail("server error: " + response.error_message);
          }
          ++received;
          if (out != nullptr) out->push_back(std::move(response));
          break;
        case DecodeStatus::kNeedMore:
          progressed = false;
          break;
        case DecodeStatus::kError:
          return Fail("protocol error: " + error);
      }
    }
    if (received >= count) break;
    const ssize_t n = sock()->Recv(fd_, buf, sizeof(buf));
    if (n > 0) {
      recv_buf_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (config_.io_timeout_ms > 0) return Fail("recv: timed out");
      continue;  // Spurious EAGAIN (fault injection); blocking recv retries.
    }
    if (n == 0) return Fail("connection closed mid-response");
    return Fail(std::string("recv: ") + strerror(errno));
  }
  return true;
}

// ----------------------------------------------------------------- unary

bool Client::RunUnary(const char* what,
                      const std::function<void()>& queue_one, Opcode expect,
                      Response* out) {
  storage::RetryPolicy policy;
  policy.max_attempts = config_.max_attempts > 1 ? config_.max_attempts : 1;
  policy.base_backoff_ms = config_.base_backoff_ms;
  policy.sleeper = [this](int ms) { JitterSleep(ms); };
  Response response;
  const storage::Status status =
      storage::RetryOp(policy, &retries_, [&]() -> storage::Status {
        if (fd_ < 0) {
          // A previous transient failure closed the socket; unary calls
          // are read-only queries, so reconnect-and-replay is safe.
          if (host_.empty() || !Connect(host_, port_)) {
            return storage::Status::Unavailable("reconnect: " + last_error_);
          }
        }
        queue_one();
        std::vector<Response> responses;
        if (!Flush(&responses)) {
          return last_error_transient_
                     ? storage::Status::Unavailable(last_error_)
                     : storage::Status::IOError(last_error_);
        }
        if (responses.size() != 1) {
          Close();
          return storage::Status::IOError(
              std::string("unexpected response count to ") + what);
        }
        if (responses[0].op == Opcode::kError) {
          // Shed by admission control: transient by definition — back off
          // and retry. A deadline miss is not retried (the same budget
          // would very likely expire again).
          const std::string message =
              std::string(what) + ": " + responses[0].error_message;
          return responses[0].error_code == ErrorCode::kOverloaded
                     ? storage::Status::Unavailable(message)
                     : storage::Status::IOError(message);
        }
        if (responses[0].op != expect) {
          Close();
          return storage::Status::IOError(
              std::string("unexpected response to ") + what);
        }
        response = std::move(responses[0]);
        return storage::Status::OK();
      });
  if (!status.ok()) {
    last_error_ = status.message();
    last_error_transient_ = status.IsTransient();
    return false;
  }
  if (out != nullptr) *out = std::move(response);
  return true;
}

bool Client::TopCorrelated(TagId tag, uint32_t k,
                           std::vector<serve::ScoredSet>* out) {
  Response response;
  if (!RunUnary("TopCorrelated",
                [&] { QueueTopCorrelated(tag, k); }, Opcode::kScoredSets,
                &response)) {
    return false;
  }
  *out = std::move(response.scored);
  return true;
}

bool Client::Lookup(const TagSet& tags,
                    std::optional<serve::LookupResult>* out) {
  Response response;
  if (!RunUnary("Lookup", [&] { QueueLookup(tags); }, Opcode::kLookupResult,
                &response)) {
    return false;
  }
  *out = response.lookup;
  return true;
}

bool Client::Snapshot(double min_jaccard, uint32_t limit,
                      std::vector<serve::ScoredSet>* out) {
  Response response;
  if (!RunUnary("Snapshot",
                [&] { QueueSnapshot(min_jaccard, limit); },
                Opcode::kSnapshotSets, &response)) {
    return false;
  }
  *out = std::move(response.scored);
  return true;
}

bool Client::Ping() {
  return RunUnary("Ping", [&] { QueuePing(); }, Opcode::kPong, nullptr);
}

bool Client::Stats(StatsResult* out) {
  Response response;
  if (!RunUnary("Stats", [&] { QueueStats(); }, Opcode::kStatsResult,
                &response)) {
    return false;
  }
  *out = response.stats;
  return true;
}

bool Client::SetDeadline(uint32_t budget_ms, uint32_t* effective_ms) {
  Response response;
  if (!RunUnary("SetDeadline", [&] { QueueDeadline(budget_ms); },
                Opcode::kDeadlineAck, &response)) {
    return false;
  }
  if (effective_ms != nullptr) {
    *effective_ms = response.effective_deadline_ms;
  }
  return true;
}

// ------------------------------------------------------------------- raw

bool Client::SendRaw(std::string_view bytes) {
  if (fd_ < 0) return Fail("not connected");
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        sock()->Send(fd_, bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
        config_.io_timeout_ms <= 0) {
      continue;
    }
    return Fail(n == 0 ? "send: returned 0"
                       : std::string("send: ") + strerror(errno),
                /*transient=*/off == 0);
  }
  return true;
}

std::string Client::ReadUntilClose(size_t max_bytes) {
  std::string bytes = std::move(recv_buf_);
  recv_buf_.clear();
  char buf[65536];
  while (fd_ >= 0 && bytes.size() < max_bytes) {
    const ssize_t n = sock()->Recv(fd_, buf, sizeof(buf));
    if (n > 0) {
      bytes.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF, timeout or error: the server hung up, as expected.
  }
  return bytes;
}

}  // namespace corrtrack::net
