#ifndef CORRTRACK_NET_SOCKET_OPS_H_
#define CORRTRACK_NET_SOCKET_OPS_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>

#include "core/fault_schedule.h"

namespace corrtrack::net {

/// Socket I/O indirection: the server and client route every recv/send
/// through a SocketOps so the chaos tests can interpose deterministic
/// faults on the byte stream — the serving-path twin of
/// storage::FaultInjectingStorage. The default instance forwards straight
/// to the syscalls; production code never pays more than one virtual call
/// per (already syscall-priced) I/O operation.
class SocketOps {
 public:
  virtual ~SocketOps() = default;

  /// recv(fd, buf, len, 0) semantics: bytes read, 0 on EOF, -1 with errno.
  virtual ssize_t Recv(int fd, void* buf, size_t len);

  /// send(fd, buf, len, MSG_NOSIGNAL) semantics.
  virtual ssize_t Send(int fd, const void* buf, size_t len);

  /// The process-wide pass-through instance (used whenever a config leaves
  /// its socket_ops null).
  static SocketOps* Real();
};

/// The fault classes the injecting decorator can impose on one I/O call.
/// Two families, mirroring storage::FaultKind's split:
///  * transparent faults (kShortRead, kShortWrite, kEintrRead, kEintrWrite,
///    kEagainRead, kEagainWrite) — no byte is ever lost or duplicated, so a
///    CORRECT caller retries/continues and the answers stay bit-identical;
///    a caller with a broken partial-I/O loop corrupts or hangs, which is
///    exactly what the chaos matrix hunts.
///  * connection-fatal faults (kResetRead, kResetWrite, kPipeWrite) — the
///    operation reports a dead peer; the contract under test is
///    containment: one connection dies cleanly, everything else keeps
///    serving.
enum class SocketFaultKind : uint8_t {
  kNone = 0,
  kShortRead,    ///< Recv is truncated to 1 byte (rest stays buffered).
  kShortWrite,   ///< Send writes only the first byte (rest stays owed).
  kEintrRead,    ///< Recv fails EINTR without consuming anything.
  kEintrWrite,   ///< Send fails EINTR without writing anything.
  kEagainRead,   ///< Recv fails EAGAIN (spurious readiness).
  kEagainWrite,  ///< Send fails EAGAIN (full socket buffer).
  kResetRead,    ///< Recv fails ECONNRESET.
  kResetWrite,   ///< Send fails ECONNRESET.
  kPipeWrite,    ///< Send fails EPIPE (peer closed its read side).
};

inline constexpr int kNumSocketFaultKinds = 10;

inline const char* SocketFaultKindName(SocketFaultKind kind) {
  switch (kind) {
    case SocketFaultKind::kNone:
      return "none";
    case SocketFaultKind::kShortRead:
      return "short_read";
    case SocketFaultKind::kShortWrite:
      return "short_write";
    case SocketFaultKind::kEintrRead:
      return "eintr_read";
    case SocketFaultKind::kEintrWrite:
      return "eintr_write";
    case SocketFaultKind::kEagainRead:
      return "eagain_read";
    case SocketFaultKind::kEagainWrite:
      return "eagain_write";
    case SocketFaultKind::kResetRead:
      return "reset_read";
    case SocketFaultKind::kResetWrite:
      return "reset_write";
    case SocketFaultKind::kPipeWrite:
      return "pipe_write";
  }
  return "unknown";
}

/// The seeded socket fault schedule (core/fault_schedule.h), shared with
/// storage::FaultPlan. The decorator numbers every Recv and Send across
/// all fds; a rule's `repeat` covers EAGAIN storms.
using SocketFaultRule = FaultRule<SocketFaultKind>;
using SocketFaultPlan = FaultSchedule<SocketFaultKind, kNumSocketFaultKinds>;
using SocketFaultStats = FaultStats<SocketFaultKind, kNumSocketFaultKinds>;

/// Decorator imposing the seeded schedule on real socket I/O. Concurrent
/// connections share one schedule (thread-safety and replay guarantees:
/// FaultInjector).
class FaultInjectingSocketOps : public SocketOps {
 public:
  explicit FaultInjectingSocketOps(SocketFaultPlan plan);

  ssize_t Recv(int fd, void* buf, size_t len) override;
  ssize_t Send(int fd, const void* buf, size_t len) override;

  SocketFaultStats stats() const { return faults_.stats(); }
  uint64_t ops() const { return faults_.ops(); }

 private:
  FaultInjector<SocketFaultKind, kNumSocketFaultKinds> faults_;
};

}  // namespace corrtrack::net

#endif  // CORRTRACK_NET_SOCKET_OPS_H_
