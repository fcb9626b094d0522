#include "net/socket_ops.h"

#include <sys/socket.h>

#include <cerrno>
#include <utility>

namespace corrtrack::net {

namespace {

bool IsReadKind(SocketFaultKind kind) {
  switch (kind) {
    case SocketFaultKind::kShortRead:
    case SocketFaultKind::kEintrRead:
    case SocketFaultKind::kEagainRead:
    case SocketFaultKind::kResetRead:
      return true;
    default:
      return false;
  }
}

}  // namespace

ssize_t SocketOps::Recv(int fd, void* buf, size_t len) {
  return ::recv(fd, buf, len, 0);
}

ssize_t SocketOps::Send(int fd, const void* buf, size_t len) {
  return ::send(fd, buf, len, MSG_NOSIGNAL);
}

SocketOps* SocketOps::Real() {
  static SocketOps real;
  return &real;
}

FaultInjectingSocketOps::FaultInjectingSocketOps(SocketFaultPlan plan)
    : faults_(std::move(plan)) {}

ssize_t FaultInjectingSocketOps::Recv(int fd, void* buf, size_t len) {
  switch (faults_.Next(IsReadKind)) {
    case SocketFaultKind::kShortRead:
      // Truncate the read to one byte; the rest stays in the kernel buffer,
      // so a correct caller simply takes more iterations to drain it.
      return ::recv(fd, buf, len < 1 ? len : 1, 0);
    case SocketFaultKind::kEintrRead:
      errno = EINTR;
      return -1;
    case SocketFaultKind::kEagainRead:
      // Spurious readiness: nothing is consumed. Level-triggered epoll
      // re-reports the fd, blocking callers see a retry/timeout.
      errno = EAGAIN;
      return -1;
    case SocketFaultKind::kResetRead:
      errno = ECONNRESET;
      return -1;
    default:
      return ::recv(fd, buf, len, 0);
  }
}

ssize_t FaultInjectingSocketOps::Send(int fd, const void* buf, size_t len) {
  switch (faults_.Next([](SocketFaultKind k) { return !IsReadKind(k); })) {
    case SocketFaultKind::kShortWrite:
      // Write only the first byte; the caller still owes the rest and must
      // continue from its own buffer — the classic partial-write trap.
      return ::send(fd, buf, len < 1 ? len : 1, MSG_NOSIGNAL);
    case SocketFaultKind::kEintrWrite:
      errno = EINTR;
      return -1;
    case SocketFaultKind::kEagainWrite:
      errno = EAGAIN;
      return -1;
    case SocketFaultKind::kResetWrite:
      errno = ECONNRESET;
      return -1;
    case SocketFaultKind::kPipeWrite:
      errno = EPIPE;
      return -1;
    default:
      return ::send(fd, buf, len, MSG_NOSIGNAL);
  }
}

}  // namespace corrtrack::net
