#ifndef CORRTRACK_STORAGE_RETRY_H_
#define CORRTRACK_STORAGE_RETRY_H_

#include <cstdint>
#include <functional>

#include "storage/status.h"

namespace corrtrack::storage {

/// Ceiling of one retry's backoff: a long chain (net::ClientConfig's
/// max_attempts feeds RetryOp) waits at most this long between attempts.
inline constexpr int kMaxBackoffMs = 2000;

/// Retry policy for transient (StatusCode::kUnavailable) storage errors.
/// Attempt n sleeps base_backoff_ms * 2^(n-1) ms, clamped at kMaxBackoffMs,
/// before retrying; permanent errors never retry. `sleeper` is injectable
/// so the fault-matrix tests run without wall-clock sleeps.
struct RetryPolicy {
  int max_attempts = 4;
  int base_backoff_ms = 5;
  std::function<void(int ms)> sleeper;  // Default: std::this_thread::sleep_for.
};

/// Runs `op` under `policy`, counting retries into `*retries` (may be
/// null). Returns the first permanent error, the last transient error when
/// attempts run out, or OK.
Status RetryOp(const RetryPolicy& policy, uint64_t* retries,
               const std::function<Status()>& op);

}  // namespace corrtrack::storage

#endif  // CORRTRACK_STORAGE_RETRY_H_
