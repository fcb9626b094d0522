#ifndef CORRTRACK_STORAGE_RETRY_H_
#define CORRTRACK_STORAGE_RETRY_H_

#include <cstdint>
#include <functional>

#include "storage/status.h"

namespace corrtrack::storage {

/// Retry policy for transient (StatusCode::kUnavailable) storage errors.
/// Attempt n sleeps base_backoff_ms * 2^(n-1) ms (saturated at INT_MAX)
/// before retrying; permanent errors never retry. `sleeper` is injectable so the fault-matrix tests
/// run without wall-clock sleeps.
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
