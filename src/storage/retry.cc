#include "storage/retry.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

namespace corrtrack::storage {

namespace {

/// base_ms * 2^(attempt - 1), clamped at kMaxBackoffMs: a long retry chain
/// must neither sleep for days nor shift past the width of int (undefined
/// from 2^31 on, and a wrapped negative backoff would skip the sleep).
/// base_ms < 2^31 and a shift of at most 31 keep the product inside int64_t.
int BackoffMs(int base_ms, int attempt) {
  if (base_ms <= 0) return 0;
  const int64_t backoff = static_cast<int64_t>(base_ms)
                          << std::min(attempt - 1, 31);
  return static_cast<int>(std::min<int64_t>(backoff, kMaxBackoffMs));
}

}  // namespace

Status RetryOp(const RetryPolicy& policy, uint64_t* retries,
               const std::function<Status()>& op) {
  const int attempts = std::max(1, policy.max_attempts);
  Status status;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    status = op();
    if (status.ok() || !status.IsTransient()) return status;
    if (attempt == attempts) break;
    if (retries != nullptr) ++*retries;
    const int backoff_ms = BackoffMs(policy.base_backoff_ms, attempt);
    if (backoff_ms > 0) {
      if (policy.sleeper) {
        policy.sleeper(backoff_ms);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      }
    }
  }
  return status;
}

}  // namespace corrtrack::storage
