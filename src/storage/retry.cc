#include "storage/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace corrtrack::storage {

Status RetryOp(const RetryPolicy& policy, uint64_t* retries,
               const std::function<Status()>& op) {
  const int attempts = std::max(1, policy.max_attempts);
  Status status;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    status = op();
    if (status.ok() || !status.IsTransient()) return status;
    if (attempt == attempts) break;
    if (retries != nullptr) ++*retries;
    const int backoff_ms = policy.base_backoff_ms << (attempt - 1);
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
