// Open-loop wire load generator of the end-to-end benchmark: one thread
// drives a few pipelined loopback connections to a net::Server with the
// binary protocol's public encoders and decoders. Requests fall due on a
// fixed schedule that does not slow down when the server does; each one
// is timed from its due time to its decoded response, and how late it was
// sent is tracked.
#ifndef CORRTRACK_E2EBENCH_LOADGEN_H_
#define CORRTRACK_E2EBENCH_LOADGEN_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "core/tagset.h"
#include "core/types.h"
#include "net/protocol.h"
#include "serve/correlation_index.h"

namespace e2ebench {

using corrtrack::Timestamp;

/// One query of a workload's mix.
struct QuerySpec {
  enum class Kind : uint8_t { kTop, kLookup, kScan };
  Kind kind = Kind::kTop;
  corrtrack::TagId tag = 0;      // kTop.
  uint32_t k = 10;               // kTop.
  corrtrack::TagSet tags;        // kLookup.
  double min_jaccard = 0.5;      // kScan.
  uint32_t limit = 20;           // kScan.
};

inline constexpr size_t kNumQueryKinds = 4;  // top, lookup, scan, stats.
inline const char* QueryKindName(size_t kind) {
  static constexpr std::array<const char*, kNumQueryKinds> kNames = {
      "top", "lookup", "scan", "stats"};
  return kNames[kind];
}

/// Appends the request frame for `q`.
void EncodeQuery(const QuerySpec& q, uint32_t request_id, std::string* out);

/// Checks a mid-run answer for well-formedness: the expected response
/// kind, coefficients in [0, 1] sorted from highest, every TopCorrelated
/// set containing the queried tag, every scan entry at or above the
/// threshold. Per-request overload errors are failures, not malformed.
bool WellFormed(const QuerySpec& q, const corrtrack::net::Response& r);

/// One rate step of a run.
struct Phase {
  double rate = 0.0;       // Requests per second over all query connections.
  int64_t duration_ns = 0;
};

struct LoadgenConfig {
  uint16_t port = 0;
  int query_connections = 1;
  /// A separate connection that polls Stats while the generator runs
  /// (freshness probe).
  bool stats_probe = false;
  /// Run back to back; the ladder stops after the first phase that misses
  /// the limit.
  std::vector<Phase> phases;
  double p99_limit_us = 0.0;
  const std::vector<QuerySpec>* mix = nullptr;
};

struct PhaseResult {
  double rate = 0.0;
  std::vector<double> latency_us;  // +inf for failed requests.
  LatenessTracker lateness;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool met_limit = false;  // p99 within the limit and lateness not growing.
};

struct ProbeSample {
  int64_t answer_ns;
  Timestamp latest_period;
};

struct LoadgenResult {
  std::vector<PhaseResult> phases;
  std::array<uint64_t, kNumQueryKinds> attempted{};
  std::array<uint64_t, kNumQueryKinds> failed{};
  uint64_t malformed = 0;
  uint64_t writes = 0;             // write() calls carrying requests.
  uint64_t requests_written = 0;   // Requests those writes carried.
  std::vector<ProbeSample> probe;  // Each increase of latest_period seen.
  std::string error;               // Connection-level failure, if any.
};

/// Sizes `result` for `phases`: one PhaseResult each, with the latency
/// buffer of every request the phase will send allocated and written once.
/// Called before a run's peak-memory mark is reset, the generator's own
/// records then stay out of the measured peak whatever rungs run.
void PrepareResult(const std::vector<Phase>& phases, LoadgenResult* result);

/// Runs the configured phases back to back, starting at `start_ns`; after
/// the last phase keeps probing (when enabled) until `*stop` is set. The
/// newest period a probe answer carried is published in `*probe_latest`.
/// `result` must have been prepared for the phases (PrepareResult); phases
/// the ladder skipped are dropped from it. Returns false when it was not,
/// or when a connection could not be set up or failed.
bool RunLoadgen(const LoadgenConfig& config, int64_t start_ns,
                const std::atomic<bool>* stop,
                std::atomic<Timestamp>* probe_latest, LoadgenResult* result);

}  // namespace e2ebench

#endif  // CORRTRACK_E2EBENCH_LOADGEN_H_
