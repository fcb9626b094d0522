// Statistics shared by the end-to-end benchmark and its self-test:
// percentiles under the "at least ten samples beyond it" rule, open-loop
// due-time accounting, and span self time with nested spans.
#ifndef CORRTRACK_E2EBENCH_BENCH_STATS_H_
#define CORRTRACK_E2EBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace e2ebench {

/// Samples that must lie strictly beyond a percentile for it to be reported.
inline constexpr size_t kTailSamples = 10;

/// True when `n` samples support percentile `q` (0 < q < 1): at least
/// kTailSamples of them lie beyond it, i.e. n * (1 - q) >= 10.
inline bool PercentileSupported(size_t n, double q) {
  const double beyond = static_cast<double>(n) * (1.0 - q);
  return beyond + 1e-9 >= static_cast<double>(kTailSamples);
}

/// Nearest-rank quantile of `values` (sorted ascending): the smallest value
/// with at least ceil(q * n) samples at or below it.
inline double QuantileSorted(const std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  if (rank == 0) rank = 1;
  if (rank > values.size()) rank = values.size();
  return values[rank - 1];
}

/// Median of an unsorted sample (nearest rank, lower middle).
inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, 0.5);
}

/// A timing distribution reduced to what the benchmark reports. Failed
/// operations enter as +infinity, so they count as missing any limit.
struct Distribution {
  size_t count = 0;
  size_t failed = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

inline Distribution Summarize(std::vector<double> values) {
  Distribution d;
  d.count = values.size();
  for (const double v : values) {
    if (std::isinf(v)) ++d.failed;
  }
  if (values.empty()) return d;
  std::sort(values.begin(), values.end());
  d.p50 = QuantileSorted(values, 0.50);
  d.p90 = QuantileSorted(values, 0.90);
  d.p99 = QuantileSorted(values, 0.99);
  d.max = values.back();
  return d;
}

inline constexpr size_t kMaxWindows = 10;

/// Quantile `q` of a time-ordered sample, taken as the median over up to ten
/// consecutive windows of the window's own quantile, each window large
/// enough to support q (at least 10 / (1 - q) samples). One stall of the
/// machine lands in one window and leaves the median alone; a slowdown
/// that lasts moves every window. Falls back to the plain quantile when the
/// sample is too small for two windows.
inline double WindowedQuantile(const std::vector<double>& values, double q) {
  const size_t min_window = static_cast<size_t>(
      std::ceil(static_cast<double>(kTailSamples) / (1.0 - q) - 1e-9));
  const size_t windows = std::min(kMaxWindows, values.size() / min_window);
  if (windows < 2) {
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    return QuantileSorted(sorted, q);
  }
  std::vector<double> per_window;
  const size_t per = values.size() / windows;
  for (size_t w = 0; w < windows; ++w) {
    const auto first = values.begin() + static_cast<ptrdiff_t>(w * per);
    const auto last = w + 1 == windows ? values.end()
                                       : first + static_cast<ptrdiff_t>(per);
    std::vector<double> window(first, last);
    std::sort(window.begin(), window.end());
    per_window.push_back(QuantileSorted(window, q));
  }
  return Median(per_window);
}

// ---------------------------------------------------------------------------
// Open-loop schedules.
// ---------------------------------------------------------------------------

/// Item i of an open-loop stream is due at start + i / rate, whatever
/// happened to the items before it. Latency is measured from the due time,
/// so a stall also charges every item that queued behind it.
struct OpenLoopSchedule {
  int64_t start_ns = 0;
  double per_second = 1.0;

  int64_t DueNs(uint64_t i) const {
    return start_ns + static_cast<int64_t>(static_cast<double>(i) * 1e9 /
                                           per_second);
  }
  /// Items due at or before `now_ns` (the next index to send when caught
  /// up).
  uint64_t DueBy(int64_t now_ns) const {
    if (now_ns < start_ns) return 0;
    return static_cast<uint64_t>(static_cast<double>(now_ns - start_ns) *
                                 per_second / 1e9) +
           1;
  }
};

/// Tracks how late a generator sends against a schedule whose items fall
/// due from `start_ns` to `end_ns`. Lateness "grows" when the mean lateness
/// of the items due in the last quarter of that span exceeds the first
/// quarter's by more than `floor_ns`: the generator (or what it feeds) fell
/// steadily behind. A stall of the machine raises the worst lateness but
/// leaves a quarter's mean nearly alone. The state is a few sums, so the
/// tracker's memory does not depend on the rate.
class LatenessTracker {
 public:
  LatenessTracker() = default;
  LatenessTracker(int64_t start_ns, int64_t end_ns,
                  int64_t floor_ns = 50'000'000)
      : first_until_ns_(start_ns + (end_ns - start_ns) / 4),
        last_from_ns_(end_ns - (end_ns - start_ns) / 4),
        floor_ns_(floor_ns) {}

  void Record(int64_t due_ns, int64_t sent_ns) {
    const int64_t late = sent_ns > due_ns ? sent_ns - due_ns : 0;
    if (late > max_ns_) max_ns_ = late;
    if (due_ns <= first_until_ns_) {
      first_sum_ += static_cast<double>(late);
      ++first_n_;
    }
    if (due_ns >= last_from_ns_) {
      last_sum_ += static_cast<double>(late);
      ++last_n_;
    }
  }

  int64_t max_ns() const { return max_ns_; }

  bool Grows() const {
    if (first_n_ == 0 || last_n_ == 0 || last_from_ns_ <= first_until_ns_) {
      return false;
    }
    return last_sum_ / static_cast<double>(last_n_) >
           first_sum_ / static_cast<double>(first_n_) +
               static_cast<double>(floor_ns_);
  }

 private:
  int64_t first_until_ns_ = 0;
  int64_t last_from_ns_ = 0;
  int64_t floor_ns_ = 50'000'000;
  int64_t max_ns_ = 0;
  double first_sum_ = 0.0;
  double last_sum_ = 0.0;
  uint64_t first_n_ = 0;
  uint64_t last_n_ = 0;
};

// ---------------------------------------------------------------------------
// Span self time.
// ---------------------------------------------------------------------------

/// Per-thread stack of open spans. A span's self time is its duration minus
/// the durations of the spans that opened and closed inside it on the same
/// thread — a pool producer that helps a full consumer runs that consumer's
/// Execute inline, inside its own span.
class SpanStack {
 public:
  struct Closed {
    int64_t start_ns;
    int64_t end_ns;
    int64_t self_ns;
    int depth;  // 0 = outermost.
  };

  void Open(int64_t now_ns) { open_.push_back({now_ns, 0}); }

  Closed Close(int64_t now_ns) {
    const Frame frame = open_.back();
    open_.pop_back();
    const int64_t duration = now_ns - frame.start_ns;
    if (!open_.empty()) open_.back().child_ns += duration;
    return {frame.start_ns, now_ns, duration - frame.child_ns,
            static_cast<int>(open_.size())};
  }

  size_t depth() const { return open_.size(); }

 private:
  struct Frame {
    int64_t start_ns;
    int64_t child_ns;
  };
  std::vector<Frame> open_;
};

}  // namespace e2ebench

#endif  // CORRTRACK_E2EBENCH_BENCH_STATS_H_
