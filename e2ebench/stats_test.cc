// Self-test of the benchmark's own statistics: the percentile rule,
// due-time latency under a stalled consumer, and span self time with
// nested spans. Exits non-zero on the first failed expectation.
//
//   <build>/e2e_stats_test

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <vector>

#include "bench_stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expectation failed: %s\n", __FILE__, \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

using namespace e2ebench;

void PercentileNeedsTenSamplesBeyond() {
  // p90 needs n * 0.1 >= 10, p99 needs n * 0.01 >= 10.
  EXPECT(!PercentileSupported(99, 0.90));
  EXPECT(PercentileSupported(100, 0.90));
  EXPECT(!PercentileSupported(999, 0.99));
  EXPECT(PercentileSupported(1000, 0.99));
  EXPECT(PercentileSupported(20, 0.50));
  EXPECT(!PercentileSupported(19, 0.50));
  EXPECT(PercentileSupported(10'000, 0.999));
  EXPECT(!PercentileSupported(9'999, 0.999));

  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  const Distribution d = Summarize(values);
  EXPECT(d.p50 == 50.0);
  EXPECT(d.p90 == 90.0);
  // Ten samples lie strictly beyond the reported p90.
  int beyond = 0;
  for (const double v : values) beyond += v > d.p90 ? 1 : 0;
  EXPECT(beyond == 10);
}

void WindowedQuantileIgnoresOneStall() {
  // 10k samples of 100us; one 200-sample burst of 50ms inside one window.
  std::vector<double> values(10'000, 100.0);
  for (size_t i = 3'000; i < 3'200; ++i) values[i] = 50'000.0;
  EXPECT(Summarize(values).p99 == 50'000.0);
  EXPECT(WindowedQuantile(values, 0.99) == 100.0);
  // A slowdown in every window moves it.
  for (size_t i = 0; i < values.size(); i += 50) values[i] = 9'000.0;
  EXPECT(WindowedQuantile(values, 0.99) == 9'000.0);
  // Too few samples for two windows: the plain p99.
  std::vector<double> small(1'500, 1.0);
  small[10] = 7.0;
  small[11] = 7.0;
  small[12] = 7.0;
  EXPECT(WindowedQuantile(small, 0.99) == Summarize(small).p99);
  // p90 windows need only 100 samples: 1500 samples make ten windows.
  EXPECT(WindowedQuantile(small, 0.90) == 1.0);
}

void FailuresMissEveryLimit() {
  std::vector<double> values(990, 10.0);
  for (int i = 0; i < 10; ++i) values.push_back(INFINITY);
  const Distribution d = Summarize(values);
  EXPECT(d.failed == 10);
  EXPECT(d.p99 == 10.0);
  values.push_back(INFINITY);  // 11 failures in 1001: p99 is a failure.
  EXPECT(std::isinf(Summarize(values).p99));
}

/// A FIFO server with a fixed service time that stops for `stall_ns` at
/// `stall_at_ns`, fed by an open-loop schedule. Returns latencies from the
/// due time, as the benchmark's generator records them.
std::vector<double> SimulateStall(double rate, int64_t service_ns,
                                  int64_t stall_at_ns, int64_t stall_ns,
                                  int64_t duration_ns,
                                  LatenessTracker* lateness) {
  const OpenLoopSchedule schedule{0, rate};
  std::vector<double> latency_us;
  int64_t server_free = 0;
  for (uint64_t i = 0; schedule.DueNs(i) < duration_ns; ++i) {
    const int64_t due = schedule.DueNs(i);
    lateness->Record(due, due);  // The generator itself never falls behind.
    int64_t start = std::max(due, server_free);
    if (start >= stall_at_ns && start < stall_at_ns + stall_ns) {
      start = stall_at_ns + stall_ns;
    }
    server_free = start + service_ns;
    latency_us.push_back(static_cast<double>(server_free - due) / 1e3);
  }
  return latency_us;
}

void DueTimeLatencyChargesQueuedRequests() {
  EXPECT(OpenLoopSchedule({1000, 1000.0}).DueNs(3) == 1000 + 3'000'000);
  EXPECT(OpenLoopSchedule({0, 1000.0}).DueBy(-1) == 0);
  EXPECT(OpenLoopSchedule({0, 1000.0}).DueBy(0) == 1);
  EXPECT(OpenLoopSchedule({0, 1000.0}).DueBy(2'500'000) == 3);

  // 10k req/s, 20 us service, one 50 ms stall in a 1 s run: every request
  // due during the stall waits for its end (500 requests), and so do the
  // ones that queue behind them while the backlog drains, so p99 reflects
  // the stall. A closed-loop client timing from its
  // own send would have seen a single slow request.
  LatenessTracker lateness(0, 1'000'000'000);
  const std::vector<double> latency = SimulateStall(
      10'000.0, 20'000, 400'000'000, 50'000'000, 1'000'000'000, &lateness);
  int slow = 0;
  for (const double us : latency) slow += us > 1'000.0 ? 1 : 0;
  EXPECT(slow >= 500 && slow <= 700);
  const Distribution d = Summarize(latency);
  EXPECT(d.p99 > 20'000.0);
  EXPECT(d.max >= 49'000.0 && d.max <= 50'100.0);
  EXPECT(d.p50 < 100.0);
  EXPECT(!lateness.Grows());
}

void GrowingLatenessIsFlagged() {
  // A generator that can only send 800 of 1000 due items per second falls
  // further behind for the whole run.
  LatenessTracker growing(0, 2'000'000'000);
  const OpenLoopSchedule schedule{0, 1000.0};
  for (uint64_t i = 0; i < 2000; ++i) {
    const int64_t due = schedule.DueNs(i);
    growing.Record(due, static_cast<int64_t>(i) * 1'250'000);
  }
  EXPECT(growing.Grows());
  EXPECT(growing.max_ns() > 400'000'000);

  // A single 30 ms hiccup in the middle, then caught up: not growing.
  LatenessTracker hiccup(0, 2'000'000'000);
  for (uint64_t i = 0; i < 2000; ++i) {
    const int64_t due = schedule.DueNs(i);
    const int64_t late = (i >= 1000 && i < 1030) ? 30'000'000 : 0;
    hiccup.Record(due, due + late);
  }
  EXPECT(!hiccup.Grows());
  EXPECT(hiccup.max_ns() == 30'000'000);

  // Repeated 40 ms stalls late in the run (a busy host) raise the worst
  // lateness but do not make the generator fall steadily behind.
  LatenessTracker stalls(0, 2'000'000'000);
  for (uint64_t i = 0; i < 2000; ++i) {
    const int64_t due = schedule.DueNs(i);
    const int64_t late = (i >= 1500 && i % 100 < 5) ? 40'000'000 : 0;
    stalls.Record(due, due + late);
  }
  EXPECT(!stalls.Grows());
  EXPECT(stalls.max_ns() == 40'000'000);
}

void SelfTimeSubtractsNestedSpans() {
  // outer [0, 100) helps a consumer inline: inner [10, 40), which itself
  // nests [20, 25); then a second inner [60, 90).
  SpanStack stack;
  stack.Open(0);
  stack.Open(10);
  stack.Open(20);
  const SpanStack::Closed deepest = stack.Close(25);
  EXPECT(deepest.self_ns == 5 && deepest.depth == 2);
  const SpanStack::Closed inner = stack.Close(40);
  EXPECT(inner.self_ns == 25 && inner.depth == 1);
  stack.Open(60);
  const SpanStack::Closed second = stack.Close(90);
  EXPECT(second.self_ns == 30);
  const SpanStack::Closed outer = stack.Close(100);
  EXPECT(outer.self_ns == 100 - 30 - 30);
  EXPECT(outer.depth == 0);
  EXPECT(stack.depth() == 0);
  // Self times of all spans add up to the outermost duration.
  EXPECT(deepest.self_ns + inner.self_ns + second.self_ns + outer.self_ns ==
         100);
}

}  // namespace

int main() {
  PercentileNeedsTenSamplesBeyond();
  FailuresMissEveryLimit();
  WindowedQuantileIgnoresOneStall();
  DueTimeLatencyChargesQueuedRequests();
  GrowingLatenessIsFlagged();
  SelfTimeSubtractsNestedSpans();
  if (failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("e2e_stats_test: all expectations held\n");
  return 0;
}
