#ifndef CORRTRACK_OPS_PERIOD_SINK_H_
#define CORRTRACK_OPS_PERIOD_SINK_H_

#include <vector>

#include "core/jaccard.h"
#include "core/types.h"

namespace corrtrack::ops {

/// Observer through which the result-holding bolts (Tracker, the
/// Centralized baseline) expose each reporting period's coefficients to an
/// external consumer — the serving layer's ingest hook
/// (serve::IndexSink) — mirroring how MetricsSink exposes run-time events
/// to the experiment harness. Bolts run fine without one (nullptr).
///
/// Contract: each call carries the bolt's current value for every tagset
/// of that period that the report changed. The Tracker calls once per
/// Calculator report, after merging it (so possibly with no estimates, and
/// several times for the same `period_end`); the baseline once per period.
/// A later value for a tagset supersedes an earlier one of the same
/// period, so consumers store what they are given and never merge. Calls
/// arrive on the owning bolt's execution thread: one bolt, one producer.
class PeriodSink {
 public:
  virtual ~PeriodSink() = default;

  virtual void OnPeriodResults(
      Timestamp period_end, const std::vector<JaccardEstimate>& estimates) = 0;
};

}  // namespace corrtrack::ops

#endif  // CORRTRACK_OPS_PERIOD_SINK_H_
