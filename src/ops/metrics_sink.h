#ifndef CORRTRACK_OPS_METRICS_SINK_H_
#define CORRTRACK_OPS_METRICS_SINK_H_

#include <cstdint>

#include "core/types.h"

namespace corrtrack::ops {

/// Observer interface through which the operators expose run-time events to
/// the experiment harness (exp::MetricsCollector). All hooks are optional;
/// the default implementation ignores everything, so operators can run
/// without a harness (e.g. in the examples).
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;

  /// A document's tagset was routed to `notified` calculators (0 = found in
  /// no calculator). Called once per document reaching the Disseminator
  /// after partitions exist.
  virtual void OnRouted(int notified, Timestamp time) {
    (void)notified;
    (void)time;
  }

  /// One notification was sent to `calculator`.
  virtual void OnNotification(int calculator) { (void)calculator; }

  /// The Disseminator found quality degraded and asked for new partitions.
  virtual void OnRepartitionRequested(uint8_t cause, Timestamp time) {
    (void)cause;
    (void)time;
  }

  /// The Merger broadcast new partitions with the given reference quality.
  virtual void OnPartitionsInstalled(Epoch epoch, double avg_com,
                                     double max_load, Timestamp time) {
    (void)epoch;
    (void)avg_com;
    (void)max_load;
    (void)time;
  }

  /// A Single Addition was performed (§7.1).
  virtual void OnSingleAddition(Timestamp time) { (void)time; }

  /// The elastic install protocol resized the live Calculator set for
  /// `epoch`: `old_k` -> `new_k` instances. Growth is reported by the
  /// Merger before the install broadcast (tasks must exist before routing
  /// reaches them); shrink by the Disseminator after the route-table swap
  /// and quiesce markers.
  virtual void OnTopologyResize(Epoch epoch, int old_k, int new_k,
                                Timestamp time) {
    (void)epoch;
    (void)old_k;
    (void)new_k;
    (void)time;
  }
};

/// Shared no-op sink for operators constructed without a harness.
MetricsSink* NullMetricsSink();

}  // namespace corrtrack::ops

#endif  // CORRTRACK_OPS_METRICS_SINK_H_
