#ifndef CORRTRACK_EXP_METRICS_H_
#define CORRTRACK_EXP_METRICS_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "core/types.h"
#include "ops/messages.h"
#include "ops/metrics_sink.h"

namespace corrtrack::exp {

/// One point of the Figures 8/9 time series: aggregated over a stride of
/// processed (routed) documents.
struct SeriesSample {
  uint64_t docs_processed = 0;   // End of the segment.
  double avg_communication = 0;  // Over the segment's notified documents.
  /// Per-calculator share of the segment's notifications, sorted
  /// descending (the paper sorts the load curves, §8.2.5).
  std::vector<double> sorted_loads;
  /// Repartitions that completed inside the segment.
  int repartitions = 0;
  /// Live Calculator instances at the end of the segment (elastic
  /// repartitioning: lets an experiment plot k tracking load).
  int active_calculators = 0;
};

/// A repartition event (Figure 6 splits these by cause).
struct RepartitionEvent {
  Timestamp time = 0;
  uint64_t docs_processed = 0;
  uint8_t cause = 0;  // ops::kCauseCommunication | ops::kCauseLoad.
};

/// An elastic resize of the live Calculator set
/// (MetricsSink::OnTopologyResize): grows come from the Merger before the
/// install broadcast, shrinks from the Disseminator after the route-table
/// swap.
struct TopologyResizeEvent {
  Epoch epoch = 0;
  int old_k = 0;
  int new_k = 0;
  Timestamp time = 0;
  uint64_t docs_processed = 0;
};

/// Collects everything the evaluation section reports, via the operators'
/// MetricsSink hooks. Lives outside the topology. The hooks are
/// mutex-guarded: under the pool runtime the Disseminator and Merger
/// tasks invoke them from different worker threads. Accessors are for
/// after the run (single-threaded).
class MetricsCollector : public ops::MetricsSink {
 public:
  /// `num_calculators` sizes the per-calculator accounting — pass the
  /// provisioned maximum for elastic runs (ids past it fail fast);
  /// `initial_calculators` is the live k before any resize
  /// (0 = num_calculators).
  MetricsCollector(int num_calculators, uint64_t series_stride,
                   int initial_calculators = 0);

  // MetricsSink:
  void OnRouted(int notified, Timestamp time) override;
  void OnNotification(int calculator) override;
  void OnRepartitionRequested(uint8_t cause, Timestamp time) override;
  void OnPartitionsInstalled(Epoch epoch, double avg_com, double max_load,
                             Timestamp time) override;
  void OnSingleAddition(Timestamp time) override;
  void OnTopologyResize(Epoch epoch, int old_k, int new_k,
                        Timestamp time) override;

  /// §8.2.1: average notifications per notified document.
  double AvgCommunication() const;
  /// §8.2.2: Gini over total per-calculator notifications.
  double LoadGini() const;
  double MaxLoadShare() const;

  uint64_t docs_routed() const { return docs_routed_; }
  uint64_t notified_docs() const { return notified_docs_; }
  uint64_t total_notifications() const { return total_notifications_; }
  const std::vector<uint64_t>& per_calculator() const {
    return per_calculator_;
  }

  const std::vector<RepartitionEvent>& repartitions() const {
    return repartitions_;
  }
  uint64_t CountRepartitions(uint8_t cause_mask_equals) const;
  uint64_t single_additions() const { return single_additions_; }

  Timestamp first_install_time() const { return first_install_time_; }
  bool any_install() const { return installs_ > 0; }
  uint64_t installs() const { return installs_; }
  Epoch max_epoch() const { return max_epoch_; }

  /// Elastic resize trail: every OnTopologyResize, in arrival order.
  const std::vector<TopologyResizeEvent>& resize_events() const {
    return resizes_;
  }
  /// Live Calculator count after the last resize (the initial k until one
  /// happens).
  int current_calculators() const { return current_calculators_; }
  int peak_calculators() const { return peak_calculators_; }

  const std::vector<SeriesSample>& series() const { return series_; }

  /// Flushes a final partial series segment (call once, after the run).
  void FinishSeries();

 private:
  void FlushSegment();
  void ResetSegment();

  std::mutex mutex_;  // Guards the hooks; see class comment.
  uint64_t series_stride_;
  // Run totals.
  uint64_t docs_routed_ = 0;
  uint64_t notified_docs_ = 0;
  uint64_t total_notifications_ = 0;
  std::vector<uint64_t> per_calculator_;
  std::vector<RepartitionEvent> repartitions_;
  std::vector<TopologyResizeEvent> resizes_;
  uint64_t single_additions_ = 0;
  uint64_t installs_ = 0;
  Epoch max_epoch_ = 0;
  int current_calculators_ = 0;  // Initial k until the first resize.
  int peak_calculators_ = 0;
  Timestamp first_install_time_ = -1;
  // Current series segment.
  uint64_t segment_docs_ = 0;
  uint64_t segment_notified_ = 0;
  uint64_t segment_notifications_ = 0;
  std::vector<uint64_t> segment_per_calculator_;
  int segment_repartitions_ = 0;
  std::vector<SeriesSample> series_;
};

}  // namespace corrtrack::exp

#endif  // CORRTRACK_EXP_METRICS_H_
