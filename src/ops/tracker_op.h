#ifndef CORRTRACK_OPS_TRACKER_OP_H_
#define CORRTRACK_OPS_TRACKER_OP_H_

#include <map>

#include "core/jaccard.h"
#include "core/period_table.h"
#include "ops/checkpoint_state.h"
#include "ops/messages.h"
#include "ops/period_sink.h"
#include "stream/topology.h"
#include "telemetry/clock.h"
#include "telemetry/pipeline_telemetry.h"

namespace corrtrack::ops {

/// Tracker bolt (§6.2): collects the Calculators' coefficient reports. When
/// tag replication makes several Calculators report the same tagset in the
/// same period, it keeps the one tracked for the longest period — the
/// maximum counter value CN(s_i) — which "guarantees that at least all
/// tagsets assigned to the partitions during the creation of them will have
/// a correct Jaccard coefficient".
///
/// Each period is one PeriodTable, a sorted block of every tagset once
/// (40 B per estimate at 3 tags): each report, already sorted by ReportAll,
/// is merged in by one linear merge under the bolt's EstimateMerge rule,
/// applied nowhere else.
///
/// A PeriodSink gets each report after the merge, reduced to the settled
/// values of the tagsets it changed (PeriodSink's contract), so a serving
/// index that stores them converges to the same period map without the
/// Tracker having to know when a period is complete — no watermark exists
/// under the pool runtime's cross-producer interleaving.
class TrackerBolt : public stream::Bolt<Message> {
 public:
  using PeriodResults = PeriodTable;

  /// `merge` selects the duplicate rule: the paper's max-CN (default), or
  /// the additive merge that is exact for disjoint partitionings and sums
  /// the partial reports an elastic resize splits across Calculator owners
  /// (see EstimateMerge in core/jaccard.h).
  explicit TrackerBolt(PeriodSink* sink = nullptr,
                       EstimateMerge merge = EstimateMerge::kMaxCN,
                       telemetry::PipelineTelemetry* telemetry = nullptr)
      : sink_(sink), merge_(merge), telemetry_(telemetry) {}

  void Execute(const stream::Envelope<Message>& in,
               stream::Emitter<Message>& out) override {
    (void)out;
    if (std::get_if<JaccardReport>(&in.payload()) == nullptr) return;
    int64_t t0 = 0;
    if (telemetry_ != nullptr) {
      const auto& traced = std::get<JaccardReport>(in.payload());
      if (traced.trace.sampled()) {
        t0 = telemetry::MonotonicNanos();
        telemetry_->tracker_dwell->Record(
            telemetry::SpanMicros(traced.trace.hop_wall_ns, t0));
        telemetry_->report_e2e->Record(
            telemetry::SpanMicros(traced.trace.origin_wall_ns, t0));
        // Virtual lag of the report behind the period it closes.
        const int64_t lag = in.time - traced.trace.origin_virtual;
        telemetry_->report_virtual_lag->Record(
            lag > 0 ? static_cast<uint64_t>(lag) : 0u);
      }
    }
    // The envelope owns its report, so the merge compacts it in place to
    // the settled values of the estimates that changed.
    JaccardReport& report = std::get<JaccardReport>(in.MutablePayload());
    ++reports_received_;
    if (report.epoch > latest_epoch_) latest_epoch_ = report.epoch;
    periods_[report.period_end].Merge(&report.estimates, merge_);
    if (sink_ != nullptr) {
      sink_->OnPeriodResults(report.period_end, report.estimates);
    }
    if (telemetry_ != nullptr) {
      telemetry_->reports_tracked->Increment();
      if (t0 != 0) {
        telemetry_->tracker_proc->Record(
            telemetry::SpanMicros(t0, telemetry::MonotonicNanos()));
      }
    }
  }

  /// Results per reporting period (keyed by the period-end timestamp).
  const std::map<Timestamp, PeriodResults>& periods() const {
    return periods_;
  }

  uint64_t reports_received() const { return reports_received_; }
  /// Newest partition epoch any report carried (resize observability).
  Epoch latest_epoch() const { return latest_epoch_; }

  /// Checkpoint support: the full period map, each period's estimates in
  /// tagset order. Restore merges each period's estimates into an empty
  /// period, so any order restores to the same map (the checkpoint runner
  /// refuses a period holding a tagset twice, so no merge fires). The sink
  /// is NOT replayed: the serving index checkpoints its own state
  /// (serve_blob).
  void ExportState(TrackerState* out) const {
    out->reports_received = reports_received_;
    out->latest_epoch = latest_epoch_;
    out->periods.clear();
    for (const auto& [period_end, results] : periods_) {
      results.AppendTo(&out->periods[period_end]);
    }
  }

  void RestoreState(const TrackerState& state) {
    reports_received_ = state.reports_received;
    latest_epoch_ = state.latest_epoch;
    periods_.clear();
    for (const auto& [period_end, estimates] : state.periods) {
      std::vector<JaccardEstimate> copy = estimates;
      periods_[period_end].Merge(&copy, merge_);
    }
  }

 private:
  PeriodSink* sink_;
  EstimateMerge merge_;
  telemetry::PipelineTelemetry* telemetry_;  // Null = no instrumentation.
  std::map<Timestamp, PeriodResults> periods_;
  uint64_t reports_received_ = 0;
  Epoch latest_epoch_ = 0;
};

}  // namespace corrtrack::ops

#endif  // CORRTRACK_OPS_TRACKER_OP_H_
