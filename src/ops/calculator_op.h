#ifndef CORRTRACK_OPS_CALCULATOR_OP_H_
#define CORRTRACK_OPS_CALCULATOR_OP_H_

#include "core/jaccard.h"
#include "ops/checkpoint_state.h"
#include "ops/messages.h"
#include "ops/pipeline_config.h"
#include "stream/topology.h"
#include "telemetry/clock.h"
#include "telemetry/pipeline_telemetry.h"

namespace corrtrack::ops {

/// Calculator bolt (§3.1, §6.2): oblivious to its assigned tags, it infers
/// the co-occurring tagsets from the notifications it receives, keeps one
/// exact counter per subset, and every reporting period emits the Jaccard
/// coefficient of every tracked tagset (with the counter value CN for the
/// Tracker's dedup) and deletes the counters.
///
/// Elastic install protocol: a CalculatorQuiesce marker (sent direct by
/// the Disseminator when an epoch installs) makes the bolt hand off its
/// entire unreported counter table as CounterHandoff fragments — the
/// Disseminator re-routes them to the tagsets' current owners — and
/// reset. The notification edge's FIFO puts the marker after the last
/// notification routed under the old table, so the handoff covers exactly
/// the pre-install observations. Migrated fragments arrive back as
/// CounterInject and merge into the live table (counter tables are
/// linear, so the merge is exact).
class CalculatorBolt : public stream::Bolt<Message> {
 public:
  explicit CalculatorBolt(const PipelineConfig& config, int instance)
      : config_(config), instance_(instance) {}

  void Execute(const stream::Envelope<Message>& in,
               stream::Emitter<Message>& out) override {
    if (const auto* notification = std::get_if<Notification>(&in.payload())) {
      if (notification->epoch > epoch_) epoch_ = notification->epoch;
      telemetry::PipelineTelemetry* tel = config_.telemetry;
      if (tel != nullptr && notification->trace.sampled()) {
        const telemetry::TraceSpan& trace = notification->trace;
        const int64_t t0 = telemetry::MonotonicNanos();
        tel->calc_dwell->Record(
            telemetry::SpanMicros(trace.hop_wall_ns, t0));
        counters_.Observe(notification->tags);
        const int64_t t1 = telemetry::MonotonicNanos();
        tel->calc_proc->Record(telemetry::SpanMicros(t0, t1));
        // End of the document's per-doc path: the Tracker only sees
        // periodic aggregates, so e2e closes here.
        tel->doc_e2e->Record(
            telemetry::SpanMicros(trace.origin_wall_ns, t1));
        const int64_t lag = in.time - trace.origin_virtual;
        tel->doc_virtual_lag->Record(
            lag > 0 ? static_cast<uint64_t>(lag) : 0u);
        return;
      }
      counters_.Observe(notification->tags);
      return;
    }
    if (const auto* quiesce = std::get_if<CalculatorQuiesce>(&in.payload())) {
      if (quiesce->epoch > epoch_) epoch_ = quiesce->epoch;
      ++quiesces_;
      if (counters_.num_counters() == 0) return;
      CounterHandoff handoff;
      handoff.from_calculator = instance_;
      handoff.epoch = epoch_;
      handoff.entries = counters_.ExportCounters();
      counters_.Reset();
      out.Emit(Message(std::move(handoff)));
      return;
    }
    if (const auto* inject = std::get_if<CounterInject>(&in.payload())) {
      if (inject->epoch > epoch_) epoch_ = inject->epoch;
      for (const auto& [tags, count] : inject->entries) {
        counters_.Add(tags, count);
      }
    }
  }

  void OnTick(Timestamp tick_time, stream::Emitter<Message>& out) override {
    JaccardReport report;
    report.calculator = instance_;
    report.epoch = epoch_;
    report.period_end = tick_time;
    report.estimates = counters_.ReportAll();
    if (!report.estimates.empty()) {
      if (config_.telemetry != nullptr) {
        // Reports are periodic (one per tick, not per doc), so every report
        // carries a fresh span — the Tracker edge gets full coverage.
        const int64_t now = telemetry::MonotonicNanos();
        report.trace.trace_id = static_cast<uint64_t>(instance_) + 1;
        report.trace.origin_wall_ns = now;
        report.trace.hop_wall_ns = now;
        report.trace.origin_virtual = tick_time;
      }
      out.Emit(Message(std::move(report)));
    }
    // After the emit: the report does not wait for the reset.
    counters_.Reset();
  }

  const SubsetCounterTable& counters() const { return counters_; }
  uint64_t quiesces() const { return quiesces_; }

  /// Checkpoint support: export the unreported counters (sorted) and the
  /// epoch stamp; restore injects them through Add() — counter tables are
  /// linear, so the rebuilt table equals the captured one entry for entry.
  void ExportState(CalculatorState* out) const {
    out->instance = instance_;
    out->epoch = epoch_;
    out->quiesces = quiesces_;
    out->counters = counters_.ExportCounters();
  }

  void RestoreState(const CalculatorState& state) {
    epoch_ = state.epoch;
    quiesces_ = state.quiesces;
    counters_.Reset();
    for (const auto& [tags, count] : state.counters) {
      counters_.Add(tags, count);
    }
  }

 private:
  PipelineConfig config_;
  int instance_;
  SubsetCounterTable counters_;
  Epoch epoch_ = 0;
  uint64_t quiesces_ = 0;
};

}  // namespace corrtrack::ops

#endif  // CORRTRACK_OPS_CALCULATOR_OP_H_
