#ifndef CORRTRACK_OPS_CENTRALIZED_H_
#define CORRTRACK_OPS_CENTRALIZED_H_

#include <map>

#include "core/jaccard.h"
#include "core/period_table.h"
#include "ops/checkpoint_state.h"
#include "ops/messages.h"
#include "ops/period_sink.h"
#include "ops/pipeline_config.h"
#include "stream/topology.h"

namespace corrtrack::ops {

/// The centralised baseline of §8.2.3: a single node that receives every
/// tagset and computes all Jaccard coefficients exactly, on the same
/// reporting schedule as the Calculators. The experiment driver compares
/// the Tracker's coefficients against these to obtain the error metric
/// (restricted, as in the paper, to tagsets seen more than sn = 3 times).
/// Each period is one PeriodTable, like the Tracker's: ReportAll's sorted,
/// unique estimates copied into one sorted block as reported.
class CentralizedBolt : public stream::Bolt<Message> {
 public:
  using PeriodResults = PeriodTable;

  explicit CentralizedBolt(const PipelineConfig& config,
                           PeriodSink* sink = nullptr)
      : config_(config), sink_(sink) {}

  void Execute(const stream::Envelope<Message>& in,
               stream::Emitter<Message>& out) override {
    (void)out;
    const auto* parsed = std::get_if<ParsedDoc>(&in.payload());
    if (parsed == nullptr) return;
    counters_.Observe(parsed->doc.tags);
  }

  void OnTick(Timestamp tick_time, stream::Emitter<Message>& out) override {
    (void)out;
    // "Since a tagset is added when seen at least 3 times the centralised
    // approach considers only tagsets appearing more than 3 times."
    std::vector<JaccardEstimate> estimates = counters_.ReportAll(
        static_cast<uint64_t>(config_.single_addition_threshold));
    if (sink_ != nullptr) sink_->OnPeriodResults(tick_time, estimates);
    periods_[tick_time].Merge(&estimates, EstimateMerge::kMaxCN);
    counters_.Reset();
  }

  const std::map<Timestamp, PeriodResults>& periods() const {
    return periods_;
  }

  /// Checkpoint support (same discipline as TrackerBolt: tagset-order
  /// export, restore from any order, linear counter re-Add, sink not
  /// replayed).
  void ExportState(CentralizedState* out) const {
    out->counters = counters_.ExportCounters();
    out->periods.clear();
    for (const auto& [period_end, results] : periods_) {
      results.AppendTo(&out->periods[period_end]);
    }
  }

  void RestoreState(const CentralizedState& state) {
    counters_.Reset();
    for (const auto& [tags, count] : state.counters) {
      counters_.Add(tags, count);
    }
    periods_.clear();
    for (const auto& [period_end, estimates] : state.periods) {
      std::vector<JaccardEstimate> copy = estimates;
      periods_[period_end].Merge(&copy, EstimateMerge::kMaxCN);
    }
  }

 private:
  PipelineConfig config_;
  PeriodSink* sink_;
  SubsetCounterTable counters_;
  std::map<Timestamp, PeriodResults> periods_;
};

}  // namespace corrtrack::ops

#endif  // CORRTRACK_OPS_CENTRALIZED_H_
