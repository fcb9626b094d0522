#ifndef CORRTRACK_SERVE_INDEX_SINK_H_
#define CORRTRACK_SERVE_INDEX_SINK_H_

#include <vector>

#include "core/check.h"
#include "core/jaccard.h"
#include "ops/period_sink.h"
#include "serve/correlation_index.h"

namespace corrtrack::serve {

/// Adapter that plugs a CorrelationIndex into the topology: attach one to
/// the Tracker (or the Centralized baseline) through
/// ops::BuildCorrelationTopology and the index continuously ingests period
/// results as they are reported. The Tracker forwards the values it
/// settled on (ops::PeriodSink's contract) and ApplyPeriod stores them, so
/// the served state converges to the Tracker's own period map under
/// either merge rule.
///
/// Threading: the sink is driven by exactly one bolt task (the topology
/// never shares a sink between bolts), which is precisely the index's
/// single-writer contract.
class IndexSink : public ops::PeriodSink {
 public:
  explicit IndexSink(CorrelationIndex* index) : index_(index) {
    CORRTRACK_CHECK(index != nullptr);
  }

  void OnPeriodResults(
      Timestamp period_end,
      const std::vector<JaccardEstimate>& estimates) override {
    index_->ApplyPeriod(period_end, estimates);
  }

 private:
  CorrelationIndex* index_;
};

}  // namespace corrtrack::serve

#endif  // CORRTRACK_SERVE_INDEX_SINK_H_
