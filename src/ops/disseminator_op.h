#ifndef CORRTRACK_OPS_DISSEMINATOR_OP_H_
#define CORRTRACK_OPS_DISSEMINATOR_OP_H_

#include <memory>
#include <vector>

#include "core/flat_counter_table.h"
#include "core/partition.h"
#include "core/tagset.h"
#include "ops/checkpoint_state.h"
#include "ops/messages.h"
#include "ops/metrics_sink.h"
#include "ops/pipeline_config.h"
#include "stream/topology.h"

namespace corrtrack::ops {

/// Disseminator bolt (§3.3, §6.2, §7): the hub of the topology.
///
///  * Routing: for every parsed document, looks up the tag -> Calculator
///    index and sends each involved Calculator the subset of the document's
///    tags it was assigned (direct grouping).
///  * Evolving partitions (§7.1): counts occurrences of tagsets covered by
///    no Calculator; at sn occurrences asks the Merger for a Single
///    Addition and applies the verdict to its index.
///  * Quality monitoring (§7.2): over batches of z notified tagsets,
///    computes avgCom' and maxLoad'; when either exceeds the reference
///    value from the Merger by more than thr, asks the Partitioners for new
///    partitions, tagging the request with the observed cause(s).
///
/// The evaluated configurations use exactly one Disseminator (§8.2), which
/// this implementation requires: monitoring state is per-instance.
///
/// Elastic install protocol, install/shrink side: after swapping in an
/// epoch's route table the Disseminator quiesces Calculators with direct
/// CalculatorQuiesce markers — FIFO behind each instance's last
/// old-epoch notification, a clean epoch cut — and retires instances the
/// new k no longer uses through stream::TopologyControl. Quiesced
/// Calculators answer with CounterHandoff fragments (their unreported
/// counter tables), which the Disseminator re-routes to each tagset's
/// *current* covering Calculator as CounterInject batches; fragments no
/// partition covers any more are dropped (counted). The protocol runs in
/// the additive-tracker mode only, where per-owner counts cover disjoint
/// document sets and migration is exact: every previously-live instance
/// is quiesced on every install, so ownership moves carry their state
/// along — no observation is dropped or double-counted across a resize.
/// Under the default max-CN merge nothing migrates (summing overlapping
/// observation sets would double-count): retirees keep their partial
/// counters and report them at their next tick — shutdown at the latest
/// — for the max-CN dedup, the paper's repartition semantics.
class DisseminatorBolt : public stream::Bolt<Message> {
 public:
  DisseminatorBolt(const PipelineConfig& config, MetricsSink* metrics);

  void Prepare(stream::TaskAddress self, int parallelism) override;

  void AttachControl(stream::TopologyControl* control) override {
    control_ = control;
  }

  /// Component id of the Calculator bolt, for TopologyControl retires
  /// (wired by BuildCorrelationTopology).
  void set_calculator_component(int component) {
    calculator_component_ = component;
  }

  void Execute(const stream::Envelope<Message>& in,
               stream::Emitter<Message>& out) override;

  Epoch current_epoch() const { return epoch_; }
  bool has_partitions() const { return partitions() != nullptr; }
  const PartitionSet* partitions() const {
    return owned_partitions_ != nullptr ? owned_partitions_.get()
                                        : installed_partitions_.get();
  }
  uint64_t repartitions_requested() const { return repartitions_requested_; }
  uint64_t shrinks() const { return shrinks_; }
  uint64_t handoffs_routed() const { return handoffs_routed_; }
  uint64_t handoff_entries_dropped() const {
    return handoff_entries_dropped_;
  }

  /// Checkpoint support (ops/checkpoint_state.h): export collapses the COW
  /// route table into a flat PartitionSetState; restore rebuilds it as an
  /// owned copy. In-flight request/verdict flags that reference dropped
  /// feedback messages are reset so the restored pipeline can re-issue
  /// them instead of waiting forever (see RestoreState).
  void ExportState(DisseminatorState* out) const;
  void RestoreState(const DisseminatorState& state);

 private:
  void HandleDoc(const ParsedDoc& parsed, stream::Emitter<Message>& out);
  void HandleFinalPartitions(const FinalPartitions& final,
                             stream::Emitter<Message>& out);
  void HandleCounterHandoff(const CounterHandoff& handoff,
                            stream::Emitter<Message>& out);
  void HandleAdditionDecision(const SingleAdditionDecision& decision);
  void UpdateQualityStats(int notified, const std::vector<RoutedSubset>& routed,
                          stream::Emitter<Message>& out);
  void ResetBatch();

  /// The live route table, copy-on-write: an install adopts the Merger's
  /// broadcast PartitionSet by reference (the FinalPartitions copies the
  /// broadcast makes share it through their shared_ptr); the first Single
  /// Addition of the epoch takes the private deep copy that mutation
  /// needs. Route/CoveringPartition go through partitions().
  PartitionSet* MutablePartitions();

  PipelineConfig config_;
  MetricsSink* metrics_;
  stream::TopologyControl* control_ = nullptr;
  int calculator_component_ = -1;

  std::shared_ptr<const PartitionSet> installed_partitions_;
  std::unique_ptr<PartitionSet> owned_partitions_;  // COW copy once mutated.
  Epoch epoch_ = 0;
  double ref_avg_com_ = 0.0;
  double ref_max_load_ = 0.0;

  bool bootstrap_requested_ = false;
  bool repartition_pending_ = false;
  uint32_t next_token_ = 1;
  uint64_t repartitions_requested_ = 0;
  uint64_t shrinks_ = 0;
  uint64_t handoffs_routed_ = 0;
  uint64_t handoff_entries_dropped_ = 0;
  int cooldown_remaining_ = 0;  // Simulated creation latency (see config).

  // Forced repartition schedule (config.forced_repartition_docs).
  uint64_t docs_seen_ = 0;
  size_t next_forced_ = 0;

  // §7.2 quality batch (z notified tagsets).
  uint64_t batch_count_ = 0;
  uint64_t batch_notifications_ = 0;
  std::vector<uint64_t> batch_per_calculator_;

  // §7.1 uncovered-tagset occurrence counts; value == -1 marks "addition
  // already requested, waiting for the verdict".
  FlatTagSetMap<int> uncovered_counts_;

  std::vector<RoutedSubset> routed_scratch_;
};

}  // namespace corrtrack::ops

#endif  // CORRTRACK_OPS_DISSEMINATOR_OP_H_
