#ifndef CORRTRACK_OPS_MERGER_OP_H_
#define CORRTRACK_OPS_MERGER_OP_H_

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/partition.h"
#include "core/partitioning.h"
#include "ops/checkpoint_state.h"
#include "ops/messages.h"
#include "ops/metrics_sink.h"
#include "ops/pipeline_config.h"
#include "stream/topology.h"

namespace corrtrack::ops {

/// Merger bolt (§6.2): collects the P Partitioners' proposals of one round,
/// re-runs the same partitioning algorithm over the fragments (treated as
/// weighted tagsets: "the Merger can be viewed as another Partitioner") and
/// broadcasts the final k partitions together with their reference quality
/// (avgCom, maxLoad) evaluated over the union of the proposers' window
/// tagsets.
///
/// It also performs Single Additions (§7.1): when the Disseminator reports
/// a tagset covered by no Calculator, the Merger adds it to the best
/// partition per the algorithm's placement rule and broadcasts the verdict.
///
/// Elastic repartitioning (§7.3 tentpole): with `config.elastic.enabled`
/// the Merger picks each round's k from the cost-model target-k policy
/// (core/partitioning.h) over the observed window load instead of
/// recutting into the build-time count, and *grows* the live Calculator
/// set through stream::TopologyControl before broadcasting the install —
/// new instances are active before any route-table points at them. Shrinking is the
/// Disseminator's side of the install protocol (quiesce, then retire).
class MergerBolt : public stream::Bolt<Message> {
 public:
  MergerBolt(const PipelineConfig& config, MetricsSink* metrics);

  void AttachControl(stream::TopologyControl* control) override {
    control_ = control;
  }

  /// Component id of the Calculator bolt, for TopologyControl resizes
  /// (wired by BuildCorrelationTopology). Without it the Merger never
  /// proposes a k beyond the build-time count.
  void set_calculator_component(int component) {
    calculator_component_ = component;
  }

  void Execute(const stream::Envelope<Message>& in,
               stream::Emitter<Message>& out) override;

  Epoch current_epoch() const { return epoch_; }
  const PartitionSet* current_partitions() const { return master_.get(); }
  uint64_t single_additions() const { return single_additions_; }
  uint64_t grows() const { return grows_; }

  /// Checkpoint support: master copy + epoch. Pending rounds are dropped
  /// (their messages died with the cut) but recorded, so the checkpoint is
  /// flagged clean_cut=false — durability first, observability attached.
  void ExportState(MergerState* out) const;
  void RestoreState(const MergerState& state);

 private:
  struct PendingRound {
    std::vector<PartitionFragment> fragments;
    std::vector<std::pair<TagSet, uint64_t>> window_tagsets;
    int proposals_received = 0;
  };

  void HandleProposal(const PartitionProposal& proposal,
                      stream::Emitter<Message>& out);
  void HandleUncovered(const UncoveredTagset& uncovered,
                       stream::Emitter<Message>& out);
  void FinishRound(uint32_t token, PendingRound round,
                   stream::Emitter<Message>& out);

  /// The round's partition count: the forced schedule, the elastic target-k
  /// policy, or the static §7.3 clamp, in that precedence.
  int ChooseRoundK(uint64_t window_load) const;

  PipelineConfig config_;
  MetricsSink* metrics_;
  std::unique_ptr<PartitioningAlgorithm> algorithm_;
  stream::TopologyControl* control_ = nullptr;
  int calculator_component_ = -1;
  std::unordered_map<uint32_t, PendingRound> rounds_;
  std::unique_ptr<PartitionSet> master_;  // Mutable copy for additions.
  Epoch epoch_ = 0;
  uint64_t single_additions_ = 0;
  uint64_t grows_ = 0;
};

}  // namespace corrtrack::ops

#endif  // CORRTRACK_OPS_MERGER_OP_H_
