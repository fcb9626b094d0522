#include "ops/merger_op.h"

#include "core/check.h"
#include <algorithm>

#include "core/cooccurrence.h"

namespace corrtrack::ops {

MergerBolt::MergerBolt(const PipelineConfig& config, MetricsSink* metrics)
    : config_(config),
      metrics_(metrics != nullptr ? metrics : NullMetricsSink()),
      algorithm_(MakeAlgorithm(config.algorithm)) {}

void MergerBolt::Execute(const stream::Envelope<Message>& in,
                         stream::Emitter<Message>& out) {
  if (const auto* proposal = std::get_if<PartitionProposal>(&in.payload())) {
    HandleProposal(*proposal, out);
  } else if (const auto* uncovered =
                 std::get_if<UncoveredTagset>(&in.payload())) {
    HandleUncovered(*uncovered, out);
  }
}

void MergerBolt::HandleProposal(const PartitionProposal& proposal,
                                stream::Emitter<Message>& out) {
  PendingRound& round = rounds_[proposal.token];
  round.fragments.insert(round.fragments.end(), proposal.fragments.begin(),
                         proposal.fragments.end());
  round.window_tagsets.insert(round.window_tagsets.end(),
                              proposal.window_tagsets.begin(),
                              proposal.window_tagsets.end());
  ++round.proposals_received;
  if (round.proposals_received < config_.num_partitioners) return;
  PendingRound done = std::move(round);
  rounds_.erase(proposal.token);
  FinishRound(proposal.token, std::move(done), out);
}

int MergerBolt::ChooseRoundK(uint64_t window_load) const {
  const bool can_resize = control_ != nullptr && calculator_component_ >= 0;
  const int provisioned_max =
      can_resize ? control_->MaxParallelism(calculator_component_)
                 : config_.EffectiveMaxCalculators();
  const int active =
      can_resize ? control_->ActiveParallelism(calculator_component_)
                 : config_.num_calculators;
  // Elastic target-k: cost-model optimum over the observed window load,
  // sticky around the currently live count.
  int k = config_.elastic.enabled
              ? ChooseTargetK(window_load, active, config_.elastic)
              : config_.num_calculators;
  // Forced schedules (tests, resize experiments) override the policy for
  // the epochs they cover.
  const size_t next_epoch = static_cast<size_t>(epoch_) + 1;
  if (next_epoch <= config_.forced_k_schedule.size()) {
    k = config_.forced_k_schedule[next_epoch - 1];
  }
  return std::clamp(k, 1, provisioned_max);
}

void MergerBolt::FinishRound(uint32_t token, PendingRound round,
                             stream::Emitter<Message>& out) {
  // "The Merger can be viewed as another Partitioner. It receives tagsets
  // and outputs tag partitions" (§6.2): every fragment becomes a weighted
  // tagset whose count is the load it carried in its proposer's window.
  std::vector<std::pair<TagSet, uint64_t>> weighted;
  weighted.reserve(round.fragments.size());
  for (PartitionFragment& fragment : round.fragments) {
    weighted.emplace_back(std::move(fragment.tags),
                          fragment.load > 0 ? fragment.load : 1);
  }
  const CooccurrenceSnapshot fragment_snapshot =
      CooccurrenceSnapshot::FromWeightedTagsets(std::move(weighted));
  const uint64_t seed = config_.seed ^ 0xa5a5a5a5ull ^ token;
  const int k = ChooseRoundK(fragment_snapshot.num_docs());
  // Install protocol, grow side: activate the Calculator instances
  // *before* the FinalPartitions broadcast leaves this bolt, so by the time
  // any Disseminator routes against the wider PartitionSet they are in the
  // routing mask.
  if (control_ != nullptr && calculator_component_ >= 0) {
    const int active = control_->ActiveParallelism(calculator_component_);
    if (k > active) {
      control_->ResizeComponent(calculator_component_, k);
      ++grows_;
      metrics_->OnTopologyResize(epoch_ + 1, active, k, out.now());
    }
  }
  PartitionSet final_partitions =
      algorithm_->CreatePartitions(fragment_snapshot, k, seed);

  // Reference quality "as computed immediately after their creation"
  // (§7.2). The Merger knows only the partitions themselves (it never sees
  // per-document statistics), so the reference is what the partitions
  // alone imply:
  //   avgCom  — the average number of partitions a tag is assigned to
  //             (replication): a tag held by r partitions costs r
  //             notifications for a document carrying it alone.
  //   maxLoad — the largest partition's share of the book-kept loads.
  // This creation-time view is optimistic for replication-heavy
  // algorithms: live traffic weights popular (widely replicated) tags much
  // harder than the per-tag average does. That asymmetry is why SCL/SCI
  // violate the communication bound almost permanently in the paper
  // (§8.2.4: "approximately one repartition every 2750 processed
  // documents") while DS's reference of exactly 1.0 only degrades as
  // Single Additions accumulate (Figure 8a's saw-tooth).
  double ref_avg_com = 0.0;
  if (final_partitions.NumDistinctTags() > 0) {
    ref_avg_com =
        static_cast<double>(final_partitions.TotalReplication()) /
        static_cast<double>(final_partitions.NumDistinctTags());
  }
  uint64_t total_load = 0;
  uint64_t max_load = 0;
  for (int p = 0; p < final_partitions.num_partitions(); ++p) {
    total_load += final_partitions.load(p);
    max_load = std::max(max_load, final_partitions.load(p));
  }
  const double ref_max_load =
      total_load > 0 ? static_cast<double>(max_load) /
                           static_cast<double>(total_load)
                     : 0.0;

  master_ = std::make_unique<PartitionSet>(final_partitions);
  ++epoch_;

  FinalPartitions msg;
  msg.epoch = epoch_;
  msg.partitions =
      std::make_shared<const PartitionSet>(std::move(final_partitions));
  msg.avg_com = ref_avg_com;
  msg.max_load = ref_max_load;
  metrics_->OnPartitionsInstalled(epoch_, msg.avg_com, msg.max_load,
                                  out.now());
  out.Emit(Message(std::move(msg)));
}

void MergerBolt::HandleUncovered(const UncoveredTagset& uncovered,
                                 stream::Emitter<Message>& out) {
  if (master_ == nullptr) return;  // No partitions yet.
  if (uncovered.epoch != epoch_) return;  // Stale: a repartition resolved it.
  // Already covered (e.g. an earlier addition in the same epoch subsumed
  // it): just confirm the placement so the Disseminator can update.
  int target;
  const std::optional<int> covering =
      master_->CoveringPartition(uncovered.tags);
  if (covering.has_value()) {
    target = *covering;
  } else {
    target = algorithm_->ChooseSingleAdditionTarget(*master_, uncovered.tags);
    master_->AddTags(target, uncovered.tags);
    // The tagset was seen sn times before the request (§7.1); use that as
    // its load contribution for future balance decisions.
    master_->AddLoad(
        target, static_cast<uint64_t>(config_.single_addition_threshold));
    ++single_additions_;
    metrics_->OnSingleAddition(out.now());
  }
  SingleAdditionDecision decision;
  decision.tags = uncovered.tags;
  decision.calculator = target;
  decision.epoch = epoch_;
  out.Emit(Message(std::move(decision)));
}

void MergerBolt::ExportState(MergerState* out) const {
  out->has_master = master_ != nullptr;
  if (out->has_master) {
    FlattenPartitionSet(*master_, &out->master);
  } else {
    out->master = PartitionSetState();
  }
  out->epoch = epoch_;
  out->single_additions = single_additions_;
  out->grows = grows_;
  out->had_pending_rounds = !rounds_.empty();
}

void MergerBolt::RestoreState(const MergerState& state) {
  rounds_.clear();
  master_.reset();
  if (state.has_master) {
    master_ = std::make_unique<PartitionSet>(RebuildPartitionSet(state.master));
  }
  epoch_ = state.epoch;
  single_additions_ = state.single_additions;
  grows_ = state.grows;
}

}  // namespace corrtrack::ops
