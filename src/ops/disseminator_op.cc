#include "ops/disseminator_op.h"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "core/check.h"
#include "telemetry/clock.h"
#include "telemetry/pipeline_telemetry.h"

namespace corrtrack::ops {

DisseminatorBolt::DisseminatorBolt(const PipelineConfig& config,
                                   MetricsSink* metrics)
    : config_(config),
      metrics_(metrics != nullptr ? metrics : NullMetricsSink()),
      batch_per_calculator_(
          static_cast<size_t>(config.EffectiveMaxCalculators()), 0) {}

void DisseminatorBolt::Prepare(stream::TaskAddress /*self*/,
                               int parallelism) {
  // Monitoring state (batches, uncovered counts, repartition tokens) is
  // per-instance; the evaluation runs one Disseminator (§8.2).
  CORRTRACK_CHECK_EQ(parallelism, 1);
}

PartitionSet* DisseminatorBolt::MutablePartitions() {
  // Copy-on-write: the installed set is shared with the Merger's
  // broadcast; the first mutation of an epoch pays the one deep copy.
  if (owned_partitions_ == nullptr) {
    CORRTRACK_CHECK(installed_partitions_ != nullptr);
    owned_partitions_ =
        std::make_unique<PartitionSet>(*installed_partitions_);
  }
  return owned_partitions_.get();
}

void DisseminatorBolt::Execute(const stream::Envelope<Message>& in,
                               stream::Emitter<Message>& out) {
  if (const auto* parsed = std::get_if<ParsedDoc>(&in.payload())) {
    HandleDoc(*parsed, out);
  } else if (const auto* final = std::get_if<FinalPartitions>(&in.payload())) {
    HandleFinalPartitions(*final, out);
  } else if (const auto* handoff =
                 std::get_if<CounterHandoff>(&in.payload())) {
    HandleCounterHandoff(*handoff, out);
  } else if (const auto* decision =
                 std::get_if<SingleAdditionDecision>(&in.payload())) {
    HandleAdditionDecision(*decision);
  }
}

void DisseminatorBolt::HandleDoc(const ParsedDoc& parsed,
                                 stream::Emitter<Message>& out) {
  ++docs_seen_;
  // Forced resize schedules (config.forced_repartition_docs): request a
  // repartition round at the scheduled document counts, independent of the
  // quality monitor. Only meaningful once an initial install exists.
  if (next_forced_ < config_.forced_repartition_docs.size() &&
      docs_seen_ >= config_.forced_repartition_docs[next_forced_] &&
      has_partitions()) {
    ++next_forced_;
    ++repartitions_requested_;
    RepartitionRequest request;
    request.token = next_token_++;
    request.cause = 0;  // Forced, not a quality violation.
    out.Emit(Message(request));
  }
  if (!has_partitions()) {
    // Bootstrap: ask for the initial partitions once the Partitioners have
    // a filled window.
    if (!bootstrap_requested_ && parsed.doc.time >= config_.bootstrap_time) {
      bootstrap_requested_ = true;
      RepartitionRequest request;
      request.token = next_token_++;
      request.cause = 0;  // Initial creation, not a quality violation.
      out.Emit(Message(request));
    }
    return;
  }

  telemetry::PipelineTelemetry* tel = config_.telemetry;
  // One clock read per traced doc, taken at routing entry: the forwarded
  // hop stamp is shared by every notification of this doc, so downstream
  // dwell includes this stage's routing time for later subsets — an
  // accepted error that keeps untraced and fan-out paths clock-free.
  int64_t t0 = 0;
  if (tel != nullptr && parsed.trace.sampled()) {
    t0 = telemetry::MonotonicNanos();
    tel->diss_dwell->Record(
        telemetry::SpanMicros(parsed.trace.hop_wall_ns, t0));
  }

  const TagSet& tags = parsed.doc.tags;
  bool covered = false;
  const int notified = partitions()->Route(tags, &routed_scratch_, &covered);
  for (const RoutedSubset& routed : routed_scratch_) {
    Notification notification;
    notification.tags = routed.tags;
    notification.epoch = epoch_;
    if (t0 != 0) {
      notification.trace = parsed.trace;
      notification.trace.hop_wall_ns = t0;
    }
    out.EmitDirect(routed.partition, Message(std::move(notification)));
    metrics_->OnNotification(routed.partition);
  }
  if (tel != nullptr) {
    tel->notifications_routed->Increment(static_cast<uint64_t>(notified));
    if (t0 != 0) {
      tel->diss_proc->Record(
          telemetry::SpanMicros(t0, telemetry::MonotonicNanos()));
    }
  }
  metrics_->OnRouted(notified, parsed.doc.time);

  // §7.1: tagsets found in no Calculator accumulate towards a Single
  // Addition after sn sightings.
  if (!covered) {
    int& count = uncovered_counts_[tags];
    if (count >= 0) {
      ++count;
      if (count >= config_.single_addition_threshold) {
        UncoveredTagset uncovered;
        uncovered.tags = tags;
        uncovered.epoch = epoch_;
        out.Emit(Message(std::move(uncovered)));
        count = -1;  // Await the Merger's verdict.
      }
    }
  }

  if (notified > 0) UpdateQualityStats(notified, routed_scratch_, out);
}

void DisseminatorBolt::UpdateQualityStats(
    int notified, const std::vector<RoutedSubset>& routed,
    stream::Emitter<Message>& out) {
  if (cooldown_remaining_ > 0) {
    --cooldown_remaining_;
    return;
  }
  ++batch_count_;
  batch_notifications_ += static_cast<uint64_t>(notified);
  for (const RoutedSubset& r : routed) {
    ++batch_per_calculator_[static_cast<size_t>(r.partition)];
  }
  if (batch_count_ < static_cast<uint64_t>(config_.quality_batch_size)) {
    return;
  }
  // End of a z-batch: compute avgCom' and maxLoad' (§7.2).
  const double avg_com = static_cast<double>(batch_notifications_) /
                         static_cast<double>(batch_count_);
  uint64_t total = 0;
  uint64_t max = 0;
  for (uint64_t c : batch_per_calculator_) {
    total += c;
    max = std::max(max, c);
  }
  const double max_load =
      total > 0 ? static_cast<double>(max) / static_cast<double>(total) : 0.0;

  uint8_t cause = 0;
  const double margin = 1.0 + config_.repartition_threshold;
  if (ref_avg_com_ > 0 && avg_com > ref_avg_com_ * margin) {
    cause |= kCauseCommunication;
  }
  if (ref_max_load_ > 0 && max_load > ref_max_load_ * margin) {
    cause |= kCauseLoad;
  }
  ResetBatch();
  if (cause != 0 && !repartition_pending_) {
    repartition_pending_ = true;
    ++repartitions_requested_;
    RepartitionRequest request;
    request.token = next_token_++;
    request.cause = cause;
    metrics_->OnRepartitionRequested(cause, out.now());
    out.Emit(Message(request));
  }
}

void DisseminatorBolt::ResetBatch() {
  batch_count_ = 0;
  batch_notifications_ = 0;
  std::fill(batch_per_calculator_.begin(), batch_per_calculator_.end(), 0);
}

void DisseminatorBolt::HandleFinalPartitions(const FinalPartitions& final,
                                             stream::Emitter<Message>& out) {
  if (final.epoch <= epoch_ && has_partitions()) return;  // Stale.
  CORRTRACK_CHECK(final.partitions != nullptr);
  const int old_k = has_partitions() ? partitions()->num_partitions() : 0;
  // Zero-copy install: adopt the broadcast's PartitionSet by reference.
  // Single Additions copy-on-write later (MutablePartitions); until then
  // every Disseminator and the Merger share one immutable instance.
  installed_partitions_ = final.partitions;
  owned_partitions_.reset();
  epoch_ = final.epoch;
  ref_avg_com_ = final.avg_com;
  ref_max_load_ = final.max_load;
  repartition_pending_ = false;
  uncovered_counts_.clear();
  cooldown_remaining_ = config_.repartition_latency_docs;
  const int new_k = partitions()->num_partitions();
  if (static_cast<size_t>(new_k) > batch_per_calculator_.size()) {
    batch_per_calculator_.resize(static_cast<size_t>(new_k), 0);
  }
  // Install protocol, quiesce step — additive mode only: the route table
  // above no longer sends old-epoch notifications, so a direct quiesce
  // marker is FIFO-ordered after each instance's last pre-install
  // notification — a clean epoch cut — and every previously-live
  // instance hands its counters to the new owners (ownership moves must
  // carry their state along, or period-split partials lose their union
  // contributions). Under max-CN nothing is migrated: summing a
  // retiree's counters into a survivor that observed overlapping
  // documents would double-count (the very overlap max-CN exists for),
  // so retirees simply keep their partial counters and report them at
  // their next tick (shutdown at the latest) for the max-CN dedup —
  // the paper's install semantics, unchanged.
  if (config_.tracker_merge == EstimateMerge::kAdditive) {
    for (int j = 0; j < old_k; ++j) {
      CalculatorQuiesce quiesce;
      quiesce.epoch = epoch_;
      out.EmitDirect(j, Message(quiesce));
    }
  }
  // Shrink step: instances the new k no longer uses leave the routing
  // mask. (Growth happened on the Merger side, before this install was
  // broadcast.)
  if (new_k < old_k && control_ != nullptr && calculator_component_ >= 0) {
    control_->ResizeComponent(calculator_component_, new_k);
    ++shrinks_;
    metrics_->OnTopologyResize(epoch_, old_k, new_k, out.now());
  }
  ResetBatch();
}

void DisseminatorBolt::HandleCounterHandoff(const CounterHandoff& handoff,
                                            stream::Emitter<Message>& out) {
  if (!has_partitions()) return;
  ++handoffs_routed_;
  // Re-route every fragment to its tagset's current owner, batched per
  // destination (ordered map: the simulator's bit-repeatability must not
  // depend on hash iteration order). Entries covered by no current
  // partition are dropped (exactness holds for covering, disjoint
  // partitionings — DS).
  std::map<int, CounterInject> per_owner;
  for (const auto& [tags, count] : handoff.entries) {
    const std::optional<int> owner = partitions()->CoveringPartition(tags);
    if (!owner.has_value()) {
      ++handoff_entries_dropped_;
      continue;
    }
    CounterInject& inject = per_owner[*owner];
    inject.epoch = epoch_;
    inject.entries.emplace_back(tags, count);
  }
  for (auto& [owner, inject] : per_owner) {
    out.EmitDirect(owner, Message(std::move(inject)));
  }
}

void DisseminatorBolt::HandleAdditionDecision(
    const SingleAdditionDecision& decision) {
  if (!has_partitions() || decision.epoch != epoch_) return;
  MutablePartitions()->AddTags(decision.calculator, decision.tags);
  uncovered_counts_.erase(decision.tags);
}

void DisseminatorBolt::ExportState(DisseminatorState* out) const {
  out->has_partitions = has_partitions();
  if (out->has_partitions) {
    FlattenPartitionSet(*partitions(), &out->partitions);
  } else {
    out->partitions = PartitionSetState();
  }
  out->epoch = epoch_;
  out->ref_avg_com = ref_avg_com_;
  out->ref_max_load = ref_max_load_;
  out->bootstrap_requested = bootstrap_requested_;
  out->repartition_pending = repartition_pending_;
  out->next_token = next_token_;
  out->repartitions_requested = repartitions_requested_;
  out->shrinks = shrinks_;
  out->handoffs_routed = handoffs_routed_;
  out->handoff_entries_dropped = handoff_entries_dropped_;
  out->cooldown_remaining = cooldown_remaining_;
  out->docs_seen = docs_seen_;
  out->next_forced = static_cast<uint64_t>(next_forced_);
  out->batch_count = batch_count_;
  out->batch_notifications = batch_notifications_;
  out->batch_per_calculator = batch_per_calculator_;
  out->uncovered_counts.assign(uncovered_counts_.begin(),
                               uncovered_counts_.end());
}

void DisseminatorBolt::RestoreState(const DisseminatorState& state) {
  installed_partitions_.reset();
  owned_partitions_.reset();
  if (state.has_partitions) {
    owned_partitions_ =
        std::make_unique<PartitionSet>(RebuildPartitionSet(state.partitions));
  }
  epoch_ = state.epoch;
  ref_avg_com_ = state.ref_avg_com;
  ref_max_load_ = state.ref_max_load;
  // A request whose reply was in flight at the cut is gone (end-of-stream
  // drops feedback traffic): restoring these flags as captured could leave
  // the pipeline waiting for an answer that never comes. Before the first
  // install the bootstrap must be re-issuable; afterwards a pending
  // repartition must be re-detectable. Re-issuing costs one duplicate
  // round at worst (tokens stay unique via next_token_) and never
  // corrupts state.
  bootstrap_requested_ = state.bootstrap_requested && state.has_partitions;
  repartition_pending_ = false;
  next_token_ = state.next_token;
  repartitions_requested_ = state.repartitions_requested;
  shrinks_ = state.shrinks;
  handoffs_routed_ = state.handoffs_routed;
  handoff_entries_dropped_ = state.handoff_entries_dropped;
  cooldown_remaining_ = state.cooldown_remaining;
  docs_seen_ = state.docs_seen;
  next_forced_ = static_cast<size_t>(state.next_forced);
  batch_count_ = state.batch_count;
  batch_notifications_ = state.batch_notifications;
  batch_per_calculator_ = state.batch_per_calculator;
  if (batch_per_calculator_.size() <
      static_cast<size_t>(config_.EffectiveMaxCalculators())) {
    batch_per_calculator_.resize(
        static_cast<size_t>(config_.EffectiveMaxCalculators()), 0);
  }
  uncovered_counts_.clear();
  for (const auto& [tags, count] : state.uncovered_counts) {
    // -1 marked "verdict pending" — but the verdict was in flight at the
    // cut and is gone. Rearm the entry one sighting short of the
    // threshold so the next occurrence re-requests the Single Addition
    // (the Merger's placement is idempotent: an already-covered tagset
    // just gets its decision confirmed).
    uncovered_counts_[tags] =
        count < 0 ? config_.single_addition_threshold - 1 : count;
  }
}

}  // namespace corrtrack::ops
