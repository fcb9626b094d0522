#include "ops/partitioner_op.h"

#include <utility>

#include "core/cooccurrence.h"

namespace corrtrack::ops {

PartitionerBolt::PartitionerBolt(const PipelineConfig& config, int instance)
    : config_(config),
      instance_(instance),
      algorithm_(MakeAlgorithm(config.algorithm)),
      window_(config.window_span) {}

void PartitionerBolt::Execute(const stream::Envelope<Message>& in,
                              stream::Emitter<Message>& out) {
  if (const auto* parsed = std::get_if<ParsedDoc>(&in.payload())) {
    HandleDoc(*parsed);
  } else if (const auto* request =
                 std::get_if<RepartitionRequest>(&in.payload())) {
    HandleRequest(*request, out);
  }
}

void PartitionerBolt::HandleDoc(const ParsedDoc& parsed) {
  window_.Add(parsed.doc);
}

void PartitionerBolt::HandleRequest(const RepartitionRequest& request,
                                    stream::Emitter<Message>& out) {
  // One proposal per round: duplicate requests with an already-answered
  // token are dropped (e.g. replays in the pool runtime).
  if (answered_any_ && request.token == last_token_) return;
  last_token_ = request.token;
  answered_any_ = true;

  const CooccurrenceSnapshot snapshot =
      CooccurrenceSnapshot::FromDocuments(window_.begin(), window_.end());
  PartitionProposal proposal;
  proposal.token = request.token;
  proposal.partitioner = instance_;
  // Salt the seed with instance and round so SCI's shuffles differ across
  // instances and rounds but stay reproducible.
  const uint64_t seed = config_.seed ^
                        (static_cast<uint64_t>(instance_) << 32) ^
                        request.token;
  proposal.fragments =
      algorithm_->ProposeFragments(snapshot, config_.num_calculators, seed);
  proposal.window_tagsets.reserve(snapshot.tagsets().size());
  for (const TagsetStats& stats : snapshot.tagsets()) {
    proposal.window_tagsets.emplace_back(stats.tags, stats.count);
  }
  out.Emit(Message(std::move(proposal)));
}

void PartitionerBolt::ExportState(PartitionerState* out) const {
  out->instance = instance_;
  out->last_token = last_token_;
  out->answered_any = answered_any_;
  out->window.assign(window_.begin(), window_.end());
}

void PartitionerBolt::RestoreState(const PartitionerState& state) {
  last_token_ = state.last_token;
  answered_any_ = state.answered_any;
  // Rebuild the window by replaying its documents oldest-first: the time
  // bound re-applies exactly as it did the first time, so eviction state
  // matches the captured window.
  window_ = SlidingWindow(window_.span());
  for (const Document& doc : state.window) {
    window_.Add(doc);
  }
}

}  // namespace corrtrack::ops
