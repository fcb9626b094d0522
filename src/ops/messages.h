#ifndef CORRTRACK_OPS_MESSAGES_H_
#define CORRTRACK_OPS_MESSAGES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/document.h"
#include "core/jaccard.h"
#include "core/partition.h"
#include "core/partitioning.h"
#include "core/tagset.h"
#include "core/types.h"
#include "telemetry/trace.h"

namespace corrtrack::ops {

/// Wire protocol of the Fig. 2 topology. Every component communicates with
/// one std::variant message type; bolts ignore alternatives that are not
/// addressed to them (the engine's subscriptions are per-producer, like
/// Storm streams).
///
/// Payload memory model: every envelope owns its Message by value. An
/// emission with one destination moves the message through; a fan-out to
/// k destinations copies it k - 1 times (stream/routing.h). A message type
/// that broadcasts bulk must therefore carry the bulk behind
/// shared_ptr<const T>, so a copy costs a refcount bump: FinalPartitions
/// does this for the Merger's install broadcast. Everything else that fans
/// out (a ParsedDoc, a SingleAdditionDecision) is small and keeps its tags
/// inline. A consumer may take its own
/// envelope's message apart through Envelope::MutablePayload; a consumer
/// that mutates shared bulk copies it first
/// (DisseminatorBolt::MutablePartitions).

/// Source -> Parser (shuffle): a raw tweet. `text` carries the hashtags
/// inline ("... #tag ..."), exactly what the paper's Parser extracts.
struct RawTweet {
  DocId id = 0;
  Timestamp time = 0;
  std::string text;
};

/// Parser -> {Partitioner (fields on tagset), Disseminator (shuffle),
/// Centralized baseline (global)}: (timestamp_i, s_i). `trace` is the
/// sampled telemetry span stamped by the Parser (trace_id 0 = untraced);
/// stages deriving messages from a traced doc propagate it.
struct ParsedDoc {
  Document doc;
  telemetry::TraceSpan trace;
};

/// Partitioner -> Merger (global): the instance's proposal for repartition
/// round `token` — its fragments (disjoint sets for DS, local partitions
/// for the set-cover family) plus its window's distinct tagsets, which the
/// Merger needs to compute the reference quality of the final partitions.
struct PartitionProposal {
  uint32_t token = 0;
  int partitioner = -1;
  std::vector<PartitionFragment> fragments;
  std::vector<std::pair<TagSet, uint64_t>> window_tagsets;
};

/// Merger -> Disseminator (all): the final k partitions with their
/// reference quality (partitions, avgCom, maxLoad) of §7.2.
struct FinalPartitions {
  Epoch epoch = 0;
  std::shared_ptr<const PartitionSet> partitions;
  double avg_com = 0.0;
  double max_load = 0.0;
};

/// Disseminator -> Calculator (direct): a notification s_i^j — the subset
/// of a document's tags held by the target Calculator. `trace` is inherited
/// from the originating ParsedDoc (hop re-stamped at the Disseminator).
struct Notification {
  TagSet tags;
  Epoch epoch = 0;
  telemetry::TraceSpan trace;
};

/// Disseminator -> Merger (global): tagset seen `sn` times with no covering
/// Calculator (§7.1).
struct UncoveredTagset {
  TagSet tags;
  Epoch epoch = 0;
};

/// Merger -> Disseminator (all): the Single Addition verdict — which
/// Calculator was assigned `tags` (§7.1: sent to all Disseminators,
/// whether they asked or not).
struct SingleAdditionDecision {
  TagSet tags;
  int calculator = -1;
  Epoch epoch = 0;
};

/// Disseminator -> Partitioner (all): partition quality degraded beyond
/// thr; create new partitions from the current windows (§7.2). `cause` is
/// a bitmask of RepartitionCause values — the paper's Figure 6 splits
/// repartitions into Communication / Load / Both.
struct RepartitionRequest {
  uint32_t token = 0;
  uint8_t cause = 0;
};

inline constexpr uint8_t kCauseCommunication = 1;
inline constexpr uint8_t kCauseLoad = 2;

/// Disseminator -> Calculator (direct): the elastic install protocol's
/// quiesce marker. Because the notification edge is per-edge FIFO, the
/// marker arrives *after* the last notification the old route table sent
/// this instance — a clean epoch cut. The Calculator answers by handing
/// off its entire unreported counter table (CounterHandoff) and resetting,
/// so across an install no observation is dropped (everything migrates)
/// and none is double-counted (the table is empty afterwards; retired
/// instances leave the routing mask, surviving ones resume from zero under
/// the new ownership).
struct CalculatorQuiesce {
  Epoch epoch = 0;  ///< The installing epoch.
};

/// Calculator -> Disseminator (global, feedback): the quiesced instance's
/// exported SubsetCounterTable — every live counter as (tags, count). The
/// Disseminator re-routes each fragment to the tagset's *current* covering
/// Calculator (CounterInject). Counter tables are linear, so the entry-
/// wise migration reproduces at the new owner exactly the table that
/// would have counted both observation sets — which is what keeps the
/// additive Tracker bit-identical to the centralised oracle across
/// resizes. Like all feedback traffic, a handoff still in flight at
/// end-of-stream is dropped (engine contract); installs are in-stream
/// events, periods behind them by construction.
struct CounterHandoff {
  int from_calculator = -1;
  Epoch epoch = 0;
  std::vector<std::pair<TagSet, uint64_t>> entries;
};

/// Disseminator -> Calculator (direct): migrated counter fragments for
/// tagsets this instance now owns; merged into the live table with
/// SubsetCounterTable::Add.
struct CounterInject {
  Epoch epoch = 0;
  std::vector<std::pair<TagSet, uint64_t>> entries;
};

/// Calculator -> Tracker (global): the coefficients of one reporting
/// period, each carrying its counter CN(s_i) for the Tracker's
/// max-CN dedup heuristic (§6.2). `epoch` stamps the newest partition
/// epoch the Calculator had seen when it reported — quiesce flushes from a
/// resizing topology arrive epoch-stamped so downstream consumers (Tracker
/// stats, serve ingest) can attribute them.
struct JaccardReport {
  int calculator = -1;
  Epoch epoch = 0;
  Timestamp period_end = 0;
  std::vector<JaccardEstimate> estimates;
  /// Stamped fresh at the emitting Calculator's tick (reports are periodic,
  /// not per-doc, so every report is traced when telemetry is attached).
  telemetry::TraceSpan trace;
};

using Message =
    std::variant<RawTweet, ParsedDoc, PartitionProposal, FinalPartitions,
                 Notification, UncoveredTagset, SingleAdditionDecision,
                 RepartitionRequest, CalculatorQuiesce, CounterHandoff,
                 CounterInject, JaccardReport>;

/// Fields-grouping hash for Parser -> Partitioner: the whole tagset s_i, so
/// identical tagsets always reach the same Partitioner instance (§6.2).
inline size_t TagsetFieldHash(const Message& msg) {
  const auto* parsed = std::get_if<ParsedDoc>(&msg);
  if (parsed == nullptr) return 0;
  return parsed->doc.tags.Hash();
}

}  // namespace corrtrack::ops

#endif  // CORRTRACK_OPS_MESSAGES_H_
