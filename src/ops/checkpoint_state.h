#ifndef CORRTRACK_OPS_CHECKPOINT_STATE_H_
#define CORRTRACK_OPS_CHECKPOINT_STATE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/document.h"
#include "core/jaccard.h"
#include "core/partition.h"
#include "core/tagset.h"
#include "core/types.h"

namespace corrtrack::ops {

/// In-memory snapshots of every bolt's durable state, captured at an epoch
/// cut (the end-of-stream drain of a bounded segment — see
/// ops/checkpoint_runner.h for why that drain *is* a consistent cut). The
/// structs deliberately mirror each bolt's private members one-for-one:
/// restore re-injects them through the bolt factories, and the kill-restore
/// differential test asserts the continuation is bit-identical to an
/// uninterrupted run, which only holds if nothing is summarised away.
///
/// Serialisation lives in ops/pipeline_checkpoint.{h,cc}; these structs are
/// the layer the bolts themselves see (no storage dependency here, so unit
/// tests can exercise Export/Restore round-trips without any I/O).

/// PartitionSetState (core/partition.h) is a PartitionSet flattened;
/// these two convert between them.
inline void FlattenPartitionSet(const PartitionSet& ps,
                                PartitionSetState* out) {
  const int k = ps.num_partitions();
  out->partition_tags.clear();
  out->partition_tags.reserve(static_cast<size_t>(k));
  for (int p = 0; p < k; ++p) {
    out->partition_tags.push_back(ps.SortedTags(p));
  }
  out->loads = ps.loads();
}

inline PartitionSet RebuildPartitionSet(const PartitionSetState& state) {
  PartitionSet ps(static_cast<int>(state.partition_tags.size()));
  for (size_t p = 0; p < state.partition_tags.size(); ++p) {
    for (TagId tag : state.partition_tags[p]) {
      ps.AddTag(static_cast<int>(p), tag);
    }
    if (p < state.loads.size()) {
      ps.AddLoad(static_cast<int>(p), state.loads[p]);
    }
  }
  return ps;
}

/// CalculatorBolt: the exact subset-counter table (exported sorted; Add()
/// per entry reproduces the table — counter tables are linear) plus the
/// epoch stamp. Captured for every *constructed* instance, live or retired:
/// under max-CN a retiree keeps partial counters it will report at its next
/// tick, and dropping them would lose reports an uninterrupted run emits.
struct CalculatorState {
  int instance = -1;
  Epoch epoch = 0;
  uint64_t quiesces = 0;
  std::vector<std::pair<TagSet, uint64_t>> counters;
};

/// TrackerBolt: the full period map. Each period's estimates are exported
/// in tagset order (the PeriodTable's); a restore accepts any order, so a
/// checkpoint written in insertion order restores to the same map.
struct TrackerState {
  uint64_t reports_received = 0;
  Epoch latest_epoch = 0;
  std::map<Timestamp, std::vector<JaccardEstimate>> periods;
};

/// CentralizedBolt (the §8.2.3 oracle): its counter table and period map,
/// so a restored run's error comparison covers the whole stream.
struct CentralizedState {
  std::vector<std::pair<TagSet, uint64_t>> counters;
  std::map<Timestamp, std::vector<JaccardEstimate>> periods;
};

/// DisseminatorBolt: route table (COW state collapsed — the restored bolt
/// owns its copy outright), monitoring references, the §7.1/§7.2
/// accumulators and the token counter (tokens must stay unique across the
/// restore or a new round would collide with a pre-checkpoint one).
struct DisseminatorState {
  bool has_partitions = false;
  PartitionSetState partitions;  // Valid when has_partitions.
  Epoch epoch = 0;
  double ref_avg_com = 0.0;
  double ref_max_load = 0.0;
  bool bootstrap_requested = false;
  bool repartition_pending = false;
  uint32_t next_token = 1;
  uint64_t repartitions_requested = 0;
  uint64_t shrinks = 0;
  uint64_t handoffs_routed = 0;
  uint64_t handoff_entries_dropped = 0;
  int cooldown_remaining = 0;
  uint64_t docs_seen = 0;
  uint64_t next_forced = 0;
  uint64_t batch_count = 0;
  uint64_t batch_notifications = 0;
  std::vector<uint64_t> batch_per_calculator;
  /// Insertion order. -1 ("verdict pending") entries are rearmed on
  /// restore: the verdict was in flight at the cut and is gone, so the
  /// entry restarts one sighting short of the threshold and re-requests on
  /// the next occurrence (idempotent on the Merger side).
  std::vector<std::pair<TagSet, int>> uncovered_counts;
};

/// MergerBolt: the master partition copy and epoch. Pending proposal rounds
/// are NOT captured — their request/proposal messages were in flight on
/// feedback edges at the cut and are gone (engine contract); the capture
/// records that fact so the checkpoint can be flagged clean_cut=false.
struct MergerState {
  bool has_master = false;
  PartitionSetState master;  // Valid when has_master.
  Epoch epoch = 0;
  uint64_t single_additions = 0;
  uint64_t grows = 0;
  bool had_pending_rounds = false;
};

/// ParserBolt: the tag dictionary, names in id order. Replaying GetOrAdd
/// in that order reassigns the identical dense ids, so every TagId in the
/// restored run's counters, partitions and reports keeps its meaning —
/// without this, a rebuilt parser restarts interning at 0 and the
/// continuation silently diverges from the uninterrupted run.
struct ParserState {
  std::vector<std::string> tags;
};

/// PartitionerBolt: the sliding window (oldest first; re-Add() in order
/// reproduces eviction state exactly) and the round-dedup token.
struct PartitionerState {
  int instance = -1;
  uint32_t last_token = 0;
  bool answered_any = false;
  std::vector<Document> window;
};

/// Everything a checkpoint carries above the storage layer: the cut header
/// plus one state struct per constructed bolt instance. `serve_blob` is the
/// serving index's own exported state (serve::CorrelationIndex), opaque at
/// this layer.
struct PipelineCheckpointState {
  uint64_t docs_ingested = 0;  ///< Spout position of the cut.
  Timestamp last_time = 0;     ///< Newest virtual timestamp emitted.
  Epoch epoch = 0;             ///< Disseminator's installed epoch.
  int live_calculators = 0;    ///< Active routing mask at the cut.
  int max_calculators = 0;     ///< Provisioned ceiling at the cut.
  bool clean_cut = true;

  std::vector<CalculatorState> calculators;    // One per constructed bolt.
  std::vector<PartitionerState> partitioners;  // One per instance.
  ParserState parser;  // The single Parser's dictionary (§8.2: one Parser).
  TrackerState tracker;
  DisseminatorState disseminator;
  MergerState merger;
  bool has_centralized = false;
  CentralizedState centralized;  // Valid when has_centralized.
  std::string serve_blob;        // Empty when no serve index was attached.
};

}  // namespace corrtrack::ops

#endif  // CORRTRACK_OPS_CHECKPOINT_STATE_H_
