#ifndef CORRTRACK_SERVE_CORRELATION_INDEX_H_
#define CORRTRACK_SERVE_CORRELATION_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/jaccard.h"
#include "core/tagset.h"
#include "core/types.h"
#include "serve/serve_config.h"
#include "telemetry/registry.h"

namespace corrtrack::serve {

/// One ranked answer of TopCorrelated / Snapshot: a tagset, its Jaccard
/// coefficient, and the reporting period the value came from.
struct ScoredSet {
  TagSet tags;
  double coefficient = 0.0;
  Timestamp period_end = 0;
};

/// The answer to an exact Lookup, with provenance: which reporting period
/// produced the value (freshness) and which published index epoch answered.
struct LookupResult {
  double coefficient = 0.0;
  uint64_t intersection_count = 0;
  uint64_t union_count = 0;
  Timestamp period_end = 0;  ///< Freshness: the value's reporting period.
  uint64_t epoch = 0;        ///< Publish epoch of the answering snapshot.
};

/// Immutable, epoch-versioned read view of one shard. Built off the read
/// path by the single writer and published wholesale; readers never observe
/// a partially built snapshot. Layout is read-optimised: a dense entry
/// array sorted by tagset (an exact lookup binary-searches a lane of the
/// sets' first two tags) and CSR-shaped per-tag postings (sorted tag keys
/// + one flat index array) so TopCorrelated is a binary search plus a
/// contiguous copy. The sorted layout is also what lets the writer derive
/// the next snapshot from this one by merging in only what changed.
class ShardSnapshot {
 public:
  struct Entry {
    TagSet tags;
    double coefficient = 0.0;
    uint64_t intersection_count = 0;
    uint64_t union_count = 0;
    Timestamp period_end = 0;
  };

  ShardSnapshot() = default;

  /// The entry for `tags`, or nullptr when the shard does not hold it.
  const Entry* FindSet(const TagSet& tags) const {
    const uint64_t prefix = Prefix(tags);
    for (size_t i = static_cast<size_t>(
             std::lower_bound(prefixes_.begin(), prefixes_.end(), prefix) -
             prefixes_.begin());
         i < prefixes_.size() && prefixes_[i] == prefix; ++i) {
      if (entries_[i].tags == tags) return &entries_[i];
    }
    return nullptr;
  }

  /// The head of `tag`'s postings: entry indices sorted by descending
  /// coefficient, at most `capacity` (ServeConfig::top_k_capacity) of
  /// them. The stored run is complete, so evicting one of the top entries
  /// promotes the next one exactly.
  std::pair<const uint32_t*, size_t> TopForTag(TagId tag,
                                               size_t capacity) const {
    const auto it = std::lower_bound(tag_keys_.begin(), tag_keys_.end(), tag);
    if (it == tag_keys_.end() || *it != tag) return {nullptr, 0};
    const size_t i = static_cast<size_t>(it - tag_keys_.begin());
    const size_t run = postings_offsets_[i + 1] - postings_offsets_[i];
    return {postings_.data() + postings_offsets_[i], std::min(capacity, run)};
  }

  const std::vector<Entry>& entries() const { return entries_; }
  uint64_t epoch() const { return epoch_; }

 private:
  friend class CorrelationIndex;

  /// A set's first two tags packed into one word (0 for a missing second
  /// tag, which no stored set lacks). Canonical tagset order sorts these
  /// too, so a lookup binary-searches this dense lane, not the entries.
  static uint64_t Prefix(const TagSet& tags) {
    return static_cast<uint64_t>(tags[0]) << 32 |
           (tags.size() > 1 ? tags[1] : 0);
  }

  std::vector<Entry> entries_;         // Sorted by tagset (canonical order).
  std::vector<uint64_t> prefixes_;     // Prefix(entries_[i].tags).
  std::vector<TagId> tag_keys_;        // Sorted tags owned by this shard.
  std::vector<size_t> postings_offsets_;  // CSR offsets, size keys + 1.
  std::vector<uint32_t> postings_;     // Entry indices, per-tag coef-desc.
  uint64_t epoch_ = 0;
};

/// The serving layer: a sharded index over the Tracker's (or the
/// centralised baseline's) period results that answers concurrent queries
/// with zero locks on the read path.
///
/// Sharding: a tag lives in shard HashTagSpan(tag) & mask (power-of-two
/// shard count, the FlatCounterTable hashing discipline). An entry (one
/// tagset's latest coefficient) is replicated into every shard that owns
/// one of its tags, so each shard can answer TopCorrelated for its tags
/// locally; exact Lookups go to the *home* shard — the shard of the set's
/// smallest tag.
///
/// Concurrency (RCU-style): each shard publishes an immutable
/// ShardSnapshot, which is also the only copy of the shard's entries. The
/// single writer (ApplyPeriod) stages each touched shard's changes — a
/// tagset's new entry, or a tombstone — and builds the shard's next
/// snapshot off-path by merging them into the published one — O(n + d log
/// d) for d changes, not a rebuild of the shard — then swaps it in; old
/// snapshots are reclaimed by shared_ptr once the last reader drops them.
/// Readers go through per-thread Reader handles that cache the shared_ptr
/// per shard and re-copy it only when the shard's atomic version counter
/// changed, so a steady-state query performs no reference-count traffic
/// and takes no lock at all — one atomic load, then reads of immutable
/// memory.
///
/// The publication slot itself is a mutex-guarded shared_ptr rather than a
/// std::atomic<std::shared_ptr>: libstdc++'s _Sp_atomic is internally a
/// pointer-wide spinlock paid on *every* load — the version-counter fast
/// path already removes that cost from the query path, so the atomic type
/// would only add its unannotated lock-bit protocol, which ThreadSanitizer
/// (the CI gate on exactly this code) flags as a race in GCC 12. The slot
/// mutex is touched once per publish per shard by the writer and at most
/// once per publish per shard by each reader.
///
/// Writer contract: ApplyPeriod calls must be externally serialised (one
/// ingest thread — the Tracker task in the pool runtime). Readers may
/// run on any number of threads concurrently with the writer.
class CorrelationIndex {
 public:
  explicit CorrelationIndex(const ServeConfig& config = ServeConfig());

  CorrelationIndex(const CorrelationIndex&) = delete;
  CorrelationIndex& operator=(const CorrelationIndex&) = delete;

  /// Ingests the values the Tracker settled on for `period_end` (single
  /// writer; ops::PeriodSink's contract). The index never merges: a value
  /// replaces the stored one of the same or an older period and is ignored
  /// when that is newer; of one tagset twice in a call the later wins. A
  /// value below ServeConfig::min_coefficient removes the one it would
  /// replace. Estimates with fewer than two tags are skipped.
  void ApplyPeriod(Timestamp period_end,
                   const std::vector<JaccardEstimate>& estimates);

  /// Read handle with per-shard snapshot caching; create one per reader
  /// thread. The handle must not outlive the index. Queries on one handle
  /// are not thread-safe with each other (the cache is mutated) — share
  /// nothing, as with the topology's bolts.
  class Reader {
   public:
    /// Top-`k` sets correlated with `tag`, highest coefficient first.
    /// Returns the number of results written to `*out` (cleared first).
    size_t TopCorrelated(TagId tag, size_t k,
                         std::vector<ScoredSet>* out) const;

    /// Exact coefficient of `tags` with provenance, or nullopt when the
    /// index does not (or no longer) hold the set.
    std::optional<LookupResult> Lookup(const TagSet& tags) const;

    /// All sets with coefficient >= `min_jaccard`, highest first
    /// (deterministic tie-break by tagset). Returns the count written to
    /// `*out` (cleared first). Dashboard-style full scan: touches every
    /// shard once.
    size_t Snapshot(double min_jaccard, std::vector<ScoredSet>* out) const;

    /// Number of distinct sets currently servable (home entries only).
    size_t TotalSets() const;

   private:
    friend class CorrelationIndex;

    explicit Reader(const CorrelationIndex* index);

    /// Returns the shard's current snapshot, refreshing the cached
    /// shared_ptr only when the shard's version counter moved.
    const ShardSnapshot* Acquire(size_t shard) const;

    struct Slot {
      uint64_t version = 0;
      std::shared_ptr<const ShardSnapshot> snapshot;
    };

    const CorrelationIndex* index_;
    mutable std::vector<Slot> slots_;
  };

  Reader NewReader() const { return Reader(this); }

  /// Registers this index's instruments in `registry` (query latency
  /// histograms per op, apply latency, publish-epoch and freshness
  /// gauges) and starts
  /// recording into them. Call before readers or the writer run — the
  /// handle installation itself is not synchronised. Null detaches.
  void AttachTelemetry(telemetry::MetricRegistry* registry);

  /// Wall clock (telemetry::MonotonicNanos) of the last ApplyPeriod that
  /// published new snapshots; 0 until the first publish. Always maintained
  /// (one relaxed store per publish), so "snapshot age" diagnostics work
  /// even without an attached registry.
  int64_t last_publish_wall_ns() const {
    return last_publish_wall_ns_.load(std::memory_order_relaxed);
  }

  /// Checkpoint support (writer-side, externally serialised like
  /// ApplyPeriod): serialises each shard's published entries in tagset
  /// order, the retention window and the publish counters into `out`.
  /// RestoreState parses a blob back (entries in any order) and
  /// republishes every shard, so a restored index serves exactly what the
  /// captured one did. Returns false (leaving the index untouched) on a
  /// malformed blob (trailing bytes included), a shard-count mismatch, or a
  /// shard holding a tagset twice or one none of whose tags it owns.
  void ExportState(std::string* out) const;
  bool RestoreState(std::string_view blob);

  /// Monotone publish counter: bumped once per ApplyPeriod that changed
  /// anything.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Newest period-end ever ingested (freshness horizon of the index).
  Timestamp latest_period() const {
    return latest_period_.load(std::memory_order_acquire);
  }

  size_t num_shards() const { return num_shards_; }
  const ServeConfig& config() const { return config_; }

 private:
  /// A change staged for one shard's next snapshot: `entry` replaces the
  /// stored entry of its tagset, or removes it when `erase`.
  struct Change {
    ShardSnapshot::Entry entry;
    bool erase = false;
  };

  struct Shard {
    /// Bumped after every snapshot swap; readers poll this (one acquire
    /// load) instead of paying shared_ptr traffic per query.
    std::atomic<uint64_t> version{0};
    /// The published snapshot. Guarded by slot_mutex for the pointer swap
    /// and copy only; the pointee is immutable.
    mutable std::mutex slot_mutex;
    std::shared_ptr<const ShardSnapshot> slot;
    /// Writer-only: changes since the last publish, in staging order (a
    /// tagset's last change wins); the shard republishes when non-empty.
    std::vector<Change> changes;
  };

  /// Swaps in `snapshot` and bumps the shard's version (writer side).
  static void Publish(Shard& shard,
                      std::shared_ptr<const ShardSnapshot> snapshot);

  size_t ShardOf(TagId tag) const {
    return static_cast<size_t>(HashTagSpan(&tag, 1)) & shard_mask_;
  }

  /// Builds shard `s`'s next immutable snapshot by merging its staged
  /// changes into `base` (the shard's published snapshot, or an empty one
  /// to build from scratch), and clears the changes.
  std::shared_ptr<const ShardSnapshot> BuildSnapshot(
      size_t s, const ShardSnapshot& base, uint64_t epoch);

  /// Applies the retention policy to a call for `period_end`: once more
  /// than `retention_periods` distinct period-ends were seen, stages a
  /// tombstone for every published entry older than the newest
  /// `retention_periods` of them. Returns the oldest period still retained,
  /// or the lowest Timestamp when nothing expires.
  Timestamp EvictExpired(Timestamp period_end);

  ServeConfig config_;
  size_t num_shards_;
  size_t shard_mask_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<Timestamp> latest_period_{0};
  std::vector<Timestamp> recent_periods_;  // Writer-only, ascending.
  std::atomic<int64_t> last_publish_wall_ns_{0};
  // Instrumentation handles (null = detached). Histogram Record is
  // lock-free, so readers share them without coordination.
  telemetry::LatencyHistogram* query_top_hist_ = nullptr;
  telemetry::LatencyHistogram* query_lookup_hist_ = nullptr;
  telemetry::LatencyHistogram* query_scan_hist_ = nullptr;
  telemetry::LatencyHistogram* apply_hist_ = nullptr;
  telemetry::Gauge* epoch_gauge_ = nullptr;
  telemetry::Gauge* latest_period_gauge_ = nullptr;
};

}  // namespace corrtrack::serve

#endif  // CORRTRACK_SERVE_CORRELATION_INDEX_H_
