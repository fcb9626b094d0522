#ifndef CORRTRACK_SERVE_CORRELATION_INDEX_H_
#define CORRTRACK_SERVE_CORRELATION_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
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
/// a partially built snapshot. The shard is one block, in one allocation,
/// sorted by tagset (canonical order), as PeriodTable keeps a Tracker
/// period. Per entry:
///  - a 32-byte Record (coefficient, CN, union count and period);
///  - its first two tags packed into a word, a lane an exact lookup
///    binary-searches;
///  - where its tags end in a tag arena (they start where the previous
///    entry's end; an offset lane with a leading 0, as CSR).
/// That is 56 B per entry at 3 tags. Then CSR-shaped per-tag postings
/// (sorted tag keys + one flat index array), so TopCorrelated is a binary
/// search plus a contiguous copy. Every lane is a flat array in tagset
/// order, so the writer derives the next snapshot from this one by copying
/// unchanged runs in bulk and merging in only what changed.
class ShardSnapshot {
 public:
  /// One entry as a value: what a serve blob holds.
  struct Entry {
    TagSet tags;
    double coefficient = 0.0;
    uint64_t intersection_count = 0;
    uint64_t union_count = 0;
    Timestamp period_end = 0;
  };

  /// An entry's fixed numbers.
  struct Record {
    double coefficient;
    uint64_t intersection_count;
    uint64_t union_count;
    Timestamp period_end;
  };

  ShardSnapshot() = default;

  size_t size() const { return size_; }
  const Record& RecordAt(size_t entry) const { return records_[entry]; }
  /// The smallest tag of entry `entry`, read off the prefix lane.
  TagId FirstTagAt(size_t entry) const {
    return static_cast<TagId>(prefixes_[entry] >> 32);
  }
  TagSet TagsAt(size_t entry) const {
    return TagSet::FromSorted(TagsBegin(entry), TagsEnd(entry));
  }
  Entry EntryAt(size_t entry) const {
    const Record& r = records_[entry];
    return {TagsAt(entry), r.coefficient, r.intersection_count,
            r.union_count, r.period_end};
  }

  /// The record of `tags`, or nullptr when the shard does not hold it.
  const Record* FindSet(const TagSet& tags) const {
    const size_t entry = LowerBound(0, tags);
    return Holds(entry, tags) ? &records_[entry] : nullptr;
  }

  /// The head of `tag`'s postings: entry indices sorted by descending
  /// coefficient, at most `capacity` (ServeConfig::top_k_capacity) of
  /// them. The stored run is complete, so evicting one of the top entries
  /// promotes the next one exactly.
  std::pair<const uint32_t*, size_t> TopForTag(TagId tag,
                                               size_t capacity) const {
    const TagId* keys = tag_keys_;
    const TagId* keys_end = keys + num_keys_;
    const TagId* it = std::lower_bound(keys, keys_end, tag);
    if (it == keys_end || *it != tag) return {nullptr, 0};
    const size_t i = static_cast<size_t>(it - keys);
    const size_t run = postings_offsets_[i + 1] - postings_offsets_[i];
    return {postings_ + postings_offsets_[i], std::min(capacity, run)};
  }

  uint64_t epoch() const { return epoch_; }

 private:
  friend class CorrelationIndex;

  /// Room for at most `entries` entries, `tags` arena tags, `keys` tag
  /// keys and `postings` postings; the builder fills it.
  ShardSnapshot(size_t entries, size_t tags, size_t keys, size_t postings);

  /// A set's first two tags packed into one word (0 for a missing second
  /// tag, which no stored set lacks). Canonical tagset order sorts these
  /// too, so a lookup binary-searches this dense lane, not the entries.
  static uint64_t Prefix(const TagSet& tags) {
    return static_cast<uint64_t>(tags[0]) << 32 |
           (tags.size() > 1 ? tags[1] : 0);
  }

  const TagId* TagsBegin(size_t entry) const {
    return arena_ + tag_offsets_[entry];
  }
  const TagId* TagsEnd(size_t entry) const {
    return arena_ + tag_offsets_[entry + 1];
  }
  size_t NumTags() const { return size_ == 0 ? 0 : tag_offsets_[size_]; }
  size_t NumPostings() const {
    return num_keys_ == 0 ? 0 : postings_offsets_[num_keys_];
  }

  /// The first entry at or after `first` whose tagset does not order
  /// before `tags`. Entries of one prefix share their first two tags, so
  /// only the tags past those are compared; a set of two tags is found
  /// from the prefix and offset lanes alone. (A stored set has at least
  /// two tags, so `tags` has too when its prefix matches.)
  size_t LowerBound(size_t first, const TagSet& tags) const {
    const uint64_t prefix = Prefix(tags);
    auto entry = static_cast<size_t>(
        std::lower_bound(prefixes_ + first, prefixes_ + size_, prefix) -
        prefixes_);
    while (entry < size_ && prefixes_[entry] == prefix &&
           std::lexicographical_compare(TagsBegin(entry) + 2, TagsEnd(entry),
                                        tags.begin() + 2, tags.end())) {
      ++entry;
    }
    return entry;
  }
  /// Whether entry `entry` (possibly size()) holds `tags`.
  bool Holds(size_t entry, const TagSet& tags) const {
    return entry < size_ && prefixes_[entry] == Prefix(tags) &&
           std::equal(TagsBegin(entry) + 2, TagsEnd(entry), tags.begin() + 2,
                      tags.end());
  }

  std::unique_ptr<std::byte[]> block_;  // Every lane below.
  // By entry, in ascending tagset order.
  size_t size_ = 0;
  Record* records_ = nullptr;
  uint64_t* prefixes_ = nullptr;  // Prefix of the entry's tags.
  uint32_t* tag_offsets_ = nullptr;  // Its tags in arena_, CSR, size_ + 1.
  TagId* arena_ = nullptr;
  // Postings.
  size_t num_keys_ = 0;
  TagId* tag_keys_ = nullptr;            // Sorted tags owned by the shard.
  uint32_t* postings_offsets_ = nullptr;  // CSR offsets, num_keys_ + 1.
  uint32_t* postings_ = nullptr;          // Entries, per-tag coef-desc.
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
/// single writer (ApplyPeriod) hands each estimate once to each shard that
/// owns one of its tags, in tagset order, so every shard's changes form a
/// sorted run. A shard with a change, or holding an entry the retention
/// window just expired, builds its next snapshot off-path by one linear
/// merge of the published block with that run: unchanged runs of entries
/// are copied in bulk, expired entries are dropped in the same pass, and
/// postings are copied through a run-wise remap. A publish costs the bytes
/// the shard holds plus O(d log n) for d changes (only the d changes' own
/// postings are sorted). It then swaps the snapshot in; old snapshots are
/// reclaimed by shared_ptr once the last reader drops them.
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
  /// replace. Estimates with fewer than two tags are skipped. The Tracker
  /// forwards its values in tagset order; any other order is first put in
  /// tagset order by a stable sort of positions.
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
  /// shard holding a tagset twice or one none of whose tags it owns, a
  /// retention list that is not strictly ascending, or a retained period
  /// or entry newer than the blob's latest period.
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
  /// A change staged for one shard's next snapshot: the set `*tags` takes
  /// `record`, or leaves the shard when `erase`. `tags` points into the
  /// caller's input, which outlives the publish.
  struct Change {
    const TagSet* tags;
    ShardSnapshot::Record record;
    bool erase;
  };

  struct Shard {
    /// Bumped after every snapshot swap; readers poll this (one acquire
    /// load) instead of paying shared_ptr traffic per query.
    std::atomic<uint64_t> version{0};
    /// The published snapshot. Guarded by slot_mutex for the pointer swap
    /// and copy only; the pointee is immutable.
    mutable std::mutex slot_mutex;
    std::shared_ptr<const ShardSnapshot> slot;
    /// Writer-only: this call's changes, in tagset order, one per tagset.
    std::vector<Change> changes;
    /// Writer-only: no newer than the oldest period the published
    /// snapshot holds, so retention passes over the shards it cannot
    /// expire without scanning their entries.
    Timestamp oldest_period = kNoPeriod;
  };

  /// Above every period: the oldest period of a shard that holds nothing.
  static constexpr Timestamp kNoPeriod = std::numeric_limits<Timestamp>::max();

  /// Swaps in `snapshot` and bumps the shard's version (writer side).
  static void Publish(Shard& shard,
                      std::shared_ptr<const ShardSnapshot> snapshot);

  size_t ShardOf(TagId tag) const {
    return static_cast<size_t>(HashTagSpan(&tag, 1)) & shard_mask_;
  }

  /// Whether `shard`'s published snapshot holds an entry of a period
  /// before `cutoff`. Scans it only when its oldest_period bound is below
  /// the cutoff, and then makes the bound exact.
  static bool HoldsExpired(Shard& shard, Timestamp cutoff);

  /// Builds shard `s`'s next immutable snapshot by one merge of `base`
  /// (the shard's published snapshot, or an empty one to build from
  /// scratch) with its staged changes, dropping the unchanged entries of
  /// periods before `cutoff`, and clears the changes.
  std::shared_ptr<const ShardSnapshot> BuildSnapshot(
      size_t s, const ShardSnapshot& base, Timestamp cutoff, uint64_t epoch);

  /// Applies the retention policy to a call for `period_end`: once more
  /// than `retention_periods` distinct period-ends were seen, entries
  /// older than the newest `retention_periods` of them expire. Returns the
  /// oldest period still retained, or the lowest Timestamp when nothing
  /// expires.
  Timestamp EvictExpired(Timestamp period_end);

  ServeConfig config_;
  size_t num_shards_;
  size_t shard_mask_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<Timestamp> latest_period_{0};
  std::vector<Timestamp> recent_periods_;  // Writer-only, ascending.
  /// Writer-only buffers of BuildSnapshot, kept to reuse their capacity.
  struct {
    std::vector<uint32_t> remap;  // Base entry -> next entry, or gone.
    std::vector<TagId> touched;   // Owned tags of the changed tagsets.
    std::vector<std::pair<TagId, uint32_t>> pairs;  // New entries' postings.
    std::vector<uint32_t> survivors;  // A touched tag's remapped postings.
  } scratch_;
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
