#ifndef CORRTRACK_CORE_JACCARD_H_
#define CORRTRACK_CORE_JACCARD_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/flat_counter_table.h"
#include "core/tagset.h"

namespace corrtrack {

/// One reported coefficient (the Calculator -> Tracker tuple of §6.2:
/// (s_i, J(s_i), CN(s_i))).
struct JaccardEstimate {
  TagSet tags;
  double coefficient = 0.0;
  /// CN(s_i): documents containing *all* tags of the set — the counter the
  /// Tracker uses to pick among duplicate reports.
  uint64_t intersection_count = 0;
  /// Documents containing *any* tag of the set (inclusion–exclusion, Eq. 2).
  uint64_t union_count = 0;
};

/// How duplicate estimates of one tagset within one reporting period merge.
/// The Tracker and the serving index share the rule, so served state stays
/// bit-identical to the Tracker's period map under either policy.
enum class EstimateMerge {
  /// §6.2: keep the estimate with the larger counter CN. Correct under tag
  /// replication (SCC/SCL/SCI, or DS degraded by Single Additions), where
  /// several Calculators observe *overlapping* document sets for the same
  /// tagset — summing would double-count.
  kMaxCN,
  /// Sum intersection/union counts and recompute the coefficient. Exact
  /// for disjoint partitionings (DS without replication): each document is
  /// then observed by at most one Calculator per tagset, so the partial
  /// reports that an elastic resize splits across owners (old owner's
  /// residual counters, the install protocol's quiesce flush, the new
  /// owner's tail) are over *disjoint* document sets and add up to the
  /// centralised oracle's counts bit for bit.
  kAdditive,
};

/// Applies `policy` to merge `incoming` into `*entry` (same tagset, same
/// reporting period).
inline void MergeEstimate(JaccardEstimate* entry,
                          const JaccardEstimate& incoming,
                          EstimateMerge policy) {
  if (policy == EstimateMerge::kMaxCN) {
    if (incoming.intersection_count > entry->intersection_count) {
      *entry = incoming;
    }
    return;
  }
  entry->intersection_count += incoming.intersection_count;
  entry->union_count += incoming.union_count;
  // Same expression as SubsetCounterTable::Compute, so a sum of disjoint
  // partials reproduces the oracle's coefficient exactly.
  entry->coefficient = entry->union_count > 0
                           ? static_cast<double>(entry->intersection_count) /
                                 static_cast<double>(entry->union_count)
                           : 0.0;
}

namespace jaccard_internal {

/// One counter on its way into TagSet::operator< order, named by the tags of
/// `root`'s key selected by `mask` (bit i = the root's i-th tag). In a
/// report many records share one root, so the tie compares of equal
/// prefixes mostly read root keys that are already in cache.
struct SortRecord {
  uint64_t prefix;  // The first two selected tags; see SortPrefix.
  uint32_t root;    // A table slot.
  uint32_t mask;
  uint64_t count;
  int64_t union_count;  // ReportAll only.
};

}  // namespace jaccard_internal

/// The Calculator's counting state (§3.1): one exact counter per observed
/// co-occurring tagset.
///
/// Observe(s) increments the counter of every non-empty subset of s, so
/// counter(A) = number of observed notifications containing all tags of A.
/// When the partition covering this calculator holds all tags of A, that
/// equals |∩_{t∈A} T_t| exactly, and Eq. 2 recovers |∪ T_t| from the
/// counters, giving the exact Jaccard coefficient of Eq. 1 — no sketches
/// (§2 argues Bloom/Count-Min false positives are counter-productive here).
///
/// Counters live in a FlatCounterTable keyed by PackedTagKey: Observe is a
/// packed-key subset enumeration feeding a probe+increment loop — no TagSet
/// construction, no node allocation per subset.
class SubsetCounterTable {
 public:
  SubsetCounterTable() = default;

  /// Counts one document/notification. All non-empty subsets of `tags` get
  /// +1. Requires tags.size() <= kMaxTagsPerDocument.
  void Observe(const TagSet& tags);

  /// Adds `count` to exactly the counter of `tags` — no subset
  /// enumeration. The state-migration primitive of the elastic install
  /// protocol: counter tables are linear (entry-wise sums), so injecting
  /// another table's exported counters reproduces the table that would
  /// have counted both observation sets directly.
  void Add(const TagSet& tags, uint64_t count);

  /// Exports every live counter as (tags, count), sorted by tagset — the
  /// handoff fragments a quiesced Calculator ships to the new owners.
  std::vector<std::pair<TagSet, uint64_t>> ExportCounters() const;

  /// Counter value for `tags` (0 when never observed together).
  uint64_t Count(const TagSet& tags) const;

  /// The Jaccard coefficient of `tags` from the current counters, or
  /// std::nullopt when the tags never co-occurred (counter 0).
  std::optional<JaccardEstimate> Compute(const TagSet& tags) const;

  /// Computes coefficients for every tracked tagset with at least two tags
  /// and intersection count > `min_support` ("the maximum possible number
  /// of Jaccard coefficients", §6.2). Deterministic order (sorted by
  /// tagset). Same integers as calling Compute on each set, but each set is
  /// computed once from a dense lattice: every counter not contained in a
  /// larger, earlier root is a root, and one subset-sum pass over the
  /// signed counters of its 2^k subsets (k·2^k additions, 2^k − 1 probes)
  /// yields the union count of every subset at once, instead of 3^k probes
  /// for the set and its subsets.
  std::vector<JaccardEstimate> ReportAll(uint64_t min_support = 0) const;

  /// Number of live counters (co-occurring tagsets incl. singletons).
  size_t num_counters() const { return counters_.size(); }

  /// Deletes all counters (after each reporting period, §6.2). Keeps the
  /// table's capacity: in steady state a Calculator re-fills roughly the
  /// same number of counters every period without reallocating.
  void Reset() { counters_.Reset(); }

 private:
  /// Working storage of ReportAll and ExportCounters, kept across periods:
  /// a table re-reports roughly the same number of counters every period,
  /// so each report reuses the last one's pages instead of faulting in
  /// fresh ones. Mutable because reporting is logically const; a table is
  /// used by one thread at a time.
  struct Scratch {
    std::vector<uint32_t> roots_by_size[PackedTagKey::kCapacity + 1];
    std::vector<uint8_t> visited;
    std::vector<jaccard_internal::SortRecord> records;
    std::vector<jaccard_internal::SortRecord> radix_buffer;
    std::vector<PackedTagKey> subset_keys;
    std::vector<int64_t> lattice;
    std::vector<size_t> lattice_slot;
  };

  FlatCounterTable counters_;
  mutable Scratch scratch_;
};

}  // namespace corrtrack

#endif  // CORRTRACK_CORE_JACCARD_H_
