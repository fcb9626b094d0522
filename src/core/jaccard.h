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
/// The Tracker and the serving index share the rule: the Tracker applies it
/// and forwards what it settled on, so served state stays bit-identical to
/// the Tracker's period map under either policy.
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
  /// centralised oracle's counts bit for bit. BuildCorrelationTopology
  /// refuses it with the tag-replicating SCC, SCL and SCI.
  kAdditive,
};

/// Applies `policy` to merge `incoming` into `*entry` (same tagset, same
/// reporting period). `Entry` is a JaccardEstimate or any record of its
/// three numbers (`coefficient`, `intersection_count`, `union_count`), such
/// as a PeriodTable entry's; only those three are read and written.
/// Returns whether `*entry` changed (always, under the additive merge).
template <typename Entry>
inline bool MergeEstimate(Entry* entry, const JaccardEstimate& incoming,
                          EstimateMerge policy) {
  if (policy == EstimateMerge::kMaxCN) {
    if (incoming.intersection_count <= entry->intersection_count) return false;
    entry->coefficient = incoming.coefficient;
    entry->intersection_count = incoming.intersection_count;
    entry->union_count = incoming.union_count;
    return true;
  }
  entry->intersection_count += incoming.intersection_count;
  entry->union_count += incoming.union_count;
  // Same expression as SubsetCounterTable::Compute, so a sum of disjoint
  // partials reproduces the oracle's coefficient exactly.
  entry->coefficient = entry->union_count > 0
                           ? static_cast<double>(entry->intersection_count) /
                                 static_cast<double>(entry->union_count)
                           : 0.0;
  return true;
}

namespace jaccard_internal {

/// One counter on its way into TagSet::operator< order: its table entry
/// and its first four tags packed two to a word (see SetSortKey), so nearly
/// every compare is an integer compare.
struct SortRecord {
  uint64_t hi;  // Tags 0 and 1.
  uint64_t lo;  // Tags 2 and 3.
  uint32_t entry;
  uint32_t index;  // Into the report's union counts (ReportAll only).
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
/// Counters live in a FlatCounterTable keyed by tag spans: Observe feeds
/// each subset span of the notification to a probe+increment, with no
/// TagSet construction and no node allocation per subset; a new counter
/// appends only its own tags to the table's arena.
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
  /// for the set and its subsets. Aborts on counters no document stream
  /// produces (a union below its intersection); see Consistent.
  std::vector<JaccardEstimate> ReportAll(uint64_t min_support = 0) const;

  /// True when ReportAll can report these counters: every tracked set's
  /// union count, from the same lattice pass, is at least its intersection
  /// count, which is at least 1. Counters built by Observe always are;
  /// counters injected by Add from outside bytes (a checkpoint) need not
  /// be, and are refused on this before a report could abort on them.
  bool Consistent() const;

  /// Number of live counters (co-occurring tagsets incl. singletons).
  size_t num_counters() const { return counters_.size(); }

  /// Deletes all counters (after each reporting period, §6.2). Keeps the
  /// table's capacity: in steady state a Calculator re-fills roughly the
  /// same number of counters every period without reallocating.
  void Reset() {
    counters_.Reset();
    lattice_entries_.clear();
    known_lattices_.clear();
  }

 private:
  /// The lattice pass: visits every tracked set once and, if its
  /// intersection count exceeds `min_support`, appends a sort record and
  /// its union count to the scratch lists. Returns false, early, on the
  /// first inconsistent set (see Consistent).
  bool CollectReport(uint64_t min_support) const;

  /// A root whose lattice entries are known: `offset` into lattice_entries_.
  struct KnownLattice {
    FlatCounterTable::Entry root;
    uint32_t offset;
  };

  /// Working storage of ReportAll and ExportCounters, kept across periods:
  /// a table re-reports roughly the same number of counters every period,
  /// so each report reuses the last one's pages instead of faulting in
  /// fresh ones. Mutable because reporting is logically const; a table is
  /// used by one thread at a time.
  struct Scratch {
    std::vector<KnownLattice> roots_by_size[kMaxTagsPerDocument + 1];
    std::vector<uint8_t> visited;  // By entry.
    std::vector<jaccard_internal::SortRecord> records;
    std::vector<jaccard_internal::SortRecord> radix_buffer;
    std::vector<uint64_t> unions;  // By SortRecord::index.
    // A chunk of roots' subset probes: hash and the entry found.
    std::vector<uint64_t> hashes;
    std::vector<FlatCounterTable::Entry> probed;
    std::vector<uint64_t> lattice;  // One root's, by subset mask.
  };

  FlatCounterTable counters_;
  // Lattices Observe already knows. When a notification's whole set is a
  // new counter, Observe has just found the entries of all its subsets;
  // those of the proper subsets (masks 1..2^k − 2) are kept here, and the
  // set in known_lattices_ (ascending root). A root of a table that Observe
  // built is always such a set: a counter first created as a proper subset
  // lies inside the lattice of that larger notification, so it is never a
  // root. Its report then reads the entries instead of probing for them.
  std::vector<FlatCounterTable::Entry> lattice_entries_;
  std::vector<KnownLattice> known_lattices_;
  std::vector<FlatCounterTable::Entry> observed_;  // Observe's scratch.
  mutable Scratch scratch_;
};

}  // namespace corrtrack

#endif  // CORRTRACK_CORE_JACCARD_H_
