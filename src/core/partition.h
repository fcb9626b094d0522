#ifndef CORRTRACK_CORE_PARTITION_H_
#define CORRTRACK_CORE_PARTITION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/check.h"
#include "core/cooccurrence.h"
#include "core/inlined_vector.h"
#include "core/tagset.h"
#include "core/types.h"

namespace corrtrack {

/// One outgoing notification: the subset s_i^j of a document's tags that is
/// assigned to Calculator `partition` (§6.2, Disseminator).
struct RoutedSubset {
  int partition = -1;
  TagSet tags;
};

/// Quality of a partitioning with respect to a workload snapshot (§7.2):
/// expected communication and load statistics, measured exactly the way the
/// Disseminator measures them at run time.
struct PartitionQuality {
  /// Average number of partitions notified per document whose tagset touches
  /// at least one partition ("Communication", §8.2.1).
  double avg_communication = 0.0;
  /// Largest per-partition share of the total notifications ("maxLoad").
  double max_load = 0.0;
  /// Gini coefficient over per-partition notification counts (§8.2.2).
  double load_gini = 0.0;
  /// Fraction of documents whose whole tagset is covered by some partition.
  double coverage = 0.0;
};

/// A PartitionSet flattened for checkpoints: per-partition sorted tags
/// plus the load accumulators. Rebuilding via AddTag in sorted order and
/// AddLoad reproduces the tag->partition index deterministically
/// (ops/checkpoint_state.h converts).
struct PartitionSetState {
  std::vector<std::vector<TagId>> partition_tags;
  std::vector<uint64_t> loads;
};

/// A set of k tag partitions pr_1..pr_k plus an inverted index from tag to
/// the partitions containing it — the index the Disseminator keeps (§3.3,
/// backed by the set-valued-attribute indexing result of Helmer & Moerkotte
/// [10]).
///
/// Each partition also carries a load accumulator: the partitioning
/// algorithms record Σ l_k of the tagsets they assign (Algorithms 1, 3, 4),
/// and the Merger uses the same value to place single additions.
class PartitionSet {
 public:
  /// Routing tracks the touched partitions in a 64-bit mask, so Route and
  /// ForEachTouchedPartition take at most this many partitions.
  static constexpr int kMaxPartitions = 64;

  PartitionSet() = default;
  explicit PartitionSet(int k);

  int num_partitions() const { return static_cast<int>(partitions_.size()); }

  const std::unordered_set<TagId>& partition(int p) const;

  /// Tags of partition `p` in ascending order (materialised on demand).
  std::vector<TagId> SortedTags(int p) const;

  /// Adds `tag` to partition `p` (no-op when already present).
  void AddTag(int p, TagId tag);
  void AddTags(int p, const TagSet& tags);

  bool PartitionContains(int p, TagId tag) const;

  /// Number of tags of `tags` present in partition `p`.
  size_t OverlapSize(int p, const TagSet& tags) const;

  /// The partitions containing `tag` (ascending partition ids); empty for
  /// unassigned tags.
  const InlinedVector<uint16_t, 4>& PartitionsWithTag(TagId tag) const;

  /// A partition containing *every* tag of `tags`, if any — the Calculator
  /// able to compute this tagset's Jaccard coefficient. Smallest such
  /// partition id wins (deterministic).
  std::optional<int> CoveringPartition(const TagSet& tags) const;

  /// Computes the notifications for a document tagged `tags`: one per
  /// partition holding at least one of the tags, carrying the held subset.
  /// Returns the number of notified partitions; `out` (optional) receives
  /// the subsets ordered by partition id, and `covered` (optional) whether
  /// some partition holds every tag (CoveringPartition(tags).has_value()).
  /// Allocation-free apart from `out`'s growth. Requires
  /// num_partitions() <= kMaxPartitions and
  /// tags.size() <= kMaxTagsPerDocument.
  int Route(const TagSet& tags, std::vector<RoutedSubset>* out,
            bool* covered = nullptr) const;

  /// Count-only variant of Route: invokes `fn(partition)` once per touched
  /// partition (unspecified order) and returns the count. No subset
  /// materialisation — used by quality evaluation over whole snapshots.
  template <typename Fn>
  int ForEachTouchedPartition(const TagSet& tags, Fn&& fn) const {
    CORRTRACK_CHECK_LE(num_partitions(), kMaxPartitions);
    uint64_t seen_mask = 0;
    int touched = 0;
    for (TagId t : tags) {
      for (uint16_t p : PartitionsWithTag(t)) {
        const uint64_t bit = uint64_t{1} << p;
        if (seen_mask & bit) continue;
        seen_mask |= bit;
        ++touched;
        fn(static_cast<int>(p));
      }
    }
    return touched;
  }

  /// Per-partition load accumulators (algorithm bookkeeping).
  uint64_t load(int p) const;
  void AddLoad(int p, uint64_t load);
  const std::vector<uint64_t>& loads() const { return loads_; }

  /// Σ_t |{pr : t ∈ pr}| — the replication objective of §1.1 (2).
  uint64_t TotalReplication() const;

  /// Number of distinct tags assigned anywhere.
  size_t NumDistinctTags() const { return index_.size(); }

  /// True when every tag appears in exactly one partition.
  bool IsDisjoint() const;

  std::string ToString() const;

 private:
  std::vector<std::unordered_set<TagId>> partitions_;
  std::vector<uint64_t> loads_;
  std::unordered_map<TagId, InlinedVector<uint16_t, 4>> index_;
};

/// Evaluates `ps` against a workload the way §7.2 defines partition quality:
/// every snapshot tagset is routed; documents with zero notifications are
/// excluded from avg_communication (as in §8.2.1) but counted against
/// coverage.
PartitionQuality EvaluatePartitionQuality(const CooccurrenceSnapshot& snapshot,
                                          const PartitionSet& ps);

}  // namespace corrtrack

#endif  // CORRTRACK_CORE_PARTITION_H_
