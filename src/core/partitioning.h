#ifndef CORRTRACK_CORE_PARTITIONING_H_
#define CORRTRACK_CORE_PARTITIONING_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cooccurrence.h"
#include "core/partition.h"
#include "core/tagset.h"

namespace corrtrack {

/// The four partitioning algorithms evaluated in the paper (§4, §8).
enum class AlgorithmKind {
  kDS,   // Disjoint Sets, Algorithm 1.
  kSCC,  // Set cover optimising communication, Algorithms 2+3.
  kSCL,  // Set cover optimising processing load, Algorithms 2+4.
  kSCI,  // Set cover of the earlier workshop paper [1], Algorithms 2+5.
};

std::string_view AlgorithmName(AlgorithmKind kind);

/// A partition fragment proposed by one Partitioner instance: the tags plus
/// the load they carried in the proposing Partitioner's window. The Merger
/// treats fragments as weighted tagsets and re-runs the same algorithm over
/// them (§6.2).
struct PartitionFragment {
  TagSet tags;
  uint64_t load = 0;
};

/// Strategy interface shared by DS / SCC / SCL / SCI.
///
/// All methods are const and deterministic given the same inputs (SCI's
/// random phase-2 order is driven by the explicit `seed`).
class PartitioningAlgorithm {
 public:
  virtual ~PartitioningAlgorithm() = default;

  virtual AlgorithmKind kind() const = 0;
  std::string_view name() const { return AlgorithmName(kind()); }

  /// Creates k partitions such that every tagset of `snapshot` is contained
  /// in at least one partition (the coverage requirement of §1.1).
  virtual PartitionSet CreatePartitions(const CooccurrenceSnapshot& snapshot,
                                        int k, uint64_t seed) const = 0;

  /// What one Partitioner instance sends to the Merger (§6.2): for DS the
  /// disjoint sets of its window share (phase 1 only, so the Merger can
  /// re-combine them); for the set-cover algorithms its k local partitions.
  virtual std::vector<PartitionFragment> ProposeFragments(
      const CooccurrenceSnapshot& snapshot, int k, uint64_t seed) const;

  /// Picks the partition that should absorb `tags` as a Single Addition
  /// (§7.1). DS/SCC/SCI minimise the communication increase (maximal overlap
  /// with the tagset, then least load); SCL keeps load balanced (least load,
  /// then maximal overlap). `load_hint` is the tagset's current load
  /// estimate used for SCL's balancing.
  virtual int ChooseSingleAdditionTarget(const PartitionSet& ps,
                                         const TagSet& tags) const;
};

/// §7.3 elastic repartitioning: the cost model and target-k policy through
/// which the Merger *chooses* each round's partition count instead of
/// recutting into the build-time k. The model prices a candidate k as
///
///   Cost(k) = L / k  +  overhead · k
///
/// — the ideal-balance per-partition processing share of the window load L
/// plus a fixed per-partition cost (one live Calculator's mailbox,
/// broadcast and reporting overhead, expressed in the same load units) —
/// which is minimised at k* = sqrt(L / overhead). Splitting past k* buys
/// less balance than it costs in per-task overhead; merging below it
/// overloads the heaviest partition. A hysteresis band keeps k sticky
/// under load jitter so the topology doesn't thrash through resizes
/// (adaptive-scale correlation trackers, AMIC; sketch-based resizing,
/// Cormode & Dark).
struct ElasticPolicy {
  /// Master switch: off = the static build-time k (paper behaviour).
  bool enabled = false;

  /// Fixed cost of one live partition/Calculator in window-load units
  /// (documents per window).
  uint64_t partition_overhead_load = 500;
};

/// The cost model above, exposed for tests and tuning. Requires k > 0.
double ElasticPartitionCost(uint64_t window_load, int k,
                            const ElasticPolicy& policy);

/// Picks the target partition count (>= 1) for an observed window load:
/// the integer minimiser of ElasticPartitionCost — except that `current_k`
/// wins while the optimum lies within 25 % of it (hysteresis against
/// thrash). `current_k` <= 0 disables hysteresis (initial creation). The
/// caller clamps the result to the provisioned maximum.
int ChooseTargetK(uint64_t window_load, int current_k,
                  const ElasticPolicy& policy);

/// Factory for the paper's algorithms.
std::unique_ptr<PartitioningAlgorithm> MakeAlgorithm(AlgorithmKind kind);

/// All four, in the order the paper's figures list them (DS, SCI, SCC, SCL).
std::vector<AlgorithmKind> AllAlgorithms();

namespace internal {

/// Shared tie-breaking helpers: pick partition maximising overlap with
/// `tags`, ties by least load ("communication-first"), or minimising load,
/// ties by overlap ("load-first").
int PickPartitionByOverlapThenLoad(const PartitionSet& ps, const TagSet& tags);
int PickPartitionByLoadThenOverlap(const PartitionSet& ps, const TagSet& tags);

}  // namespace internal

}  // namespace corrtrack

#endif  // CORRTRACK_CORE_PARTITIONING_H_
