#include "core/partitioning.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/ds_algorithm.h"
#include "core/scc_algorithm.h"
#include "core/sci_algorithm.h"
#include "core/scl_algorithm.h"

namespace corrtrack {

std::string_view AlgorithmName(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kDS:
      return "DS";
    case AlgorithmKind::kSCC:
      return "SCC";
    case AlgorithmKind::kSCL:
      return "SCL";
    case AlgorithmKind::kSCI:
      return "SCI";
  }
  CORRTRACK_CHECK(false);
  return "";
}

std::vector<PartitionFragment> PartitioningAlgorithm::ProposeFragments(
    const CooccurrenceSnapshot& snapshot, int k, uint64_t seed) const {
  // Default (set-cover family): the local k partitions become fragments.
  const PartitionSet local = CreatePartitions(snapshot, k, seed);
  std::vector<PartitionFragment> fragments;
  fragments.reserve(static_cast<size_t>(local.num_partitions()));
  for (int p = 0; p < local.num_partitions(); ++p) {
    if (local.partition(p).empty()) continue;
    PartitionFragment fragment;
    const std::vector<TagId> tags = local.SortedTags(p);
    fragment.tags = TagSet::FromSorted(tags.data(), tags.data() + tags.size());
    fragment.load = local.load(p);
    fragments.push_back(std::move(fragment));
  }
  return fragments;
}

int PartitioningAlgorithm::ChooseSingleAdditionTarget(
    const PartitionSet& ps, const TagSet& tags) const {
  // §7.1: DS, SCC and SCI minimise the increase in communication; SCL keeps
  // load balanced. SCL overrides this method.
  return internal::PickPartitionByOverlapThenLoad(ps, tags);
}

double ElasticPartitionCost(uint64_t window_load, int k,
                            const ElasticPolicy& policy) {
  CORRTRACK_CHECK_GT(k, 0);
  return static_cast<double>(window_load) / static_cast<double>(k) +
         static_cast<double>(policy.partition_overhead_load) *
             static_cast<double>(k);
}

int ChooseTargetK(uint64_t window_load, int current_k,
                  const ElasticPolicy& policy) {
  // Continuous optimum k* = sqrt(L / overhead); the integer minimiser of a
  // convex cost is one of its two neighbours.
  const double overhead =
      static_cast<double>(std::max<uint64_t>(1, policy.partition_overhead_load));
  const double k_star = std::sqrt(static_cast<double>(window_load) / overhead);
  int best = std::max(1, static_cast<int>(k_star));
  for (int candidate = best - 1; candidate <= best + 2; ++candidate) {
    if (candidate < 1) continue;
    if (ElasticPartitionCost(window_load, candidate, policy) <
        ElasticPartitionCost(window_load, best, policy)) {
      best = candidate;
    }
  }
  constexpr double kHysteresis = 0.25;
  if (current_k > 0 && std::abs(best - current_k) <=
                           kHysteresis * static_cast<double>(current_k)) {
    return current_k;
  }
  return best;
}

std::unique_ptr<PartitioningAlgorithm> MakeAlgorithm(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kDS:
      return std::make_unique<DsAlgorithm>();
    case AlgorithmKind::kSCC:
      return std::make_unique<SccAlgorithm>();
    case AlgorithmKind::kSCL:
      return std::make_unique<SclAlgorithm>();
    case AlgorithmKind::kSCI:
      return std::make_unique<SciAlgorithm>();
  }
  CORRTRACK_CHECK(false);
  return nullptr;
}

std::vector<AlgorithmKind> AllAlgorithms() {
  return {AlgorithmKind::kDS, AlgorithmKind::kSCI, AlgorithmKind::kSCC,
          AlgorithmKind::kSCL};
}

namespace internal {

int PickPartitionByOverlapThenLoad(const PartitionSet& ps,
                                   const TagSet& tags) {
  CORRTRACK_CHECK_GT(ps.num_partitions(), 0);
  int best = 0;
  size_t best_overlap = ps.OverlapSize(0, tags);
  uint64_t best_load = ps.load(0);
  for (int p = 1; p < ps.num_partitions(); ++p) {
    const size_t overlap = ps.OverlapSize(p, tags);
    const uint64_t load = ps.load(p);
    if (overlap > best_overlap ||
        (overlap == best_overlap && load < best_load)) {
      best = p;
      best_overlap = overlap;
      best_load = load;
    }
  }
  return best;
}

int PickPartitionByLoadThenOverlap(const PartitionSet& ps,
                                   const TagSet& tags) {
  CORRTRACK_CHECK_GT(ps.num_partitions(), 0);
  int best = 0;
  uint64_t best_load = ps.load(0);
  size_t best_overlap = ps.OverlapSize(0, tags);
  for (int p = 1; p < ps.num_partitions(); ++p) {
    const uint64_t load = ps.load(p);
    const size_t overlap = ps.OverlapSize(p, tags);
    if (load < best_load || (load == best_load && overlap > best_overlap)) {
      best = p;
      best_load = load;
      best_overlap = overlap;
    }
  }
  return best;
}

}  // namespace internal

}  // namespace corrtrack
