#include "core/partition.h"

#include <algorithm>
#include <bit>

#include "core/check.h"
#include "core/stats.h"

namespace corrtrack {

namespace {
const InlinedVector<uint16_t, 4>& EmptyPartitionList() {
  static const InlinedVector<uint16_t, 4>* const kEmpty =
      new InlinedVector<uint16_t, 4>();
  return *kEmpty;
}
}  // namespace

PartitionSet::PartitionSet(int k)
    : partitions_(static_cast<size_t>(k)), loads_(static_cast<size_t>(k), 0) {
  CORRTRACK_CHECK_GT(k, 0);
}

const std::unordered_set<TagId>& PartitionSet::partition(int p) const {
  CORRTRACK_CHECK_GE(p, 0);
  CORRTRACK_CHECK_LT(static_cast<size_t>(p), partitions_.size());
  return partitions_[static_cast<size_t>(p)];
}

std::vector<TagId> PartitionSet::SortedTags(int p) const {
  const auto& set = partition(p);
  std::vector<TagId> tags(set.begin(), set.end());
  std::sort(tags.begin(), tags.end());
  return tags;
}

void PartitionSet::AddTag(int p, TagId tag) {
  CORRTRACK_CHECK_GE(p, 0);
  CORRTRACK_CHECK_LT(static_cast<size_t>(p), partitions_.size());
  auto [it, inserted] = partitions_[static_cast<size_t>(p)].insert(tag);
  if (!inserted) return;
  InlinedVector<uint16_t, 4>& list = index_[tag];
  const uint16_t pid = static_cast<uint16_t>(p);
  auto pos = std::lower_bound(list.begin(), list.end(), pid);
  if (pos != list.end() && *pos == pid) return;
  // Insert keeping ascending order.
  list.push_back(pid);
  for (auto* q = list.end() - 1; q != list.begin() && *(q - 1) > *q; --q) {
    std::swap(*(q - 1), *q);
  }
}

void PartitionSet::AddTags(int p, const TagSet& tags) {
  for (TagId t : tags) AddTag(p, t);
}

bool PartitionSet::PartitionContains(int p, TagId tag) const {
  return partition(p).count(tag) > 0;
}

size_t PartitionSet::OverlapSize(int p, const TagSet& tags) const {
  const auto& set = partition(p);
  size_t overlap = 0;
  for (TagId t : tags) overlap += set.count(t);
  return overlap;
}

const InlinedVector<uint16_t, 4>& PartitionSet::PartitionsWithTag(
    TagId tag) const {
  auto it = index_.find(tag);
  if (it == index_.end()) return EmptyPartitionList();
  return it->second;
}

std::optional<int> PartitionSet::CoveringPartition(const TagSet& tags) const {
  if (tags.empty()) return std::nullopt;
  for (uint16_t p : PartitionsWithTag(tags[0])) {
    const auto& set = partitions_[p];
    bool all = true;
    for (TagId t : tags) {
      if (set.count(t) == 0) {
        all = false;
        break;
      }
    }
    if (all) return static_cast<int>(p);
  }
  return std::nullopt;
}

int PartitionSet::Route(const TagSet& tags, std::vector<RoutedSubset>* out,
                        bool* covered) const {
  if (out != nullptr) out->clear();
  CORRTRACK_CHECK_LE(partitions_.size(), static_cast<size_t>(kMaxPartitions));
  CORRTRACK_CHECK_LE(tags.size(), static_cast<size_t>(kMaxTagsPerDocument));
  // One pass over the ascending tags appends each tag to the subset of
  // every partition holding it, so each subset is sorted by construction.
  // `subsets` is left uninitialised (4 KiB per call): only its first
  // sizes[p] entries of row p are ever read.
  TagId subsets[kMaxPartitions][kMaxTagsPerDocument];
  uint8_t sizes[kMaxPartitions] = {};
  uint64_t touched_mask = 0;
  for (TagId t : tags) {
    for (uint16_t p : PartitionsWithTag(t)) {
      touched_mask |= uint64_t{1} << p;
      subsets[p][sizes[p]++] = t;
    }
  }
  bool all_tags = false;
  int touched = 0;
  for (uint64_t mask = touched_mask; mask != 0; mask &= mask - 1) {
    ++touched;
    const int p = std::countr_zero(mask);
    all_tags = all_tags || sizes[p] == tags.size();
    if (out == nullptr) continue;
    RoutedSubset& routed = out->emplace_back();
    routed.partition = p;
    routed.tags = TagSet::FromSorted(subsets[p], subsets[p] + sizes[p]);
  }
  if (covered != nullptr) *covered = all_tags;
  return touched;
}

uint64_t PartitionSet::load(int p) const {
  CORRTRACK_CHECK_GE(p, 0);
  CORRTRACK_CHECK_LT(static_cast<size_t>(p), loads_.size());
  return loads_[static_cast<size_t>(p)];
}

void PartitionSet::AddLoad(int p, uint64_t load) {
  CORRTRACK_CHECK_GE(p, 0);
  CORRTRACK_CHECK_LT(static_cast<size_t>(p), loads_.size());
  loads_[static_cast<size_t>(p)] += load;
}

uint64_t PartitionSet::TotalReplication() const {
  uint64_t total = 0;
  for (const auto& [tag, list] : index_) total += list.size();
  return total;
}

bool PartitionSet::IsDisjoint() const {
  for (const auto& [tag, list] : index_) {
    if (list.size() > 1) return false;
  }
  return true;
}

std::string PartitionSet::ToString() const {
  std::string out;
  for (int p = 0; p < num_partitions(); ++p) {
    out += "pr" + std::to_string(p) + "(load=" + std::to_string(load(p)) +
           "): {";
    const std::vector<TagId> tags = SortedTags(p);
    for (size_t i = 0; i < tags.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(tags[i]);
    }
    out += "}\n";
  }
  return out;
}

PartitionQuality EvaluatePartitionQuality(const CooccurrenceSnapshot& snapshot,
                                          const PartitionSet& ps) {
  PartitionQuality quality;
  std::vector<uint64_t> notifications(
      static_cast<size_t>(ps.num_partitions()), 0);
  uint64_t notified_docs = 0;
  uint64_t total_notifications = 0;
  uint64_t covered_docs = 0;
  for (const TagsetStats& stats : snapshot.tagsets()) {
    const int touched =
        ps.ForEachTouchedPartition(stats.tags, [&](int partition) {
          notifications[static_cast<size_t>(partition)] += stats.count;
        });
    if (touched > 0) {
      notified_docs += stats.count;
      total_notifications += static_cast<uint64_t>(touched) * stats.count;
    }
    if (ps.CoveringPartition(stats.tags).has_value()) {
      covered_docs += stats.count;
    }
  }
  if (notified_docs > 0) {
    quality.avg_communication =
        static_cast<double>(total_notifications) /
        static_cast<double>(notified_docs);
  }
  quality.max_load = MaxShare(notifications);
  quality.load_gini = GiniCoefficient(notifications);
  if (snapshot.num_docs() > 0) {
    quality.coverage = static_cast<double>(covered_docs) /
                       static_cast<double>(snapshot.num_docs());
  }
  return quality;
}

}  // namespace corrtrack
