#include "core/jaccard.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "core/check.h"
#include "core/types.h"

namespace corrtrack {

namespace {

using jaccard_internal::SortRecord;

/// The first two tags of the subset packed into one word, so most compares
/// are one integer compare. A missing second tag packs as 0, which sorts no
/// later than any real second tag; the tie then falls through to the full
/// compare, where the shorter set wins.
uint64_t SortPrefix(const PackedTagKey& root, uint32_t mask) {
  const uint64_t first = root.tags[std::countr_zero(mask)];
  mask &= mask - 1;
  return (first << 32) | (mask == 0 ? 0 : root.tags[std::countr_zero(mask)]);
}

/// TagSet::operator< on two records with equal prefixes.
bool FullLess(const FlatCounterTable& table, const SortRecord& a,
              const SortRecord& b) {
  const PackedTagKey& ka = table.KeyAt(a.root);
  const PackedTagKey& kb = table.KeyAt(b.root);
  uint32_t ma = a.mask;
  uint32_t mb = b.mask;
  for (; ma != 0 && mb != 0; ma &= ma - 1, mb &= mb - 1) {
    const TagId ta = ka.tags[std::countr_zero(ma)];
    const TagId tb = kb.tags[std::countr_zero(mb)];
    if (ta != tb) return ta < tb;
  }
  return mb != 0;  // a is a proper prefix of b.
}

/// Sorts `records` (distinct subsets) in TagSet::operator< order: an LSD
/// radix sort on the prefix, one byte per pass (skipping bytes that are the
/// same in every record), then a comparison sort of each run of equal
/// prefixes. `buffer` is the radix passes' second array.
void SortInTagSetOrder(const FlatCounterTable& table,
                       std::vector<SortRecord>* records,
                       std::vector<SortRecord>* buffer) {
  std::vector<SortRecord>& r = *records;
  if (r.size() < 2) return;
  size_t offsets[8][256] = {};
  for (const SortRecord& rec : r) {
    for (int d = 0; d < 8; ++d) ++offsets[d][(rec.prefix >> (8 * d)) & 0xff];
  }
  buffer->resize(r.size());
  for (int d = 0; d < 8; ++d) {
    size_t* offset = offsets[d];
    if (offset[(r[0].prefix >> (8 * d)) & 0xff] == r.size()) continue;
    size_t sum = 0;
    for (int b = 0; b < 256; ++b) sum += std::exchange(offset[b], sum);
    for (const SortRecord& rec : r) {
      (*buffer)[offset[(rec.prefix >> (8 * d)) & 0xff]++] = rec;
    }
    r.swap(*buffer);
  }
  for (size_t i = 0; i < r.size();) {
    size_t j = i + 1;
    while (j < r.size() && r[j].prefix == r[i].prefix) ++j;
    std::sort(r.begin() + i, r.begin() + j,
              [&table](const SortRecord& a, const SortRecord& b) {
                return FullLess(table, a, b);
              });
    i = j;
  }
}

/// The subset of `root`'s tags selected by `mask`.
TagSet MaskedTagSet(const PackedTagKey& root, uint32_t mask) {
  TagId tags[PackedTagKey::kCapacity];
  size_t n = 0;
  for (; mask != 0; mask &= mask - 1) {
    tags[n++] = root.tags[std::countr_zero(mask)];
  }
  return TagSet::FromSorted(tags, tags + n);
}

uint32_t SlotIndex(size_t slot) {
  CORRTRACK_CHECK_LE(slot, size_t{UINT32_MAX});
  return static_cast<uint32_t>(slot);
}

}  // namespace

void SubsetCounterTable::Observe(const TagSet& tags) {
  tags.ForEachSubsetKey(
      [this](const PackedTagKey& key) { counters_.Increment(key); });
}

void SubsetCounterTable::Add(const TagSet& tags, uint64_t count) {
  if (count == 0 || tags.empty()) return;
  CORRTRACK_CHECK_LE(tags.size(), PackedTagKey::kCapacity);
  counters_.Increment(tags.PackKey(), count);
}

std::vector<std::pair<TagSet, uint64_t>> SubsetCounterTable::ExportCounters()
    const {
  std::vector<SortRecord>& records = scratch_.records;
  records.clear();
  records.reserve(counters_.size());
  for (size_t slot = 0; slot < counters_.capacity(); ++slot) {
    if (!counters_.Occupied(slot)) continue;
    const PackedTagKey& key = counters_.KeyAt(slot);
    const uint32_t mask = (uint32_t{1} << key.size) - 1;
    records.push_back({SortPrefix(key, mask), SlotIndex(slot), mask,
                       counters_.CountAt(slot), 0});
  }
  SortInTagSetOrder(counters_, &records, &scratch_.radix_buffer);
  std::vector<std::pair<TagSet, uint64_t>> out;
  out.reserve(records.size());
  for (const SortRecord& r : records) {
    out.emplace_back(MaskedTagSet(counters_.KeyAt(r.root), r.mask), r.count);
  }
  return out;
}

uint64_t SubsetCounterTable::Count(const TagSet& tags) const {
  if (tags.empty() || tags.size() > PackedTagKey::kCapacity) return 0;
  return counters_.Find(tags.PackKey());
}

std::optional<JaccardEstimate> SubsetCounterTable::Compute(
    const TagSet& tags) const {
  const uint64_t intersection = Count(tags);
  if (intersection == 0) return std::nullopt;
  // Eq. 2 (inclusion–exclusion): |∪ a_i| = Σ_{∅≠A⊆s} (−1)^{|A|+1} |∩ A|.
  int64_t union_count = 0;
  tags.ForEachSubsetKey([&](const PackedTagKey& key) {
    const int64_t term = static_cast<int64_t>(counters_.Find(key));
    if (key.size % 2 == 1) {
      union_count += term;
    } else {
      union_count -= term;
    }
  });
  CORRTRACK_CHECK_GE(union_count, static_cast<int64_t>(intersection));
  JaccardEstimate estimate;
  estimate.tags = tags;
  estimate.intersection_count = intersection;
  estimate.union_count = static_cast<uint64_t>(union_count);
  estimate.coefficient = static_cast<double>(intersection) /
                         static_cast<double>(union_count);
  return estimate;
}

std::vector<JaccardEstimate> SubsetCounterTable::ReportAll(
    uint64_t min_support) const {
  // Roots: counters of two or more tags, largest first. A counter becomes a
  // root only when no earlier root's lattice contained it.
  auto& by_size = scratch_.roots_by_size;
  for (std::vector<uint32_t>& roots : by_size) roots.clear();
  for (size_t slot = 0; slot < counters_.capacity(); ++slot) {
    if (!counters_.Occupied(slot)) continue;
    const uint32_t size = counters_.KeyAt(slot).size;
    if (size >= 2) by_size[size].push_back(SlotIndex(slot));
  }
  std::vector<uint8_t>& visited = scratch_.visited;
  visited.assign(counters_.capacity(), 0);
  std::vector<PackedTagKey>& subset_keys = scratch_.subset_keys;
  std::vector<int64_t>& lattice = scratch_.lattice;
  std::vector<size_t>& lattice_slot = scratch_.lattice_slot;
  std::vector<SortRecord>& records = scratch_.records;
  records.clear();
  for (uint32_t k = PackedTagKey::kCapacity; k >= 2; --k) {
    const uint32_t n = uint32_t{1} << k;
    for (const uint32_t root : by_size[k]) {
      if (visited[root]) continue;
      // Eq. 2's signed terms (−1)^{|B|+1}·counter(B), indexed by the subset
      // mask B over the root's tags. ForEachSubsetKey visits masks 1..n−1 in
      // ascending order.
      const PackedTagKey& root_key = counters_.KeyAt(root);
      subset_keys.resize(n);
      lattice.resize(n);
      lattice_slot.resize(n);
      uint32_t mask = 0;
      TagSet::FromPackedKey(root_key).ForEachSubsetKey(
          [&](const PackedTagKey& key) { subset_keys[++mask] = key; });
      counters_.FindSlots(&subset_keys[1], n - 1, &lattice_slot[1]);
      lattice[0] = 0;
      for (uint32_t s = 1; s < n; ++s) {
        const size_t slot = lattice_slot[s];
        const int64_t count =
            slot == FlatCounterTable::kNoSlot
                ? 0
                : static_cast<int64_t>(counters_.CountAt(slot));
        lattice[s] = subset_keys[s].size % 2 == 1 ? count : -count;
      }
      // Subset-sum (zeta) transform, k·2^k additions: lattice[S] becomes
      // Σ_{B⊆S} term(B), the union count of S for every S at once.
      for (uint32_t bit = 1; bit < n; bit <<= 1) {
        for (uint32_t s = 0; s < n; ++s) {
          if (s & bit) lattice[s] += lattice[s ^ bit];
        }
      }
      for (uint32_t s = 1; s < n; ++s) {
        const size_t slot = lattice_slot[s];
        if ((s & (s - 1)) == 0 || slot == FlatCounterTable::kNoSlot ||
            visited[slot]) {
          continue;
        }
        visited[slot] = 1;
        const uint64_t intersection = counters_.CountAt(slot);
        if (intersection <= min_support) continue;
        CORRTRACK_CHECK_GE(lattice[s], static_cast<int64_t>(intersection));
        records.push_back({SortPrefix(root_key, s), root, s, intersection,
                           lattice[s]});
      }
    }
  }
  SortInTagSetOrder(counters_, &records, &scratch_.radix_buffer);
  std::vector<JaccardEstimate> out;
  out.reserve(records.size());
  for (const SortRecord& r : records) {
    JaccardEstimate& estimate = out.emplace_back();
    estimate.tags = MaskedTagSet(counters_.KeyAt(r.root), r.mask);
    estimate.intersection_count = r.count;
    estimate.union_count = static_cast<uint64_t>(r.union_count);
    // Same expression as Compute, so the coefficient is bit-identical.
    estimate.coefficient = static_cast<double>(r.count) /
                           static_cast<double>(r.union_count);
  }
  return out;
}

}  // namespace corrtrack
