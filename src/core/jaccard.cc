#include "core/jaccard.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "core/check.h"
#include "core/types.h"

namespace corrtrack {

namespace {

using jaccard_internal::SortRecord;
using Entry = FlatCounterTable::Entry;

/// Sets `rec`'s key from the set's first four tags, two to a word, so that
/// nearly every compare is an integer compare. A missing tag packs as 0,
/// which sorts before any real tag in its place (a tag after the first
/// exceeds it, so it is never 0); equal keys fall through to the full
/// compare, where the shorter set wins.
void SetSortKey(const TagId* tags, size_t n, SortRecord* rec) {
  TagId t[4] = {};
  std::copy_n(tags, std::min<size_t>(n, 4), t);
  rec->hi = uint64_t{t[0]} << 32 | t[1];
  rec->lo = uint64_t{t[2]} << 32 | t[3];
}

/// TagSet::operator< on two records' keys.
bool FullLess(const FlatCounterTable& table, const SortRecord& a,
              const SortRecord& b) {
  const TagId* ta = table.TagsAt(a.entry);
  const TagId* tb = table.TagsAt(b.entry);
  return std::lexicographical_compare(ta, ta + table.SizeAt(a.entry), tb,
                                      tb + table.SizeAt(b.entry));
}

/// Sorts `records` (distinct sets) in TagSet::operator< order: an LSD
/// radix sort on `hi`, one byte per pass over the bytes that are not the
/// same in every record, then a comparison sort of each run of equal `hi`
/// by `lo` and, rarely, the full compare. `buffer` is the radix passes'
/// second array.
void SortInTagSetOrder(const FlatCounterTable& table,
                       std::vector<SortRecord>* records,
                       std::vector<SortRecord>* buffer) {
  std::vector<SortRecord>& r = *records;
  if (r.size() < 2) return;
  CORRTRACK_CHECK_LE(r.size(), size_t{UINT32_MAX});
  uint64_t varying = 0;
  for (const SortRecord& rec : r) varying |= rec.hi ^ r[0].hi;
  // 32-bit offsets: stores to them cannot alias the records' 64-bit keys,
  // so the loops below keep keys in registers.
  uint32_t offsets[8][256];
  int shifts[8];
  int passes = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    if ((varying >> shift) & 0xff) {
      std::fill_n(offsets[passes], 256, uint32_t{0});
      shifts[passes++] = shift;
    }
  }
  for (const SortRecord& rec : r) {
    for (int p = 0; p < passes; ++p) ++offsets[p][(rec.hi >> shifts[p]) & 0xff];
  }
  buffer->resize(r.size());
  for (int p = 0; p < passes; ++p) {
    uint32_t* offset = offsets[p];
    uint32_t sum = 0;
    for (int b = 0; b < 256; ++b) sum += std::exchange(offset[b], sum);
    SortRecord* out = buffer->data();
    const int shift = shifts[p];
    for (const SortRecord& rec : r) out[offset[(rec.hi >> shift) & 0xff]++] = rec;
    r.swap(*buffer);
  }
  for (size_t i = 0; i < r.size();) {
    size_t j = i + 1;
    while (j < r.size() && r[j].hi == r[i].hi) ++j;
    if (j - i > 1) {
      std::sort(r.begin() + i, r.begin() + j,
                [&table](const SortRecord& a, const SortRecord& b) {
                  return a.lo != b.lo ? a.lo < b.lo : FullLess(table, a, b);
                });
    }
    i = j;
  }
}

TagSet TagSetAt(const FlatCounterTable& table, Entry entry) {
  const TagId* tags = table.TagsAt(entry);
  return TagSet::FromSorted(tags, tags + table.SizeAt(entry));
}

}  // namespace

void SubsetCounterTable::Observe(const TagSet& tags) {
  if (tags.empty()) return;
  CORRTRACK_CHECK_LE(tags.size(), static_cast<size_t>(kMaxTagsPerDocument));
  // Entries of the subsets by mask; ForEachSubsetSpan visits masks
  // 1..2^k − 1 in ascending order, the whole set last.
  observed_.resize(size_t{1} << tags.size());
  uint32_t mask = 0;
  size_t before = 0;
  TagId scratch[kMaxTagsPerDocument];
  tags.ForEachSubsetSpan(scratch, [&](const TagId* subset, size_t m) {
    before = counters_.size();
    observed_[++mask] = counters_.Increment(subset, m);
  });
  if (mask >= 3 && counters_.size() > before) {
    CORRTRACK_CHECK_LE(lattice_entries_.size(), size_t{UINT32_MAX});
    known_lattices_.push_back(
        {observed_[mask], static_cast<uint32_t>(lattice_entries_.size())});
    lattice_entries_.insert(lattice_entries_.end(), &observed_[1],
                            &observed_[mask]);
  }
}

void SubsetCounterTable::Add(const TagSet& tags, uint64_t count) {
  if (count == 0 || tags.empty()) return;
  CORRTRACK_CHECK_LE(tags.size(), static_cast<size_t>(kMaxTagsPerDocument));
  counters_.Increment(tags.begin(), tags.size(), count);
}

std::vector<std::pair<TagSet, uint64_t>> SubsetCounterTable::ExportCounters()
    const {
  std::vector<SortRecord>& records = scratch_.records;
  records.clear();
  records.reserve(counters_.size());
  for (Entry entry = 0; entry < counters_.size(); ++entry) {
    SortRecord& rec = records.emplace_back();
    SetSortKey(counters_.TagsAt(entry), counters_.SizeAt(entry), &rec);
    rec.entry = entry;
  }
  SortInTagSetOrder(counters_, &records, &scratch_.radix_buffer);
  std::vector<std::pair<TagSet, uint64_t>> out;
  out.reserve(records.size());
  for (const SortRecord& r : records) {
    out.emplace_back(TagSetAt(counters_, r.entry), counters_.CountAt(r.entry));
  }
  return out;
}

uint64_t SubsetCounterTable::Count(const TagSet& tags) const {
  if (tags.empty() || tags.size() > static_cast<size_t>(kMaxTagsPerDocument)) {
    return 0;
  }
  return counters_.Find(tags.begin(), tags.size());
}

std::optional<JaccardEstimate> SubsetCounterTable::Compute(
    const TagSet& tags) const {
  const uint64_t intersection = Count(tags);
  if (intersection == 0) return std::nullopt;
  // Eq. 2 (inclusion–exclusion): |∪ a_i| = Σ_{∅≠A⊆s} (−1)^{|A|+1} |∩ A|.
  int64_t union_count = 0;
  TagId scratch[kMaxTagsPerDocument];
  tags.ForEachSubsetSpan(scratch, [&](const TagId* subset, size_t m) {
    const int64_t term = static_cast<int64_t>(counters_.Find(subset, m));
    if (m % 2 == 1) {
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

bool SubsetCounterTable::CollectReport(uint64_t min_support) const {
  Scratch& s = scratch_;
  const FlatCounterTable& table = counters_;
  constexpr uint32_t kProbe = static_cast<uint32_t>(-1);  // Lattice unknown.
  // Roots: counters of two or more tags, largest first. A counter becomes a
  // root only when no earlier root's lattice contained it.
  for (std::vector<KnownLattice>& roots : s.roots_by_size) roots.clear();
  size_t next_known = 0;
  for (Entry entry = 0; entry < table.size(); ++entry) {
    const uint32_t size = table.SizeAt(entry);
    if (size < 2) continue;
    uint32_t offset = kProbe;
    if (next_known < known_lattices_.size() &&
        known_lattices_[next_known].root == entry) {
      offset = known_lattices_[next_known++].offset;
    }
    s.roots_by_size[size].push_back({entry, offset});
  }
  s.records.clear();
  s.unions.clear();
  std::vector<uint8_t>& visited = s.visited;
  visited.assign(table.size(), 0);

  // One root's lattice: `entry_of[b]` is the entry of the subset with mask
  // b (kNoEntry when absent), for b in 1..full − 1.
  const auto emit = [&](Entry root, uint32_t full, const Entry* entry_of) {
    const auto entry_at = [&](uint32_t b) {
      return b == full ? root : entry_of[b];
    };
    // Eq. 2's signed terms (−1)^{|B|+1}·counter(B), indexed by the subset
    // mask B, in wrapping unsigned arithmetic: the sums of real counters
    // fit an int64_t, and forged ones cannot overflow into UB.
    std::vector<uint64_t>& lattice = s.lattice;
    lattice[0] = 0;
    for (uint32_t b = 1; b <= full; ++b) {
      const Entry entry = entry_at(b);
      const uint64_t term =
          entry == FlatCounterTable::kNoEntry ? 0 : table.CountAt(entry);
      lattice[b] = std::popcount(b) % 2 == 1 ? term : 0 - term;
    }
    // Subset-sum (zeta) transform, k·2^k additions: lattice[S] becomes
    // Σ_{B⊆S} term(B), the union count of S for every S at once.
    for (uint32_t bit = 1; bit <= full; bit <<= 1) {
      for (uint32_t b = 0; b <= full; ++b) {
        if (b & bit) lattice[b] += lattice[b ^ bit];
      }
    }
    const TagId* root_tags = table.TagsAt(root);
    TagId subset[kMaxTagsPerDocument];
    for (uint32_t b = 3; b <= full; ++b) {
      const Entry entry = entry_at(b);
      if ((b & (b - 1)) == 0 || entry == FlatCounterTable::kNoEntry ||
          visited[entry]) {
        continue;
      }
      visited[entry] = 1;
      const uint64_t intersection = table.CountAt(entry);
      const int64_t union_count = static_cast<int64_t>(lattice[b]);
      if (intersection == 0 ||
          intersection > uint64_t{std::numeric_limits<int64_t>::max()} ||
          union_count < static_cast<int64_t>(intersection)) {
        return false;
      }
      if (intersection <= min_support) continue;
      SortRecord& rec = s.records.emplace_back();
      SetSortKey(subset, SelectTags(root_tags, b, subset), &rec);
      rec.entry = entry;
      rec.index = static_cast<uint32_t>(s.unions.size());
      s.unions.push_back(lattice[b]);
    }
    return true;
  };

  for (uint32_t k = kMaxTagsPerDocument; k >= 2; --k) {
    // Sets of one size cannot contain each other, so no root of this size
    // is marked while its size is processed.
    std::vector<KnownLattice>& roots = s.roots_by_size[k];
    std::erase_if(roots, [&](const KnownLattice& r) { return visited[r.root]; });
    if (roots.empty()) continue;
    const uint32_t full = (uint32_t{1} << k) - 1;
    s.lattice.resize(full + 1);
    for (const KnownLattice& r : roots) {
      if (r.offset != kProbe &&
          !emit(r.root, full, lattice_entries_.data() + r.offset - 1)) {
        return false;
      }
    }
    // The rest probe the proper subsets (masks 1..full − 1) of a chunk of
    // roots in one stream: each probe's home slot is prefetched kAhead
    // probes ahead, so the cache misses overlap across roots, not only
    // within one.
    std::erase_if(roots, [&](const KnownLattice& r) { return r.offset != kProbe; });
    const size_t per_root = full - 1;
    constexpr size_t kAhead = 16;
    constexpr size_t kChunkProbes = 1024;
    const size_t chunk = std::max<size_t>(1, kChunkProbes / per_root);
    for (size_t first = 0; first < roots.size(); first += chunk) {
      const size_t count = std::min(chunk, roots.size() - first);
      const size_t n = count * per_root;
      s.hashes.resize(n);
      s.probed.resize(n);
      TagId subset[kMaxTagsPerDocument];
      // Cursors (root, mask) of the probe being hashed and the one being
      // looked up, kAhead apart.
      size_t hash_root = first;
      uint32_t hash_mask = 1;
      size_t probe_root = first;
      uint32_t probe_mask = 1;
      for (size_t i = 0; i < n + kAhead; ++i) {
        if (i < n) {
          const size_t m = SelectTags(table.TagsAt(roots[hash_root].root),
                                      hash_mask, subset);
          s.hashes[i] = HashTagSpan(subset, m);
          table.Prefetch(s.hashes[i]);
          if (++hash_mask == full) hash_mask = 1, ++hash_root;
        }
        if (i >= kAhead) {
          const size_t j = i - kAhead;
          const size_t m = SelectTags(table.TagsAt(roots[probe_root].root),
                                      probe_mask, subset);
          s.probed[j] = table.FindEntry(subset, m, s.hashes[j]);
          if (++probe_mask == full) probe_mask = 1, ++probe_root;
        }
      }
      for (size_t r = 0; r < count; ++r) {
        if (!emit(roots[first + r].root, full,
                  s.probed.data() + r * per_root - 1)) {
          return false;
        }
      }
    }
  }
  return true;
}

bool SubsetCounterTable::Consistent() const {
  return CollectReport(std::numeric_limits<uint64_t>::max());
}

std::vector<JaccardEstimate> SubsetCounterTable::ReportAll(
    uint64_t min_support) const {
  CORRTRACK_CHECK(CollectReport(min_support));
  std::vector<SortRecord>& records = scratch_.records;
  SortInTagSetOrder(counters_, &records, &scratch_.radix_buffer);
  std::vector<JaccardEstimate> out;
  out.reserve(records.size());
  for (const SortRecord& r : records) {
    const uint64_t intersection = counters_.CountAt(r.entry);
    const uint64_t union_count = scratch_.unions[r.index];
    // Same expression as Compute, so the coefficient is bit-identical.
    out.push_back({TagSetAt(counters_, r.entry),
                   static_cast<double>(intersection) /
                       static_cast<double>(union_count),
                   intersection, union_count});
  }
  return out;
}

}  // namespace corrtrack
