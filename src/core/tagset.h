#ifndef CORRTRACK_CORE_TAGSET_H_
#define CORRTRACK_CORE_TAGSET_H_

#include <bit>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/inlined_vector.h"
#include "core/types.h"

namespace corrtrack {

/// Single-pass multiply-xor mix over a tag array — the one hash used by
/// every flat table keyed on tags (FlatCounterTable, FlatTagSetMap). Never
/// returns 0: FlatTagSetMap uses 0 as the empty-slot marker, so that
/// property is load-bearing.
inline uint64_t HashTagSpan(const TagId* tags, size_t n) {
  uint64_t h = 0x9E3779B97F4A7C15ull + n;
  for (size_t i = 0; i < n; ++i) {
    h ^= tags[i];
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 29;
  }
  return h == 0 ? 1 : h;
}

/// Writes the tags of `tags` selected by `mask` (bit i = tags[i]) to `out`,
/// in order, and returns how many it wrote: one subset of a sorted span as
/// a sorted span.
inline size_t SelectTags(const TagId* tags, uint32_t mask, TagId* out) {
  size_t m = 0;
  for (; mask != 0; mask &= mask - 1) out[m++] = tags[std::countr_zero(mask)];
  return m;
}

/// A canonical set of tags: sorted, duplicate-free, inline-stored for up to
/// 8 tags (the paper observes < 10 tags per tweet, §3.1).
///
/// TagSet is the unit of everything in the system: a document's annotation,
/// a co-occurring tagset s_i for which a Jaccard coefficient is computed, and
/// a Disseminator notification (the subset of a document's tags assigned to
/// one Calculator). Its tags are one sorted span (begin()..end()), which is
/// what the hot paths take: subsets are enumerated as spans
/// (ForEachSubsetSpan, SelectTags) and the Calculator's counter table keys
/// on spans, so no per-subset TagSet is built.
class TagSet {
 public:
  using Storage = InlinedVector<TagId, 8>;
  using const_iterator = Storage::const_iterator;

  TagSet() = default;

  /// Builds a canonical set from arbitrary input (sorts, deduplicates).
  explicit TagSet(std::initializer_list<TagId> tags)
      : TagSet(std::vector<TagId>(tags)) {}
  explicit TagSet(const std::vector<TagId>& tags);

  /// Builds from a range that is already sorted and duplicate-free.
  /// The precondition is checked (aborting): decoders of untrusted bytes
  /// test IsSortedRun first.
  static TagSet FromSorted(const TagId* first, const TagId* last);

  /// True when [first, last) is strictly ascending and holds no
  /// kInvalidTag, i.e. a valid FromSorted input.
  static bool IsSortedRun(const TagId* first, const TagId* last);

  size_t size() const { return tags_.size(); }
  bool empty() const { return tags_.empty(); }

  const_iterator begin() const { return tags_.begin(); }
  const_iterator end() const { return tags_.end(); }

  TagId operator[](size_t i) const { return tags_[i]; }

  /// Binary-searches for `tag`.
  bool Contains(TagId tag) const;

  /// True when every tag of *this is contained in `other`.
  bool IsSubsetOf(const TagSet& other) const;

  /// Number of tags present in both sets (linear merge).
  size_t IntersectionSize(const TagSet& other) const;

  /// Set intersection / union (canonical results).
  TagSet Intersect(const TagSet& other) const;
  TagSet Union(const TagSet& other) const;

  /// The core subset enumerator, allocation-free: writes each non-empty
  /// subset with at least `min_size` tags into the caller-provided
  /// `scratch` buffer (capacity >= size()) and invokes
  /// `fn(const TagId* subset, size_t subset_size)`. Each subset's tags are
  /// ascending, and subsets come in ascending bitmask order over this set's
  /// positions (bit i = i-th smallest tag): with min_size 1, call m is mask m.
  /// Requires size() <= kMaxTagsPerDocument (bitmask enumeration).
  /// ForEachSubset is a thin adapter over this loop, and the Calculator's
  /// counter table (core/jaccard.h) probes the spans it yields directly.
  template <typename Fn>
  void ForEachSubsetSpan(TagId* scratch, Fn&& fn, size_t min_size = 1) const {
    const size_t n = tags_.size();
    CORRTRACK_CHECK_LE(n, static_cast<size_t>(kMaxTagsPerDocument));
    if (n == 0) return;
    const uint32_t full = SubsetMaskFull(n);
    // `mask == full` is tested before the increment, so the loop terminates
    // even when `full` is the all-ones mask (the n == 32 overflow hazard of
    // a `mask <= full` condition). The fill loop counts the subset's size,
    // so no popcount is needed; a subset under `min_size` is written too,
    // but only into positions below `min_size`, which the next accepted
    // subset overwrites.
    for (uint32_t mask = 1;; ++mask) {
      const size_t m = SelectTags(tags_.data(), mask, scratch);
      if (m >= min_size) fn(static_cast<const TagId*>(scratch), m);
      if (mask == full) break;
    }
  }

  /// Invokes `fn(const TagSet&)` for every non-empty subset of *this with at
  /// least `min_size` tags. The subsets passed to `fn` are canonical views
  /// of one reused scratch set — copy to retain beyond the callback.
  template <typename Fn>
  void ForEachSubset(Fn&& fn, size_t min_size = 1) const {
    TagId buf[kMaxTagsPerDocument];
    TagSet scratch;
    scratch.tags_.reserve(tags_.size());
    ForEachSubsetSpan(
        buf,
        [&](const TagId* subset, size_t m) {
          scratch.tags_.clear();
          scratch.tags_.append(subset, subset + m);
          fn(static_cast<const TagSet&>(scratch));
        },
        min_size);
  }

  /// FNV-1a over the tag ids; canonical form makes this a set hash.
  size_t Hash() const;

  /// "{1,5,9}" — for diagnostics and test failure messages.
  std::string ToString() const;

  friend bool operator==(const TagSet& a, const TagSet& b) {
    return a.tags_ == b.tags_;
  }
  friend bool operator!=(const TagSet& a, const TagSet& b) {
    return !(a == b);
  }
  friend bool operator<(const TagSet& a, const TagSet& b) {
    return a.tags_ < b.tags_;
  }

 private:
  /// All-ones mask over n subset positions, safe for n up to 32.
  static uint32_t SubsetMaskFull(size_t n) {
    return n >= 32 ? ~0u : ((1u << n) - 1);
  }

  Storage tags_;
};

struct TagSetHash {
  size_t operator()(const TagSet& s) const { return s.Hash(); }
};

}  // namespace corrtrack

#endif  // CORRTRACK_CORE_TAGSET_H_
