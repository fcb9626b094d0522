#ifndef CORRTRACK_CORE_PERIOD_TABLE_H_
#define CORRTRACK_CORE_PERIOD_TABLE_H_

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/jaccard.h"
#include "core/tagset.h"

namespace corrtrack {

/// One reporting period's coefficients: the (s_i, J(s_i), CN(s_i)) per
/// tracked tagset that the Tracker (§6.2) and the centralised baseline
/// (§8.2.3) retain for every period. The period is one sorted block, sized
/// exactly to its entries and kept in TagSet::operator< order: per entry
/// its CN, union count and coefficient (24 B) and where its tags end in a
/// tag arena (4 B; they start where the previous entry's end), plus 4 B
/// per tag. That is 40 B per estimate at 3 tags. No index is kept: lookups
/// binary-search.
///
/// Merge folds one report in by a linear merge of two sorted runs into a
/// new block, under MergeEstimate's rules, so duplicate reports of a
/// tagset settle exactly as on JaccardEstimates. Reads mirror a map from
/// TagSet to JaccardEstimate: iteration (in tagset order) and find() yield
/// std::pair<TagSet, JaccardEstimate> by value, built from the entry when
/// dereferenced, and at() returns the estimate by value.
class PeriodTable {
 public:
  using value_type = std::pair<TagSet, JaccardEstimate>;

  /// Walks the entries in tagset order; dereferencing builds the pair.
  /// Merge replaces the block, which invalidates every iterator.
  class const_iterator {
   public:
    /// What operator-> returns: the built pair, held for the expression.
    struct Arrow {
      value_type value;
      const value_type* operator->() const { return &value; }
    };

    value_type operator*() const {
      JaccardEstimate estimate = table_->EstimateAt(entry_);
      TagSet tags = estimate.tags;
      return {std::move(tags), std::move(estimate)};
    }
    Arrow operator->() const { return {**this}; }
    const_iterator& operator++() {
      ++entry_;
      return *this;
    }
    friend bool operator==(const const_iterator&,
                           const const_iterator&) = default;

   private:
    friend class PeriodTable;
    const_iterator(const PeriodTable* table, size_t entry)
        : table_(table), entry_(entry) {}

    const PeriodTable* table_;
    size_t entry_;
  };

  /// Merges `*report` into the period under `policy` (MergeEstimate): a
  /// tagset not yet in the period is added as reported. Leaves in
  /// `*report`, in arrival order, the estimates that changed an entry,
  /// each holding the entry's numbers right after it merged — what one
  /// merge per estimate, in arrival order, would change and settle on. A
  /// report that is not strictly ascending (unsorted, or holding a tagset
  /// twice) is first ordered by a stable sort, so its duplicates fold in
  /// arrival order.
  void Merge(std::vector<JaccardEstimate>* report, EstimateMerge policy);

  /// Appends every estimate to `out`, in tagset order.
  void AppendTo(std::vector<JaccardEstimate>* out) const {
    out->reserve(out->size() + size());
    for (size_t entry = 0; entry < size(); ++entry) {
      out->push_back(EstimateAt(entry));
    }
  }

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  const_iterator find(const TagSet& tags) const {
    return {this, Find(tags)};
  }
  size_t count(const TagSet& tags) const {
    return Find(tags) == size() ? 0 : 1;
  }
  JaccardEstimate at(const TagSet& tags) const {
    const size_t entry = Find(tags);
    CORRTRACK_CHECK_NE(entry, size());
    return EstimateAt(entry);
  }

  size_t size() const { return numbers_.size(); }

 private:
  /// An entry's three numbers, as MergeEstimate reads and writes them.
  struct Numbers {
    uint64_t intersection_count;
    uint64_t union_count;
    double coefficient;
  };

  /// TagSet::operator< on tag spans, three-way.
  static std::strong_ordering Compare(const TagId* a, size_t na,
                                      const TagId* b, size_t nb) {
    return std::lexicographical_compare_three_way(a, a + na, b, b + nb);
  }

  /// The tags of entry `entry` < size().
  const TagId* TagsAt(size_t entry) const {
    return arena_.data() + (entry == 0 ? 0 : tag_end_[entry - 1]);
  }
  size_t SizeAt(size_t entry) const {
    return tag_end_[entry] - (entry == 0 ? 0 : tag_end_[entry - 1]);
  }

  /// The entry of `tags`, or size() when the period does not hold it.
  size_t Find(const TagSet& tags) const {
    size_t lo = 0;
    size_t hi = size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      const std::strong_ordering cmp =
          Compare(TagsAt(mid), SizeAt(mid), tags.begin(), tags.size());
      if (cmp == 0) return mid;
      if (cmp < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return size();
  }

  /// The estimate of entry `entry` < size().
  JaccardEstimate EstimateAt(size_t entry) const {
    const TagId* tags = TagsAt(entry);
    JaccardEstimate estimate;
    estimate.tags = TagSet::FromSorted(tags, tags + SizeAt(entry));
    estimate.coefficient = numbers_[entry].coefficient;
    estimate.intersection_count = numbers_[entry].intersection_count;
    estimate.union_count = numbers_[entry].union_count;
    return estimate;
  }

  // By entry, in ascending tagset order.
  std::vector<Numbers> numbers_;
  std::vector<uint32_t> tag_end_;  // End of the entry's tags in arena_.
  std::vector<TagId> arena_;
};

}  // namespace corrtrack

#endif  // CORRTRACK_CORE_PERIOD_TABLE_H_
