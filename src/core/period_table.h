#ifndef CORRTRACK_CORE_PERIOD_TABLE_H_
#define CORRTRACK_CORE_PERIOD_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/flat_counter_table.h"
#include "core/jaccard.h"
#include "core/tagset.h"

namespace corrtrack {

/// One reporting period's coefficients: the (s_i, J(s_i), CN(s_i)) per
/// tracked tagset that the Tracker (§6.2) and the centralised baseline
/// (§8.2.3) retain for every period. Each tagset is stored once. A
/// FlatCounterTable whose counter is CN holds the key in its tag arena and
/// 8-byte slot lane, and a parallel lane by entry holds the union count and
/// the coefficient's bits: 36 B per estimate, plus 4 B per tag and a slot.
///
/// Merge applies MergeEstimate's rules in place, so duplicate reports of a
/// tagset settle exactly as on JaccardEstimates. Entries keep insertion
/// order, and reads mirror a map from TagSet to JaccardEstimate: iteration
/// and find() yield std::pair<TagSet, JaccardEstimate> by value, built from
/// the entry when dereferenced, and at() returns the estimate by value.
class PeriodTable {
 public:
  using Entry = FlatCounterTable::Entry;
  using value_type = std::pair<TagSet, JaccardEstimate>;

  /// Walks the entries in insertion order; dereferencing builds the pair.
  /// Entries never move, so an insertion invalidates no iterator.
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
    const_iterator(const PeriodTable* table, Entry entry)
        : table_(table), entry_(entry) {}

    const PeriodTable* table_;
    Entry entry_;
  };

  /// Adds `*estimate` as a new entry when its tagset is absent, else merges
  /// it into the tagset's entry under `policy` (MergeEstimate). Returns
  /// whether the entry changed; when it did, `*estimate` holds the entry's
  /// settled numbers.
  bool Merge(JaccardEstimate* estimate, EstimateMerge policy) {
    const auto [entry, inserted] = table_.Emplace(
        estimate->tags.begin(), estimate->tags.size(),
        estimate->intersection_count);
    if (inserted) {
      lanes_.push_back({estimate->union_count, estimate->coefficient});
      return true;
    }
    Lane& lane = lanes_[entry];
    Numbers numbers{lane.coefficient, table_.CountAt(entry), lane.union_count};
    if (!MergeEstimate(&numbers, *estimate, policy)) return false;
    table_.SetCountAt(entry, numbers.intersection_count);
    lane = {numbers.union_count, numbers.coefficient};
    estimate->coefficient = numbers.coefficient;
    estimate->intersection_count = numbers.intersection_count;
    estimate->union_count = numbers.union_count;
    return true;
  }

  /// Makes room for `n` entries without a rehash.
  void Reserve(size_t n) { table_.Reserve(n); }

  /// Appends every estimate to `out`, in insertion order.
  void AppendTo(std::vector<JaccardEstimate>* out) const {
    out->reserve(out->size() + size());
    for (Entry entry = 0; entry < size(); ++entry) {
      out->push_back(EstimateAt(entry));
    }
  }

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, static_cast<Entry>(size())}; }

  const_iterator find(const TagSet& tags) const {
    const Entry entry = table_.FindEntry(tags.begin(), tags.size());
    return entry == FlatCounterTable::kNoEntry ? end()
                                               : const_iterator(this, entry);
  }
  size_t count(const TagSet& tags) const {
    return find(tags) == end() ? 0 : 1;
  }
  JaccardEstimate at(const TagSet& tags) const {
    const Entry entry = table_.FindEntry(tags.begin(), tags.size());
    CORRTRACK_CHECK_NE(entry, FlatCounterTable::kNoEntry);
    return EstimateAt(entry);
  }

  size_t size() const { return table_.size(); }

 private:
  /// An entry's union count and coefficient (CN is the table's counter).
  struct Lane {
    uint64_t union_count;
    double coefficient;
  };
  /// An entry's three numbers, as MergeEstimate reads and writes them.
  struct Numbers {
    double coefficient;
    uint64_t intersection_count;
    uint64_t union_count;
  };

  /// The estimate of entry `entry` < size().
  JaccardEstimate EstimateAt(Entry entry) const {
    const TagId* tags = table_.TagsAt(entry);
    JaccardEstimate estimate;
    estimate.tags = TagSet::FromSorted(tags, tags + table_.SizeAt(entry));
    estimate.coefficient = lanes_[entry].coefficient;
    estimate.intersection_count = table_.CountAt(entry);
    estimate.union_count = lanes_[entry].union_count;
    return estimate;
  }

  FlatCounterTable table_;
  std::vector<Lane> lanes_;  // By entry.
};

}  // namespace corrtrack

#endif  // CORRTRACK_CORE_PERIOD_TABLE_H_
