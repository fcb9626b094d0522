#include "core/period_table.h"

#include <algorithm>
#include <compare>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace corrtrack {

void PeriodTable::Merge(std::vector<JaccardEstimate>* report,
                        EstimateMerge policy) {
  std::vector<JaccardEstimate>& in = *report;
  const size_t m = in.size();
  // The report's positions in tagset order, a tagset's repeats in arrival
  // order; empty when that is arrival order, as in every report ReportAll
  // builds.
  std::vector<uint32_t> order;
  if (std::adjacent_find(in.begin(), in.end(),
                         [](const JaccardEstimate& a,
                            const JaccardEstimate& b) {
                           return !(a.tags < b.tags);
                         }) != in.end()) {
    CORRTRACK_CHECK_LE(m, size_t{UINT32_MAX});
    order.resize(m);
    std::iota(order.begin(), order.end(), uint32_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&in](uint32_t a, uint32_t b) {
                       return in[a].tags < in[b].tags;
                     });
  }
  const auto pos = [&](size_t i) -> size_t {
    return order.empty() ? i : order[i];
  };

  size_t tag_count = arena_.size();
  for (const JaccardEstimate& e : in) tag_count += e.tags.size();
  CORRTRACK_CHECK_LE(tag_count, size_t{UINT32_MAX});
  std::vector<Numbers> numbers;
  std::vector<uint32_t> tag_end;
  std::vector<TagId> arena;
  numbers.reserve(size() + m);
  tag_end.reserve(size() + m);
  arena.reserve(tag_count);
  const auto append = [&](const TagId* tags, size_t n, const Numbers& r) {
    numbers.push_back(r);
    arena.insert(arena.end(), tags, tags + n);
    tag_end.push_back(static_cast<uint32_t>(arena.size()));
  };
  // The next entry of the old block to copy, and where its tags start.
  size_t old = 0;
  uint32_t old_begin = 0;
  // Copies the old entries [old, stop) as one run; its tags move up by
  // the new entries written before it.
  const auto copy_old = [&](size_t stop) {
    if (stop == old) return;
    const uint32_t shift = static_cast<uint32_t>(arena.size()) - old_begin;
    numbers.insert(numbers.end(), numbers_.begin() + old,
                   numbers_.begin() + stop);
    arena.insert(arena.end(), arena_.begin() + old_begin,
                 arena_.begin() + tag_end_[stop - 1]);
    for (; old < stop; ++old) tag_end.push_back(tag_end_[old] + shift);
    old_begin = tag_end_[stop - 1];
  };

  std::vector<uint8_t> changed(m);  // By report position.
  for (size_t i = 0; i < m;) {
    const JaccardEstimate& head = in[pos(i)];
    const TagId* tags = head.tags.begin();
    const size_t n = head.tags.size();
    // The old entries ordered before the tagset: [old, stop).
    size_t stop = old;
    uint32_t stop_begin = old_begin;
    std::strong_ordering cmp = std::strong_ordering::less;
    while (stop < size() &&
           (cmp = Compare(arena_.data() + stop_begin,
                          tag_end_[stop] - stop_begin, tags, n)) < 0) {
      stop_begin = tag_end_[stop++];
    }
    copy_old(stop);
    // The report's run of this tagset: [i, run_end).
    size_t run_end = i + 1;
    if (!order.empty()) {
      while (run_end < m && in[pos(run_end)].tags == head.tags) ++run_end;
    }
    if (old < size() && cmp == 0) {
      copy_old(old + 1);
    } else {
      append(tags, n,
             {head.intersection_count, head.union_count, head.coefficient});
      changed[pos(i)] = 1;
      ++i;
    }
    // The rest of the run folds into the entry in arrival order.
    Numbers& entry = numbers.back();
    for (; i < run_end; ++i) {
      JaccardEstimate& e = in[pos(i)];
      if (!MergeEstimate(&entry, e, policy)) continue;
      e.coefficient = entry.coefficient;
      e.intersection_count = entry.intersection_count;
      e.union_count = entry.union_count;
      changed[pos(i)] = 1;
    }
  }
  copy_old(size());
  // The reservation counted every reported tagset as new.
  numbers.shrink_to_fit();
  tag_end.shrink_to_fit();
  arena.shrink_to_fit();
  numbers_ = std::move(numbers);
  tag_end_ = std::move(tag_end);
  arena_ = std::move(arena);

  size_t kept = 0;
  for (size_t j = 0; j < m; ++j) {
    if (!changed[j]) continue;
    if (kept != j) in[kept] = std::move(in[j]);
    ++kept;
  }
  in.resize(kept);
}

}  // namespace corrtrack
