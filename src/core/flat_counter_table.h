#ifndef CORRTRACK_CORE_FLAT_COUNTER_TABLE_H_
#define CORRTRACK_CORE_FLAT_COUNTER_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/tagset.h"
#include "core/types.h"

namespace corrtrack {

/// Open-addressing, power-of-two, linear-probing counter table keyed by a
/// sorted tag span: the allocation-free core of the subset-counting hot
/// path (§3.1 Calculator). Counters are entries numbered 0..size() − 1 in
/// insertion order, and storage is sized to what a counter holds, not to
/// the 16-tag maximum:
///   - a dense 8-byte slot lane that probing walks (8 slots per cache
///     line): the high half of the key's hash, forced odd so that 0 marks
///     an empty slot, over the entry number;
///   - a 16-byte record per entry, in insertion order: count, and the
///     offset and size of the key's tags in the arena;
///   - a per-period tag arena: each new counter appends its tags, so the
///     subsets one Observe creates sit next to each other;
///   - the slot of each entry, so that Reset empties exactly the occupied
///     slots.
/// Every sweep (ForEach, a report's root scan and visited marks, an
/// export) walks the records front to back, and Reset touches only the
/// live slots: all cost O(live counters), not O(capacity). The table only
/// grows; Reset() clears counters and the arena but keeps capacity, which
/// is exactly the per-reporting-period lifecycle of a Calculator (§6.2):
/// after the first period it is allocation-free in steady state.
class FlatCounterTable {
 public:
  using Entry = uint32_t;
  static constexpr Entry kNoEntry = static_cast<Entry>(-1);

  FlatCounterTable() = default;

  /// Adds `delta` to the counter of the ascending tags [tags, tags + n),
  /// creating it at `delta` as entry size(). Returns its entry.
  Entry Increment(const TagId* tags, size_t n, uint64_t delta = 1) {
    const auto [entry, inserted] = Emplace(tags, n, delta);
    if (!inserted) records_[entry].count += delta;
    return entry;
  }

  /// Entry of the ascending tags [tags, tags + n), created with counter
  /// `count` as entry size() when absent. Returns (entry, created); an
  /// existing counter is left as it is.
  std::pair<Entry, bool> Emplace(const TagId* tags, size_t n, uint64_t count) {
    if ((records_.size() + 1) * 4 > capacity() * 3) Grow();
    const uint64_t hash = HashTagSpan(tags, n);
    size_t i = static_cast<size_t>(hash) & mask_;
    for (; slots_[i] != 0; i = (i + 1) & mask_) {
      const Entry entry = EntryIfTagged(slots_[i], hash);
      if (entry != kNoEntry && KeyEquals(entry, tags, n)) return {entry, false};
    }
    CORRTRACK_CHECK_LT(records_.size(), size_t{kNoEntry});
    CORRTRACK_CHECK_LE(arena_.size() + n, size_t{UINT32_MAX});
    const Entry entry = static_cast<Entry>(records_.size());
    slots_[i] = SlotWord(hash, entry);
    records_.push_back({count, static_cast<uint32_t>(arena_.size()),
                        static_cast<uint32_t>(n)});
    arena_.insert(arena_.end(), tags, tags + n);
    entry_slot_.push_back(static_cast<uint32_t>(i));
    return {entry, true};
  }

  /// Entry of the ascending tags [tags, tags + n) with hash `hash`
  /// (HashTagSpan), or kNoEntry when absent.
  Entry FindEntry(const TagId* tags, size_t n, uint64_t hash) const {
    if (records_.empty()) return kNoEntry;
    for (size_t i = static_cast<size_t>(hash) & mask_; slots_[i] != 0;
         i = (i + 1) & mask_) {
      const Entry entry = EntryIfTagged(slots_[i], hash);
      if (entry != kNoEntry && KeyEquals(entry, tags, n)) return entry;
    }
    return kNoEntry;
  }
  Entry FindEntry(const TagId* tags, size_t n) const {
    return FindEntry(tags, n, HashTagSpan(tags, n));
  }

  /// Counter of the ascending tags [tags, tags + n), or 0 when absent.
  uint64_t Find(const TagId* tags, size_t n) const {
    const Entry entry = FindEntry(tags, n);
    return entry == kNoEntry ? 0 : records_[entry].count;
  }

  /// Starts loading the home slot of `hash`, so a batch of probes can
  /// overlap its cache misses instead of queueing one behind another.
  void Prefetch(uint64_t hash) const {
    if (!records_.empty()) {
      __builtin_prefetch(&slots_[static_cast<size_t>(hash) & mask_]);
    }
  }

  /// Key and counter of entry `entry` < size().
  const TagId* TagsAt(Entry entry) const {
    return arena_.data() + records_[entry].offset;
  }
  uint32_t SizeAt(Entry entry) const { return records_[entry].size; }
  uint64_t CountAt(Entry entry) const { return records_[entry].count; }

  /// Invokes `fn(const TagId* tags, size_t n, uint64_t count)` for every
  /// counter, in insertion order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Record& r : records_) fn(arena_.data() + r.offset, r.size, r.count);
  }

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  size_t capacity() const { return slots_.size(); }

  /// Deletes all counters but keeps the allocated capacity (the reporting
  /// period reset of §6.2 reuses the table at its high-water size).
  void Reset() {
    for (const uint32_t slot : entry_slot_) slots_[slot] = 0;
    entry_slot_.clear();
    records_.clear();
    arena_.clear();
  }

 private:
  struct Record {
    uint64_t count;
    uint32_t offset;  // Into arena_.
    uint32_t size;
  };

  static uint64_t SlotWord(uint64_t hash, Entry entry) {
    return ((hash >> 32) | 1) << 32 | entry;
  }
  /// The entry a slot word names if its hash half matches `hash`'s.
  static Entry EntryIfTagged(uint64_t word, uint64_t hash) {
    return (word >> 32) == ((hash >> 32) | 1) ? static_cast<Entry>(word)
                                               : kNoEntry;
  }

  bool KeyEquals(Entry entry, const TagId* tags, size_t n) const {
    const Record& r = records_[entry];
    return r.size == n &&
           std::memcmp(arena_.data() + r.offset, tags, n * sizeof(TagId)) == 0;
  }

  /// Doubles the capacity and re-homes every entry; entry numbers and the
  /// arena do not move.
  void Grow() {
    const size_t new_capacity = std::max<size_t>(64, capacity() * 2);
    CORRTRACK_CHECK_LE(new_capacity, size_t{UINT32_MAX} + 1);
    slots_.assign(new_capacity, 0);
    mask_ = new_capacity - 1;
    for (Entry entry = 0; entry < records_.size(); ++entry) {
      const uint64_t hash = HashTagSpan(TagsAt(entry), SizeAt(entry));
      size_t i = static_cast<size_t>(hash) & mask_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = SlotWord(hash, entry);
      entry_slot_[entry] = static_cast<uint32_t>(i);
    }
  }

  std::vector<uint64_t> slots_;        // 0 = empty slot.
  std::vector<Record> records_;        // By entry.
  std::vector<TagId> arena_;           // Keys, in entry order.
  std::vector<uint32_t> entry_slot_;   // By entry.
  size_t mask_ = 0;
};

/// A hash map from TagSet to V with dense, cache-friendly storage: entries
/// live contiguously in insertion order and an open-addressing index
/// (hash lane + entry-index lane, linear probing, power-of-two) maps keys to
/// them. Holds the Disseminator's uncovered-tagset counts and the
/// co-occurrence snapshot's counts. Unlike FlatCounterTable it accepts
/// tagsets of any size, and its keys are whole TagSets.
///
/// Iteration is over std::pair<TagSet, V> in insertion order
/// (deterministic, unlike unordered_map). Iterators are invalidated by
/// insertions and erasures, as with unordered_map rehashes.
template <typename V>
class FlatTagSetMap {
 public:
  using value_type = std::pair<TagSet, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatTagSetMap() = default;

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  void clear() {
    entries_.clear();
    std::fill(slot_hash_.begin(), slot_hash_.end(), uint64_t{0});
  }

  iterator find(const TagSet& key) {
    const size_t idx = FindEntry(key);
    return idx == kNpos ? entries_.end()
                        : entries_.begin() + static_cast<ptrdiff_t>(idx);
  }
  const_iterator find(const TagSet& key) const {
    const size_t idx = FindEntry(key);
    return idx == kNpos ? entries_.end()
                        : entries_.begin() + static_cast<ptrdiff_t>(idx);
  }

  size_t count(const TagSet& key) const {
    return FindEntry(key) == kNpos ? 0 : 1;
  }

  const V& at(const TagSet& key) const {
    const size_t idx = FindEntry(key);
    CORRTRACK_CHECK_NE(idx, kNpos);
    return entries_[idx].second;
  }
  V& at(const TagSet& key) {
    const size_t idx = FindEntry(key);
    CORRTRACK_CHECK_NE(idx, kNpos);
    return entries_[idx].second;
  }

  V& operator[](const TagSet& key) {
    return entries_[InsertEntry(key).first].second;
  }

  /// unordered_map-style emplace: inserts (key, value) unless the key is
  /// present; returns the entry iterator and whether an insert happened.
  /// The value is perfect-forwarded and only consumed after the key has
  /// been copied in, so emplace(e.tags, std::move(e)) is safe.
  template <typename U>
  std::pair<iterator, bool> emplace(const TagSet& key, U&& value) {
    const auto [idx, inserted] = InsertEntry(key);
    if (inserted) entries_[idx].second = std::forward<U>(value);
    return {entries_.begin() + static_cast<ptrdiff_t>(idx), inserted};
  }

  /// Erases `key` if present; returns the number of erased entries (0/1).
  /// The last entry is swapped into the vacated dense slot.
  size_t erase(const TagSet& key) {
    if (entries_.empty()) return 0;
    const uint64_t h = HashTags(key);
    size_t slot = static_cast<size_t>(h) & mask_;
    while (true) {
      if (slot_hash_[slot] == 0) return 0;
      if (slot_hash_[slot] == h &&
          entries_[slot_index_[slot]].first == key) {
        break;
      }
      slot = (slot + 1) & mask_;
    }
    const size_t idx = slot_index_[slot];
    EraseSlot(slot);
    const size_t last = entries_.size() - 1;
    if (idx != last) {
      entries_[idx] = std::move(entries_[last]);
      // Repoint the moved entry's index slot.
      const uint64_t mh = HashTags(entries_[idx].first);
      size_t ms = static_cast<size_t>(mh) & mask_;
      while (slot_index_[ms] != last || slot_hash_[ms] != mh) {
        CORRTRACK_CHECK_NE(slot_hash_[ms], uint64_t{0});
        ms = (ms + 1) & mask_;
      }
      slot_index_[ms] = idx;
    }
    entries_.pop_back();
    return 1;
  }

 private:
  static constexpr size_t kNpos = static_cast<size_t>(-1);

  /// Shared tag-span mix (never 0 — 0 marks an empty slot), over sets of
  /// any size.
  static uint64_t HashTags(const TagSet& s) {
    return HashTagSpan(s.begin(), s.size());
  }

  size_t FindEntry(const TagSet& key) const {
    if (entries_.empty()) return kNpos;
    const uint64_t h = HashTags(key);
    size_t slot = static_cast<size_t>(h) & mask_;
    while (slot_hash_[slot] != 0) {
      if (slot_hash_[slot] == h &&
          entries_[slot_index_[slot]].first == key) {
        return slot_index_[slot];
      }
      slot = (slot + 1) & mask_;
    }
    return kNpos;
  }

  /// Finds or appends the entry for `key`; returns (entry index, inserted).
  std::pair<size_t, bool> InsertEntry(const TagSet& key) {
    if ((entries_.size() + 1) * 4 > slot_hash_.size() * 3) Grow();
    const uint64_t h = HashTags(key);
    size_t slot = static_cast<size_t>(h) & mask_;
    while (slot_hash_[slot] != 0) {
      if (slot_hash_[slot] == h &&
          entries_[slot_index_[slot]].first == key) {
        return {slot_index_[slot], false};
      }
      slot = (slot + 1) & mask_;
    }
    slot_hash_[slot] = h;
    slot_index_[slot] = entries_.size();
    entries_.emplace_back(key, V{});
    return {entries_.size() - 1, true};
  }

  /// Standard linear-probing deletion: backward-shifts the probe chain so
  /// no tombstones are needed.
  void EraseSlot(size_t hole) {
    size_t i = hole;
    size_t j = hole;
    while (true) {
      j = (j + 1) & mask_;
      if (slot_hash_[j] == 0) break;
      const size_t home = static_cast<size_t>(slot_hash_[j]) & mask_;
      // Move j's occupant into the hole unless its home slot lies within
      // (i, j] cyclically (it would then probe past the hole regardless).
      const bool home_in_range =
          (j > i) ? (home > i && home <= j) : (home > i || home <= j);
      if (!home_in_range) {
        slot_hash_[i] = slot_hash_[j];
        slot_index_[i] = slot_index_[j];
        i = j;
      }
    }
    slot_hash_[i] = 0;
  }

  void Grow() {
    const size_t new_capacity = std::max<size_t>(64, slot_hash_.size() * 2);
    slot_hash_.assign(new_capacity, 0);
    slot_index_.assign(new_capacity, 0);
    mask_ = new_capacity - 1;
    for (size_t idx = 0; idx < entries_.size(); ++idx) {
      const uint64_t h = HashTags(entries_[idx].first);
      size_t slot = static_cast<size_t>(h) & mask_;
      while (slot_hash_[slot] != 0) slot = (slot + 1) & mask_;
      slot_hash_[slot] = h;
      slot_index_[slot] = idx;
    }
  }

  std::vector<value_type> entries_;   // Dense, insertion order.
  std::vector<uint64_t> slot_hash_;   // 0 = empty slot.
  std::vector<size_t> slot_index_;    // Into entries_, where slot_hash_ != 0.
  size_t mask_ = 0;
};

}  // namespace corrtrack

#endif  // CORRTRACK_CORE_FLAT_COUNTER_TABLE_H_
