#ifndef CORRTRACK_CORE_FLAT_COUNTER_TABLE_H_
#define CORRTRACK_CORE_FLAT_COUNTER_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/tagset.h"
#include "core/types.h"

namespace corrtrack {

/// Open-addressing, power-of-two, linear-probing counter table keyed by
/// PackedTagKey — the allocation-free core of the subset-counting hot path
/// (§3.1 Calculator). Storage is struct-of-arrays: probing walks a dense
/// uint64 hash lane (one cache line covers 8 slots) and touches the wide
/// fixed-size key lane only on a hash match, so an Observe() is a probe +
/// increment with no node allocation and no per-subset TagSet construction.
///
/// Slot states are encoded in the hash lane: 0 = empty (PackedTagKey::Hash
/// never returns 0). The table only grows; Reset() clears counters but
/// keeps capacity, which is exactly the per-reporting-period lifecycle of a
/// Calculator (§6.2) — after the first period the table is allocation-free
/// in steady state.
class FlatCounterTable {
 public:
  FlatCounterTable() = default;

  /// Adds `delta` to the counter of `key`, creating it at `delta`.
  void Increment(const PackedTagKey& key, uint64_t delta = 1) {
    if ((size_ + 1) * 4 > capacity() * 3) Grow();
    const uint64_t h = key.Hash();
    size_t i = static_cast<size_t>(h) & mask_;
    while (hashes_[i] != 0) {
      if (hashes_[i] == h && keys_[i] == key) {
        counts_[i] += delta;
        return;
      }
      i = (i + 1) & mask_;
    }
    hashes_[i] = h;
    keys_[i] = key;
    counts_[i] = delta;
    ++size_;
  }

  /// Counter of `key`, or 0 when absent.
  uint64_t Find(const PackedTagKey& key) const {
    const size_t slot = FindSlot(key);
    return slot == kNoSlot ? 0 : counts_[slot];
  }

  /// Slot access: slots are stable until the next Increment (which may
  /// grow the table) or Reset, and range over [0, capacity()).
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  /// Slot holding `key`, or kNoSlot when absent.
  size_t FindSlot(const PackedTagKey& key) const {
    if (size_ == 0) return kNoSlot;
    const uint64_t h = key.Hash();
    size_t i = static_cast<size_t>(h) & mask_;
    while (hashes_[i] != 0) {
      if (hashes_[i] == h && keys_[i] == key) return i;
      i = (i + 1) & mask_;
    }
    return kNoSlot;
  }

  /// FindSlot for `n` keys at once: slots[i] = FindSlot(keys[i]). Each
  /// key's home slot is prefetched kAhead keys before its probe, so the
  /// probes' cache misses overlap instead of queueing one behind another.
  void FindSlots(const PackedTagKey* keys, size_t n, size_t* slots) const {
    constexpr size_t kAhead = 16;
    for (size_t i = 0; i < n + kAhead; ++i) {
      if (i < n && size_ != 0) {
        const size_t home = static_cast<size_t>(keys[i].Hash()) & mask_;
        const char* key = reinterpret_cast<const char*>(&keys_[home]);
        __builtin_prefetch(&hashes_[home]);
        __builtin_prefetch(key);
        __builtin_prefetch(key + sizeof(PackedTagKey) - 1);
        __builtin_prefetch(&counts_[home]);
      }
      if (i >= kAhead) slots[i - kAhead] = FindSlot(keys[i - kAhead]);
    }
  }

  bool Occupied(size_t slot) const { return hashes_[slot] != 0; }
  /// Key and counter of an occupied slot.
  const PackedTagKey& KeyAt(size_t slot) const { return keys_[slot]; }
  uint64_t CountAt(size_t slot) const { return counts_[slot]; }

  /// Invokes `fn(const PackedTagKey&, uint64_t count)` for every live
  /// counter, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < hashes_.size(); ++i) {
      if (Occupied(i)) fn(keys_[i], counts_[i]);
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return hashes_.size(); }

  /// Deletes all counters but keeps the allocated capacity (the reporting
  /// period reset of §6.2 reuses the table at its high-water size).
  void Reset() {
    std::fill(hashes_.begin(), hashes_.end(), uint64_t{0});
    size_ = 0;
  }

 private:
  void Grow() {
    const size_t new_capacity = std::max<size_t>(64, capacity() * 2);
    std::vector<uint64_t> hashes(new_capacity, 0);
    std::vector<PackedTagKey> keys(new_capacity);
    std::vector<uint64_t> counts(new_capacity);
    const size_t new_mask = new_capacity - 1;
    for (size_t i = 0; i < hashes_.size(); ++i) {
      if (hashes_[i] == 0) continue;
      size_t j = static_cast<size_t>(hashes_[i]) & new_mask;
      while (hashes[j] != 0) j = (j + 1) & new_mask;
      hashes[j] = hashes_[i];
      keys[j] = keys_[i];
      counts[j] = counts_[i];
    }
    hashes_ = std::move(hashes);
    keys_ = std::move(keys);
    counts_ = std::move(counts);
    mask_ = new_mask;
  }

  std::vector<uint64_t> hashes_;     // 0 = empty slot.
  std::vector<PackedTagKey> keys_;   // Valid where hashes_[i] != 0.
  std::vector<uint64_t> counts_;     // Valid where hashes_[i] != 0.
  size_t size_ = 0;
  size_t mask_ = 0;
};

/// A hash map from TagSet to V with dense, cache-friendly storage: entries
/// live contiguously in insertion order and an open-addressing index
/// (hash lane + entry-index lane, linear probing, power-of-two) maps keys to
/// them. Replaces the node-based std::unordered_map<TagSet, V, TagSetHash>
/// in the Tracker/Centralized period results and the Disseminator's
/// uncovered-tagset counts. Unlike FlatCounterTable it accepts tagsets of
/// any size (the hash is a single pass over the tags, no packing).
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
