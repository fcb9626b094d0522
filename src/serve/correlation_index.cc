#include "serve/correlation_index.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/check.h"
#include "storage/serialize.h"
#include "telemetry/clock.h"

namespace corrtrack::serve {

CorrelationIndex::CorrelationIndex(const ServeConfig& config)
    : config_(config) {
  CORRTRACK_CHECK_GT(config.num_shards, 0);
  num_shards_ = std::bit_ceil(static_cast<size_t>(config.num_shards));
  shard_mask_ = num_shards_ - 1;
  shards_ = std::make_unique<Shard[]>(num_shards_);
  // Publish an empty snapshot everywhere so readers never see null.
  for (size_t s = 0; s < num_shards_; ++s) {
    Publish(shards_[s], std::make_shared<const ShardSnapshot>());
  }
}

void CorrelationIndex::Publish(Shard& shard,
                               std::shared_ptr<const ShardSnapshot> snapshot) {
  {
    std::lock_guard<std::mutex> lock(shard.slot_mutex);
    shard.slot = std::move(snapshot);
  }
  // The version bump is what readers poll; bumped after the swap so a
  // reader seeing the new version finds (at least) that snapshot behind
  // the mutex.
  shard.version.fetch_add(1, std::memory_order_release);
}

void CorrelationIndex::AttachTelemetry(telemetry::MetricRegistry* registry) {
  if (registry == nullptr) {
    query_top_hist_ = nullptr;
    query_lookup_hist_ = nullptr;
    query_scan_hist_ = nullptr;
    apply_hist_ = nullptr;
    epoch_gauge_ = nullptr;
    latest_period_gauge_ = nullptr;
    return;
  }
  // Queries are sub-microsecond on the cached-snapshot fast path, so their
  // histograms record nanoseconds; the writer-side apply is µs-scale.
  query_top_hist_ =
      registry->GetHistogram("corrtrack_serve_query_ns{op=\"top\"}");
  query_lookup_hist_ =
      registry->GetHistogram("corrtrack_serve_query_ns{op=\"lookup\"}");
  query_scan_hist_ =
      registry->GetHistogram("corrtrack_serve_query_ns{op=\"scan\"}");
  apply_hist_ = registry->GetHistogram("corrtrack_serve_apply_us");
  epoch_gauge_ = registry->GetGauge("corrtrack_serve_epoch");
  latest_period_gauge_ = registry->GetGauge("corrtrack_serve_latest_period");
}

void CorrelationIndex::ApplyPeriod(
    Timestamp period_end, const std::vector<JaccardEstimate>& estimates) {
  const int64_t apply_t0 =
      apply_hist_ != nullptr ? telemetry::MonotonicNanos() : 0;
  // A period past the retention horizon would expire at once, so it
  // stores nothing.
  const Timestamp cutoff = EvictExpired(period_end);
  // The estimates' positions in tagset order, a tagset's repeats in
  // arrival order; empty when that is arrival order, as in every report
  // the Tracker forwards.
  std::vector<uint32_t> order;
  if (std::adjacent_find(estimates.begin(), estimates.end(),
                         [](const JaccardEstimate& a,
                            const JaccardEstimate& b) {
                           return !(a.tags < b.tags);
                         }) != estimates.end()) {
    CORRTRACK_CHECK_LE(estimates.size(), size_t{UINT32_MAX});
    order.resize(estimates.size());
    std::iota(order.begin(), order.end(), uint32_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&estimates](uint32_t a, uint32_t b) {
                       return estimates[a].tags < estimates[b].tags;
                     });
  }
  for (size_t i = 0; i < estimates.size(); ++i) {
    const JaccardEstimate& estimate = estimates[order.empty() ? i : order[i]];
    if (estimate.tags.size() < 2 || period_end < cutoff) continue;
    // System-wide invariant (and what a serve blob can hold): nothing
    // upstream reports sets beyond the subset-enumeration limit.
    CORRTRACK_CHECK_LE(estimate.tags.size(),
                       static_cast<size_t>(kMaxTagsPerDocument));
    // Every owner shard holds the same entry for a set, so its home shard
    // answers for all of them.
    const ShardSnapshot::Record* held =
        shards_[ShardOf(estimate.tags[0])].slot->FindSet(estimate.tags);
    if (held != nullptr && held->period_end > period_end) continue;
    const Change change{&estimate.tags,
                        {estimate.coefficient, estimate.intersection_count,
                         estimate.union_count, period_end},
                        estimate.coefficient < config_.min_coefficient};
    // Each shard owning one of the set's tags gets the change once.
    size_t owners[kMaxTagsPerDocument];
    size_t num_owners = 0;
    for (const TagId tag : estimate.tags) {
      const size_t s = ShardOf(tag);
      if (std::find(owners, owners + num_owners, s) == owners + num_owners) {
        owners[num_owners++] = s;
      }
    }
    for (size_t o = 0; o < num_owners; ++o) {
      std::vector<Change>& changes = shards_[owners[o]].changes;
      if (!changes.empty() && *changes.back().tags == estimate.tags) {
        changes.back() = change;  // The later of a repeated tagset wins.
      } else if (!change.erase || held != nullptr) {
        // A tombstone for an absent set can only cancel a value this call
        // staged, which would be the shard's last change.
        changes.push_back(change);
      }
    }
  }

  bool published = false;
  const uint64_t next_epoch = epoch_.load(std::memory_order_relaxed) + 1;
  for (size_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    if (shard.changes.empty() && !HoldsExpired(shard, cutoff)) continue;
    // The writer is the only thread that swaps the slot, so it may read
    // the published snapshot without the slot mutex.
    Publish(shard, BuildSnapshot(s, *shard.slot, cutoff, next_epoch));
    published = true;
  }
  if (published) {
    epoch_.store(next_epoch, std::memory_order_release);
    last_publish_wall_ns_.store(telemetry::MonotonicNanos(),
                                std::memory_order_relaxed);
  }
  Timestamp latest = latest_period_.load(std::memory_order_relaxed);
  if (period_end > latest) {
    latest_period_.store(period_end, std::memory_order_release);
  }
  if (apply_hist_ != nullptr) {
    apply_hist_->Record(
        telemetry::SpanMicros(apply_t0, telemetry::MonotonicNanos()));
    epoch_gauge_->Set(
        static_cast<double>(epoch_.load(std::memory_order_relaxed)));
    latest_period_gauge_->Set(static_cast<double>(
        latest_period_.load(std::memory_order_relaxed)));
  }
}

Timestamp CorrelationIndex::EvictExpired(Timestamp period_end) {
  constexpr Timestamp kNoCutoff = std::numeric_limits<Timestamp>::min();
  if (config_.retention_periods <= 0) return kNoCutoff;
  const auto it = std::lower_bound(recent_periods_.begin(),
                                   recent_periods_.end(), period_end);
  if (it == recent_periods_.end() || *it != period_end) {
    recent_periods_.insert(it, period_end);
  }
  const size_t keep = static_cast<size_t>(config_.retention_periods);
  if (recent_periods_.size() <= keep) return kNoCutoff;
  recent_periods_.erase(recent_periods_.begin(),
                        recent_periods_.end() - static_cast<ptrdiff_t>(keep));
  return recent_periods_.front();
}

ShardSnapshot::ShardSnapshot(size_t entries, size_t tags, size_t keys,
                             size_t postings)
    : block_(new std::byte[entries * (sizeof(Record) + sizeof(uint64_t)) +
                           (entries + 1 + tags + keys + keys + 1 + postings) *
                               sizeof(uint32_t)]) {
  // The 8-byte lanes first, so every lane is aligned.
  std::byte* at = block_.get();
  const auto carve = [&at]<class T>(T*& lane, size_t n) {
    lane = reinterpret_cast<T*>(at);
    at += n * sizeof(T);
  };
  carve(records_, entries);
  carve(prefixes_, entries);
  carve(tag_offsets_, entries + 1);
  carve(arena_, tags);
  carve(tag_keys_, keys);
  carve(postings_offsets_, keys + 1);
  carve(postings_, postings);
  tag_offsets_[0] = 0;
  postings_offsets_[0] = 0;
}

bool CorrelationIndex::HoldsExpired(Shard& shard, Timestamp cutoff) {
  if (shard.oldest_period >= cutoff) return false;
  const ShardSnapshot& snapshot = *shard.slot;
  shard.oldest_period = kNoPeriod;
  for (size_t entry = 0; entry < snapshot.size(); ++entry) {
    shard.oldest_period =
        std::min(shard.oldest_period, snapshot.records_[entry].period_end);
  }
  return shard.oldest_period < cutoff;
}

std::shared_ptr<const ShardSnapshot> CorrelationIndex::BuildSnapshot(
    size_t s, const ShardSnapshot& base, Timestamp cutoff, uint64_t epoch) {
  Shard& shard = shards_[s];
  const std::vector<Change>& changes = shard.changes;
  // Each change adds at most one entry, its tags, and one key and posting
  // per tag.
  size_t change_tags = 0;
  for (const Change& change : changes) change_tags += change.tags->size();
  CORRTRACK_CHECK_LE(base.NumTags() + change_tags, size_t{UINT32_MAX});
  std::shared_ptr<ShardSnapshot> snapshot(new ShardSnapshot(
      base.size() + changes.size(), base.NumTags() + change_tags,
      base.num_keys_ + change_tags, base.NumPostings() + change_tags));
  ShardSnapshot& next = *snapshot;
  next.epoch_ = epoch;

  // Entries: one merge of the base's sorted block with the sorted changes.
  // A changed tagset takes its new entry, or vanishes under a tombstone;
  // the runs between changes are copied in bulk, less the entries of
  // expired periods. `remap` takes each base entry to its next index.
  // Postings: a changed tagset holds the same tags before and after, so
  // the runs that gain or reorder entries are exactly those of the changed
  // tagsets' owned tags (`touched`); `pairs` are the new entries' postings.
  constexpr uint32_t kGone = UINT32_MAX;
  std::vector<uint32_t>& remap = scratch_.remap;
  std::vector<TagId>& touched = scratch_.touched;
  std::vector<std::pair<TagId, uint32_t>>& pairs = scratch_.pairs;
  remap.resize(base.size());
  touched.clear();
  pairs.clear();
  // Only when the base may hold an expired entry is every unchanged entry
  // checked, which also finds the oldest period it keeps exactly;
  // otherwise the base's bound stays a bound.
  const bool expiring = shard.oldest_period < cutoff;
  Timestamp oldest = expiring ? kNoPeriod : shard.oldest_period;
  size_t old = 0;          // The next base entry to copy or drop.
  uint32_t arena_end = 0;  // Tags written.
  // Copies the base's entries [old, end) as one run.
  const auto copy_run = [&](size_t end) {
    std::iota(remap.begin() + static_cast<ptrdiff_t>(old),
              remap.begin() + static_cast<ptrdiff_t>(end),
              static_cast<uint32_t>(next.size_));
    std::copy(base.records_ + old, base.records_ + end,
              next.records_ + next.size_);
    std::copy(base.prefixes_ + old, base.prefixes_ + end,
              next.prefixes_ + next.size_);
    const uint32_t tags_begin = base.tag_offsets_[old];
    const uint32_t tags_end = base.tag_offsets_[end];
    std::copy(base.arena_ + tags_begin, base.arena_ + tags_end,
              next.arena_ + arena_end);
    // The run's tags move by the difference in what precedes them (mod
    // 2^32, so a run moving down needs no signed type).
    const uint32_t shift = arena_end - tags_begin;
    std::transform(base.tag_offsets_ + old + 1, base.tag_offsets_ + end + 1,
                   next.tag_offsets_ + next.size_ + 1,
                   [shift](uint32_t offset) { return offset + shift; });
    arena_end += tags_end - tags_begin;
    next.size_ += end - old;
    old = end;
  };
  // Copies the base's unexpired entries [old, stop).
  const auto copy_old = [&](size_t stop) {
    if (!expiring) {
      if (old < stop) copy_run(stop);
      return;
    }
    while (old < stop) {
      if (base.records_[old].period_end < cutoff) {
        remap[old++] = kGone;
        continue;
      }
      size_t end = old;
      for (; end < stop && base.records_[end].period_end >= cutoff; ++end) {
        oldest = std::min(oldest, base.records_[end].period_end);
      }
      copy_run(end);
    }
  };
  for (const Change& change : changes) {
    const TagSet& key = *change.tags;
    copy_old(base.LowerBound(old, key));
    if (base.Holds(old, key)) remap[old++] = kGone;  // Replaced or erased.
    const auto e = static_cast<uint32_t>(next.size_);
    for (const TagId tag : key) {
      if (ShardOf(tag) != s) continue;
      touched.push_back(tag);
      if (!change.erase) pairs.emplace_back(tag, e);
    }
    if (change.erase) continue;
    next.records_[e] = change.record;
    next.prefixes_[e] = ShardSnapshot::Prefix(key);
    std::copy(key.begin(), key.end(), next.arena_ + arena_end);
    arena_end += static_cast<uint32_t>(key.size());
    next.tag_offsets_[e + 1] = arena_end;
    ++next.size_;
    oldest = std::min(oldest, change.record.period_end);
  }
  copy_old(base.size());
  shard.changes.clear();
  shard.oldest_period = oldest;

  // Within-tag posting order: strongest correlation first, fresher values
  // before staler on ties, tagset order (the entries' own) as the final
  // tie-break, so snapshots are deterministic functions of their entries.
  const auto rank = [&next](uint32_t a, uint32_t b) {
    const ShardSnapshot::Record& ra = next.records_[a];
    const ShardSnapshot::Record& rb = next.records_[b];
    if (ra.coefficient != rb.coefficient) {
      return ra.coefficient > rb.coefficient;
    }
    if (ra.period_end != rb.period_end) return ra.period_end > rb.period_end;
    return a < b;
  };
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  std::sort(pairs.begin(), pairs.end(),
            [&rank](const std::pair<TagId, uint32_t>& a,
                    const std::pair<TagId, uint32_t>& b) {
              if (a.first != b.first) return a.first < b.first;
              return rank(a.second, b.second);
            });

  const TagId* old_keys = base.tag_keys_;
  uint32_t* postings = next.postings_;
  std::vector<uint32_t>& survivors = scratch_.survivors;
  size_t n = 0;  // Postings written.
  size_t k = 0;  // Into old_keys.
  size_t t = 0;  // Into touched.
  size_t p = 0;  // Into pairs.
  while (k < base.num_keys_ || t < touched.size()) {
    const bool in_base = k < base.num_keys_ &&
                         (t == touched.size() || old_keys[k] <= touched[t]);
    const bool is_touched = t < touched.size() &&
                            (k == base.num_keys_ || touched[t] <= old_keys[k]);
    const TagId tag = in_base ? old_keys[k++] : touched[t];
    const size_t start = n;
    if (in_base) {
      for (size_t j = base.postings_offsets_[k - 1];
           j < base.postings_offsets_[k]; ++j) {
        const uint32_t e = remap[base.postings_[j]];
        postings[n] = e;  // Kept unless gone.
        n += e != kGone ? 1 : 0;
      }
    }
    if (is_touched) {
      // Surviving postings keep their relative order; merge the changed
      // entries' sorted run in.
      survivors.assign(postings + start, postings + n);
      n = start;
      size_t i = 0;
      for (; p < pairs.size() && pairs[p].first == tag; ++p) {
        const uint32_t e = pairs[p].second;
        while (i < survivors.size() && rank(survivors[i], e)) {
          postings[n++] = survivors[i++];
        }
        postings[n++] = e;
      }
      for (; i < survivors.size(); ++i) postings[n++] = survivors[i];
      ++t;
    }
    if (n == start) continue;  // Every entry left the tag.
    next.tag_keys_[next.num_keys_++] = tag;
    next.postings_offsets_[next.num_keys_] = static_cast<uint32_t>(n);
  }
  return snapshot;
}

namespace {

/// The serve blob's contents.
struct Blob {
  uint32_t num_shards = 0;
  uint64_t epoch = 0;
  Timestamp latest_period = 0;
  std::vector<Timestamp> recent_periods;
  // Sized to the index's shard count.
  std::vector<std::vector<ShardSnapshot::Entry>> shards;
};

/// The blob's layout. The shard a tag hashes into depends on the shard
/// count, so a blob from a differently configured index would scatter
/// entries wrongly: refused. Export writes each shard's entries in tagset
/// order (the snapshot's); blobs written before listed them in insertion
/// order, which restore accepts as well.
template <class Io, class B>
bool Fields(Io& io, B& b) {
  if (!io.U32(b.num_shards) || b.num_shards != b.shards.size() ||
      !io.U64(b.epoch) || !io.I64(b.latest_period) ||
      !storage::Seq(io, b.recent_periods, storage::kI64)) {
    return false;
  }
  for (auto& entries : b.shards) {
    const bool ok = storage::Seq(io, entries, [](auto& io, auto& e) {
      // ApplyPeriod never stores a set of fewer than two tags.
      return storage::Tags(io, e.tags) && io.F64(e.coefficient) &&
             io.U64(e.intersection_count) && io.U64(e.union_count) &&
             io.I64(e.period_end) && e.tags.size() >= 2;
    });
    if (!ok) return false;
  }
  return true;
}

}  // namespace

void CorrelationIndex::ExportState(std::string* out) const {
  Blob blob;
  blob.num_shards = static_cast<uint32_t>(num_shards_);
  blob.epoch = epoch_.load(std::memory_order_acquire);
  blob.latest_period = latest_period_.load(std::memory_order_acquire);
  blob.recent_periods = recent_periods_;
  blob.shards.resize(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    // The writer is the only thread that swaps the slot.
    const ShardSnapshot& snapshot = *shards_[s].slot;
    blob.shards[s].reserve(snapshot.size());
    for (size_t entry = 0; entry < snapshot.size(); ++entry) {
      blob.shards[s].push_back(snapshot.EntryAt(entry));
    }
  }
  storage::ByteWriter w;
  Fields(w, std::as_const(blob));
  *out = w.Take();
}

bool CorrelationIndex::RestoreState(std::string_view blob) {
  // Parse everything before touching the index, so a malformed blob
  // leaves it untouched.
  Blob parsed;
  parsed.shards.resize(num_shards_);
  storage::ByteReader r(blob);
  if (!Fields(r, parsed) || !r.empty()) return false;
  // A CRC-valid blob may still be forged. Retention reads the period list
  // as the ascending newest period-ends seen, none past the latest; a
  // snapshot must hold each tagset once, none of a period past the
  // latest, and only tagsets one of whose tags its shard owns.
  const std::vector<Timestamp>& periods = parsed.recent_periods;
  if (std::adjacent_find(periods.begin(), periods.end(),
                         std::greater_equal<Timestamp>()) != periods.end() ||
      (!periods.empty() && periods.back() > parsed.latest_period)) {
    return false;
  }
  for (size_t s = 0; s < num_shards_; ++s) {
    std::vector<ShardSnapshot::Entry>& entries = parsed.shards[s];
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.tags < b.tags; });
    for (size_t i = 0; i < entries.size(); ++i) {
      const TagSet& tags = entries[i].tags;
      const bool owned = std::any_of(tags.begin(), tags.end(), [&](TagId t) {
        return ShardOf(t) == s;
      });
      if (!owned || (i > 0 && entries[i - 1].tags == tags) ||
          entries[i].period_end > parsed.latest_period) {
        return false;
      }
    }
  }
  recent_periods_ = std::move(parsed.recent_periods);
  latest_period_.store(parsed.latest_period, std::memory_order_release);
  epoch_.store(parsed.epoch, std::memory_order_release);
  // Republish every shard so readers serve the restored state immediately:
  // every restored entry is a change against an empty base, which builds
  // the snapshot from scratch through the one publish path.
  const ShardSnapshot empty;
  for (size_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    shard.changes.clear();
    shard.oldest_period = kNoPeriod;
    for (const ShardSnapshot::Entry& entry : parsed.shards[s]) {
      shard.changes.push_back({&entry.tags,
                               {entry.coefficient, entry.intersection_count,
                                entry.union_count, entry.period_end},
                               false});
    }
    Publish(shard, BuildSnapshot(s, empty,
                                 std::numeric_limits<Timestamp>::min(),
                                 parsed.epoch));
  }
  return true;
}

CorrelationIndex::Reader::Reader(const CorrelationIndex* index)
    : index_(index), slots_(index->num_shards_) {}

const ShardSnapshot* CorrelationIndex::Reader::Acquire(size_t shard) const {
  const Shard& s = index_->shards_[shard];
  Slot& slot = slots_[shard];
  const uint64_t version = s.version.load(std::memory_order_acquire);
  if (version != slot.version || slot.snapshot == nullptr) {
    // Snapshot moved (or first touch): pay the slot copy once; every query
    // until the next publish reuses the cached pointer lock-free. The
    // mutex may hand back a snapshot even newer than `version` says — the
    // next poll then refreshes redundantly but harmlessly.
    std::lock_guard<std::mutex> lock(s.slot_mutex);
    slot.snapshot = s.slot;
    slot.version = version;
  }
  return slot.snapshot.get();
}

size_t CorrelationIndex::Reader::TopCorrelated(
    TagId tag, size_t k, std::vector<ScoredSet>* out) const {
  telemetry::LatencyHistogram* hist = index_->query_top_hist_;
  const int64_t t0 = hist != nullptr ? telemetry::MonotonicNanos() : 0;
  out->clear();
  const ShardSnapshot* snapshot = Acquire(index_->ShardOf(tag));
  const auto [postings, available] =
      snapshot->TopForTag(tag, index_->config_.top_k_capacity);
  const size_t n = std::min(k, available);
  for (size_t i = 0; i < n; ++i) {
    const ShardSnapshot::Record& record = snapshot->RecordAt(postings[i]);
    out->push_back({snapshot->TagsAt(postings[i]), record.coefficient,
                    record.period_end});
  }
  if (hist != nullptr) {
    const int64_t span = telemetry::MonotonicNanos() - t0;
    hist->Record(span > 0 ? static_cast<uint64_t>(span) : 0u);
  }
  return n;
}

std::optional<LookupResult> CorrelationIndex::Reader::Lookup(
    const TagSet& tags) const {
  if (tags.empty()) return std::nullopt;
  telemetry::LatencyHistogram* hist = index_->query_lookup_hist_;
  const int64_t t0 = hist != nullptr ? telemetry::MonotonicNanos() : 0;
  // Home shard: the shard of the set's smallest tag (tags are canonical,
  // so tags[0] is the minimum) — the one deterministic owner among the
  // shards the entry is replicated to.
  const ShardSnapshot* snapshot = Acquire(index_->ShardOf(tags[0]));
  const ShardSnapshot::Record* record = snapshot->FindSet(tags);
  std::optional<LookupResult> result;
  if (record != nullptr) {
    result.emplace();
    result->coefficient = record->coefficient;
    result->intersection_count = record->intersection_count;
    result->union_count = record->union_count;
    result->period_end = record->period_end;
    result->epoch = snapshot->epoch();
  }
  if (hist != nullptr) {
    const int64_t span = telemetry::MonotonicNanos() - t0;
    hist->Record(span > 0 ? static_cast<uint64_t>(span) : 0u);
  }
  return result;
}

size_t CorrelationIndex::Reader::Snapshot(double min_jaccard,
                                          std::vector<ScoredSet>* out) const {
  telemetry::LatencyHistogram* hist = index_->query_scan_hist_;
  const int64_t t0 = hist != nullptr ? telemetry::MonotonicNanos() : 0;
  out->clear();
  for (size_t s = 0; s < index_->num_shards_; ++s) {
    const ShardSnapshot* snapshot = Acquire(s);
    for (size_t entry = 0; entry < snapshot->size(); ++entry) {
      const ShardSnapshot::Record& record = snapshot->RecordAt(entry);
      if (record.coefficient < min_jaccard) continue;
      // Replicated entries are emitted by their home shard only.
      if (index_->ShardOf(snapshot->FirstTagAt(entry)) != s) continue;
      out->push_back(
          {snapshot->TagsAt(entry), record.coefficient, record.period_end});
    }
  }
  std::sort(out->begin(), out->end(),
            [](const ScoredSet& a, const ScoredSet& b) {
              if (a.coefficient != b.coefficient) {
                return a.coefficient > b.coefficient;
              }
              return a.tags < b.tags;
            });
  if (hist != nullptr) {
    const int64_t span = telemetry::MonotonicNanos() - t0;
    hist->Record(span > 0 ? static_cast<uint64_t>(span) : 0u);
  }
  return out->size();
}

size_t CorrelationIndex::Reader::TotalSets() const {
  size_t total = 0;
  for (size_t s = 0; s < index_->num_shards_; ++s) {
    const ShardSnapshot* snapshot = Acquire(s);
    for (size_t entry = 0; entry < snapshot->size(); ++entry) {
      if (index_->ShardOf(snapshot->FirstTagAt(entry)) == s) ++total;
    }
  }
  return total;
}

}  // namespace corrtrack::serve
