#include "serve/correlation_index.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/check.h"
#include "storage/serialize.h"
#include "telemetry/clock.h"

namespace corrtrack::serve {

namespace {

/// Within-tag posting order: strongest correlation first, fresher values
/// before staler on ties, canonical tagset order as the final tie-break so
/// snapshots are deterministic functions of their entries.
bool PostingLess(const ShardSnapshot::Entry& a, const ShardSnapshot::Entry& b) {
  if (a.coefficient != b.coefficient) return a.coefficient > b.coefficient;
  if (a.period_end != b.period_end) return a.period_end > b.period_end;
  return a.tags < b.tags;
}

}  // namespace

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
  // Retention first: its tombstones are staged before this call's values,
  // so a value refreshing an expiring entry wins. A period past the
  // retention horizon would expire at once, so it stores nothing.
  const Timestamp cutoff = EvictExpired(period_end);
  for (const JaccardEstimate& estimate : estimates) {
    if (estimate.tags.size() < 2 || period_end < cutoff) continue;
    // System-wide invariant (and what a serve blob can hold): nothing
    // upstream reports sets beyond the subset-enumeration limit.
    CORRTRACK_CHECK_LE(estimate.tags.size(),
                       static_cast<size_t>(kMaxTagsPerDocument));
    // Every owner shard holds the same entry for a set, so its home shard
    // answers for all of them.
    const ShardSnapshot::Entry* held =
        shards_[ShardOf(estimate.tags[0])].slot->FindSet(estimate.tags);
    if (held != nullptr && held->period_end > period_end) continue;
    const bool erase = estimate.coefficient < config_.min_coefficient;
    // Every shard owning one of the set's tags gets the change, once per
    // tag it owns: BuildSnapshot keeps one of the identical copies.
    for (const TagId tag : estimate.tags) {
      Shard& shard = shards_[ShardOf(tag)];
      // A tombstone for an absent set can only cancel a value this call
      // staged, and a shard with nothing staged holds none.
      if (erase && held == nullptr && shard.changes.empty()) continue;
      shard.changes.push_back(
          {{estimate.tags, estimate.coefficient, estimate.intersection_count,
            estimate.union_count, period_end},
           erase});
    }
  }

  bool published = false;
  const uint64_t next_epoch = epoch_.load(std::memory_order_relaxed) + 1;
  for (size_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    if (shard.changes.empty()) continue;
    // The writer is the only thread that swaps the slot, so it may read
    // the published snapshot without the slot mutex.
    Publish(shard, BuildSnapshot(s, *shard.slot, next_epoch));
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
  const Timestamp cutoff = recent_periods_.front();
  for (size_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    for (const ShardSnapshot::Entry& entry : shard.slot->entries()) {
      if (entry.period_end < cutoff) shard.changes.push_back({entry, true});
    }
  }
  return cutoff;
}

std::shared_ptr<const ShardSnapshot> CorrelationIndex::BuildSnapshot(
    size_t s, const ShardSnapshot& base, uint64_t epoch) {
  // Sorted by tagset, each tagset's last change kept: reversed, then
  // stably sorted, a tagset's changes run from the last staged on.
  std::vector<Change>& changes = shards_[s].changes;
  std::reverse(changes.begin(), changes.end());
  std::stable_sort(changes.begin(), changes.end(),
                   [](const Change& a, const Change& b) {
                     return a.entry.tags < b.entry.tags;
                   });
  changes.erase(std::unique(changes.begin(), changes.end(),
                            [](const Change& a, const Change& b) {
                              return a.entry.tags == b.entry.tags;
                            }),
                changes.end());

  auto snapshot = std::make_shared<ShardSnapshot>();
  snapshot->epoch_ = epoch;
  std::vector<ShardSnapshot::Entry>& entries = snapshot->entries_;
  const std::vector<ShardSnapshot::Entry>& old_entries = base.entries_;
  entries.reserve(old_entries.size() + changes.size());

  // Entries: one merge of the base's sorted entries with the sorted
  // changes. An unchanged entry is copied and remapped; a changed tagset
  // takes its new entry, or vanishes under a tombstone. Postings: a
  // changed tagset holds the same tags before and after, so the runs that
  // move are exactly those of the changed tagsets' owned tags (`touched`);
  // `pairs` are the new entries' postings.
  constexpr uint32_t kGone = UINT32_MAX;
  std::vector<uint32_t> remap(old_entries.size(), kGone);
  std::vector<TagId> touched;
  std::vector<std::pair<TagId, uint32_t>> pairs;
  size_t old = 0;
  auto keep_old = [&] {
    remap[old] = static_cast<uint32_t>(entries.size());
    entries.push_back(old_entries[old++]);
  };
  for (Change& change : changes) {
    const TagSet& key = change.entry.tags;
    while (old < old_entries.size() && old_entries[old].tags < key) keep_old();
    if (old < old_entries.size() && old_entries[old].tags == key) ++old;
    const auto e = static_cast<uint32_t>(entries.size());
    for (const TagId tag : key) {
      if (ShardOf(tag) != s) continue;
      touched.push_back(tag);
      if (!change.erase) pairs.emplace_back(tag, e);
    }
    if (!change.erase) entries.push_back(std::move(change.entry));
  }
  while (old < old_entries.size()) keep_old();
  changes.clear();
  snapshot->prefixes_.reserve(entries.size());
  for (const ShardSnapshot::Entry& entry : entries) {
    snapshot->prefixes_.push_back(ShardSnapshot::Prefix(entry.tags));
  }

  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  const auto rank = [&entries](uint32_t a, uint32_t b) {
    return PostingLess(entries[a], entries[b]);
  };
  std::sort(pairs.begin(), pairs.end(),
            [&rank](const std::pair<TagId, uint32_t>& a,
                    const std::pair<TagId, uint32_t>& b) {
              if (a.first != b.first) return a.first < b.first;
              return rank(a.second, b.second);
            });

  std::vector<uint32_t>& postings = snapshot->postings_;
  postings.reserve(base.postings_.size() + pairs.size());
  snapshot->postings_offsets_.push_back(0);
  const std::vector<TagId>& old_keys = base.tag_keys_;
  size_t k = 0;  // Into old_keys.
  size_t t = 0;  // Into touched.
  size_t p = 0;  // Into pairs.
  while (k < old_keys.size() || t < touched.size()) {
    const bool in_base = k < old_keys.size() &&
                         (t == touched.size() || old_keys[k] <= touched[t]);
    const bool is_touched = t < touched.size() &&
                            (k == old_keys.size() || touched[t] <= old_keys[k]);
    const TagId tag = in_base ? old_keys[k++] : touched[t];
    const size_t start = postings.size();
    if (in_base) {
      for (size_t j = base.postings_offsets_[k - 1];
           j < base.postings_offsets_[k]; ++j) {
        const uint32_t e = remap[base.postings_[j]];
        if (e != kGone) postings.push_back(e);
      }
    }
    if (is_touched) {
      // Surviving postings keep their relative order; merge the changed
      // entries' sorted run in.
      const size_t mid = postings.size();
      for (; p < pairs.size() && pairs[p].first == tag; ++p) {
        postings.push_back(pairs[p].second);
      }
      std::inplace_merge(postings.begin() + static_cast<ptrdiff_t>(start),
                         postings.begin() + static_cast<ptrdiff_t>(mid),
                         postings.end(), rank);
      ++t;
    }
    if (postings.size() == start) continue;  // Every entry left the tag.
    snapshot->tag_keys_.push_back(tag);
    snapshot->postings_offsets_.push_back(postings.size());
  }
  return snapshot;
}

namespace {

/// The serve blob's contents: on export each shard's entries are a view of
/// its published snapshot, on restore a vector parsed ahead of any change.
template <class Entries>
struct Blob {
  uint32_t num_shards = 0;
  uint64_t epoch = 0;
  Timestamp latest_period = 0;
  std::vector<Timestamp> recent_periods;
  std::vector<Entries> shards;  // Sized to the index's shard count.
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
  Blob<std::span<const ShardSnapshot::Entry>> blob;
  blob.num_shards = static_cast<uint32_t>(num_shards_);
  blob.epoch = epoch_.load(std::memory_order_acquire);
  blob.latest_period = latest_period_.load(std::memory_order_acquire);
  blob.recent_periods = recent_periods_;
  for (size_t s = 0; s < num_shards_; ++s) {
    // The writer is the only thread that swaps the slot.
    blob.shards.emplace_back(shards_[s].slot->entries());
  }
  storage::ByteWriter w;
  Fields(w, std::as_const(blob));
  *out = w.Take();
}

bool CorrelationIndex::RestoreState(std::string_view blob) {
  // Parse everything before touching the index, so a malformed blob
  // leaves it untouched.
  Blob<std::vector<ShardSnapshot::Entry>> parsed;
  parsed.shards.resize(num_shards_);
  storage::ByteReader r(blob);
  if (!Fields(r, parsed) || !r.empty()) return false;
  // A CRC-valid blob may still be forged: a snapshot must hold each
  // tagset once, and only tagsets one of whose tags its shard owns.
  for (size_t s = 0; s < num_shards_; ++s) {
    std::vector<ShardSnapshot::Entry>& entries = parsed.shards[s];
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.tags < b.tags; });
    for (size_t i = 0; i < entries.size(); ++i) {
      const TagSet& tags = entries[i].tags;
      const bool owned = std::any_of(tags.begin(), tags.end(), [&](TagId t) {
        return ShardOf(t) == s;
      });
      if (!owned || (i > 0 && entries[i - 1].tags == tags)) return false;
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
    for (ShardSnapshot::Entry& entry : parsed.shards[s]) {
      shard.changes.push_back({std::move(entry)});
    }
    Publish(shard, BuildSnapshot(s, empty, parsed.epoch));
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
    const ShardSnapshot::Entry& entry = snapshot->entries()[postings[i]];
    out->push_back({entry.tags, entry.coefficient, entry.period_end});
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
  const ShardSnapshot::Entry* entry = snapshot->FindSet(tags);
  std::optional<LookupResult> result;
  if (entry != nullptr) {
    result.emplace();
    result->coefficient = entry->coefficient;
    result->intersection_count = entry->intersection_count;
    result->union_count = entry->union_count;
    result->period_end = entry->period_end;
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
    for (const ShardSnapshot::Entry& entry : snapshot->entries()) {
      if (entry.coefficient < min_jaccard) continue;
      // Replicated entries are emitted by their home shard only.
      if (index_->ShardOf(entry.tags[0]) != s) continue;
      out->push_back({entry.tags, entry.coefficient, entry.period_end});
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
    for (const ShardSnapshot::Entry& entry : snapshot->entries()) {
      if (index_->ShardOf(entry.tags[0]) == s) ++total;
    }
  }
  return total;
}

}  // namespace corrtrack::serve
