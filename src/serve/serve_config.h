#ifndef CORRTRACK_SERVE_SERVE_CONFIG_H_
#define CORRTRACK_SERVE_SERVE_CONFIG_H_

#include <cstddef>

namespace corrtrack::serve {

/// Knobs of the correlation query service (CorrelationIndex).
///
/// The serving layer keeps *bounded* per-tag state in the spirit of
/// SpaceSaving-style sketch recovery (Cormode & Dark) and applies a
/// screening threshold so only significant correlations occupy memory
/// (Hero & Rajaratnam, *Large Scale Correlation Screening*): a tag's
/// answer list never exceeds `top_k_capacity` entries, coefficients
/// below `min_coefficient` are dropped at ingest, and `retention_periods`
/// bounds how long an entry is stored.
struct ServeConfig {
  /// Number of index shards; rounded up to the next power of two. A tag's
  /// shard is HashTagSpan(tag) & (shards - 1) — the same hashing
  /// discipline as FlatCounterTable.
  int num_shards = 16;

  /// Bound on the per-tag top-k answer list (SpaceSaving-style bounded
  /// answers): TopCorrelated returns at most the `top_k_capacity`
  /// highest-coefficient sets containing a tag. The stored per-tag run is
  /// complete — bounded by the entry store, which screening and retention
  /// bound — so an evicted top entry is replaced by the next one exactly.
  size_t top_k_capacity = 64;

  /// Screening threshold on the values the Tracker settles on: one below
  /// it is not stored and removes the value it supersedes. 0 keeps all.
  double min_coefficient = 0.0;

  /// How many distinct reporting periods an entry stays servable without a
  /// fresh report. Entries whose last report is older than the
  /// `retention_periods` newest period-ends are evicted at the next
  /// publish. <= 0 disables retention (entries live forever).
  int retention_periods = 8;
};

}  // namespace corrtrack::serve

#endif  // CORRTRACK_SERVE_SERVE_CONFIG_H_
