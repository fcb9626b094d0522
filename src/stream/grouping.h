#ifndef CORRTRACK_STREAM_GROUPING_H_
#define CORRTRACK_STREAM_GROUPING_H_

#include <cstddef>
#include <functional>
#include <utility>

namespace corrtrack::stream {

/// Storm's stream-grouping rules (§6.1): how tuples emitted by a producer
/// component are distributed over the consumer component's instances.
enum class GroupingKind {
  /// Uniform spread over instances. Storm randomises; this engine uses a
  /// per-edge round-robin, which is the same uniform distribution but
  /// deterministic (experiments must be exactly repeatable).
  kShuffle,
  /// Broadcast: every instance receives every tuple.
  kAll,
  /// Content-based: instance = hash(fields) % parallelism. Used to pin each
  /// distinct tagset to one Partitioner instance (§6.2).
  kFields,
  /// Producer names the target instance at emit time (Disseminator ->
  /// Calculator notifications, §6.2).
  kDirect,
  /// All tuples to instance 0 (Storm's global grouping).
  kGlobal,
};

/// A subscription edge: consumer subscribes to producer with a grouping.
/// `field_hash` is required for kFields and ignored otherwise. An optional
/// `filter` makes the subscription per-stream, as Storm's declared streams
/// are: tuples it rejects are never copied onto the edge (a producer with
/// several consumers interested in disjoint message types — e.g. the
/// Calculator's reports vs its counter handoffs — pays no fan-out for the
/// uninterested ones).
template <typename Message>
struct Grouping {
  GroupingKind kind = GroupingKind::kShuffle;
  std::function<size_t(const Message&)> field_hash;
  std::function<bool(const Message&)> filter;

  static Grouping Shuffle() { return {GroupingKind::kShuffle, nullptr}; }
  static Grouping All() { return {GroupingKind::kAll, nullptr}; }
  static Grouping Global() { return {GroupingKind::kGlobal, nullptr}; }
  static Grouping Direct() { return {GroupingKind::kDirect, nullptr}; }
  static Grouping Fields(std::function<size_t(const Message&)> hash) {
    return {GroupingKind::kFields, std::move(hash)};
  }
  /// Broadcast restricted to tuples `accept` admits.
  static Grouping AllWhere(std::function<bool(const Message&)> accept) {
    return {GroupingKind::kAll, nullptr, std::move(accept)};
  }
  /// Global grouping restricted to tuples `accept` admits.
  static Grouping GlobalWhere(std::function<bool(const Message&)> accept) {
    return {GroupingKind::kGlobal, nullptr, std::move(accept)};
  }
};

}  // namespace corrtrack::stream

#endif  // CORRTRACK_STREAM_GROUPING_H_
