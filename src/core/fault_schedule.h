#ifndef CORRTRACK_CORE_FAULT_SCHEDULE_H_
#define CORRTRACK_CORE_FAULT_SCHEDULE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace corrtrack {

/// SplitMix64 finaliser — the repo's cheap seeded mix: fault rolls, retry
/// jitter and anything else that needs a replayable pseudo-random value
/// from a (seed, index) pair.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// One deterministic trigger: operation `at_op` (the decorator numbers
/// every call it intercepts) suffers `kind`, and — for storms such as
/// EAGAIN bursts — so do the following `repeat - 1` operations.
template <typename Kind>
struct FaultRule {
  uint64_t at_op = 0;
  Kind kind = Kind::kNone;
  uint64_t repeat = 1;
};

/// Seeded fault schedule shared by the fault-injecting decorators
/// (storage::FaultInjectingStorage, net::FaultInjectingSocketOps). `Kind`
/// is an enum whose value 0 is kNone and whose injectable kinds are
/// 1 .. kNumKinds-1.
///
/// `probability` rolls an independent SplitMix64 per operation index —
/// deterministic for a given seed regardless of thread interleaving (the
/// op index, not wall time, drives the roll), so a failing seed replays
/// exactly. A drawn kind that cannot apply to the operation at hand
/// (e.g. a short write on a read) injects nothing.
template <typename Kind, int kNumKinds>
struct FaultSchedule {
  uint64_t seed = 0;
  double probability = 0.0;
  std::vector<Kind> kinds = EveryKind();
  std::vector<FaultRule<Kind>> rules;

  bool enabled() const { return probability > 0.0 || !rules.empty(); }

  /// The fault for operation `op`, restricted to kinds for which
  /// `applies(kind)` holds; kNone when the op proceeds cleanly. Rules win
  /// over the probabilistic roll.
  template <typename AppliesFn>
  Kind Draw(uint64_t op, AppliesFn&& applies) const {
    for (const FaultRule<Kind>& rule : rules) {
      if (rule.kind != Kind::kNone && op >= rule.at_op &&
          op - rule.at_op < rule.repeat && applies(rule.kind)) {
        return rule.kind;
      }
    }
    if (probability > 0.0 && !kinds.empty()) {
      const uint64_t roll = SplitMix64(seed ^ op);
      const double unit =
          static_cast<double>(roll >> 11) * (1.0 / 9007199254740992.0);
      if (unit < probability) {
        const Kind kind = kinds[SplitMix64(roll) % kinds.size()];
        if (applies(kind)) return kind;
      }
    }
    return Kind::kNone;
  }

  static std::vector<Kind> EveryKind() {
    std::vector<Kind> all;
    for (int k = 1; k < kNumKinds; ++k) all.push_back(static_cast<Kind>(k));
    return all;
  }
};

/// Injection counters, by class.
template <typename Kind, int kNumKinds>
struct FaultStats {
  uint64_t total = 0;
  std::array<uint64_t, kNumKinds> by_kind{};

  uint64_t count(Kind kind) const {
    return by_kind[static_cast<size_t>(kind)];
  }
};

/// A decorator's running schedule: numbers every intercepted operation,
/// draws its fault and counts what was injected. Thread-safe — the op
/// counter is atomic and every draw depends only on the op index, so
/// concurrent callers share one schedule (which op gets which fault can
/// vary with interleaving; tests that need exact targeting use rules on a
/// single caller).
template <typename Kind, int kNumKinds>
class FaultInjector {
 public:
  using Schedule = FaultSchedule<Kind, kNumKinds>;

  explicit FaultInjector(Schedule schedule) : schedule_(std::move(schedule)) {}

  /// Numbers the next operation and returns its fault, restricted to kinds
  /// for which `applies(kind)` holds (kNone when it proceeds cleanly).
  template <typename AppliesFn>
  Kind Next(AppliesFn&& applies) {
    const uint64_t op = ops_.fetch_add(1, std::memory_order_relaxed);
    const Kind kind = schedule_.Draw(op, applies);
    if (kind != Kind::kNone) {
      total_.fetch_add(1, std::memory_order_relaxed);
      by_kind_[static_cast<size_t>(kind)].fetch_add(
          1, std::memory_order_relaxed);
    }
    return kind;
  }

  const Schedule& schedule() const { return schedule_; }
  uint64_t ops() const { return ops_.load(std::memory_order_relaxed); }

  FaultStats<Kind, kNumKinds> stats() const {
    FaultStats<Kind, kNumKinds> stats;
    stats.total = total_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < by_kind_.size(); ++i) {
      stats.by_kind[i] = by_kind_[i].load(std::memory_order_relaxed);
    }
    return stats;
  }

 private:
  const Schedule schedule_;
  std::atomic<uint64_t> ops_{0};
  std::atomic<uint64_t> total_{0};
  std::array<std::atomic<uint64_t>, kNumKinds> by_kind_{};
};

}  // namespace corrtrack

#endif  // CORRTRACK_CORE_FAULT_SCHEDULE_H_
