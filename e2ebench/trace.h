// Traced-run plumbing of the end-to-end benchmark. Everything here sits
// outside the program: bolt factories are wrapped after
// ops::BuildCorrelationTopology returns, the serving index is reached
// through a PeriodSink the benchmark owns, and the Disseminator/Merger
// counts come through the public ops::MetricsSink hooks.
#ifndef CORRTRACK_E2EBENCH_TRACE_H_
#define CORRTRACK_E2EBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "ops/messages.h"
#include "ops/metrics_sink.h"
#include "ops/period_sink.h"
#include "serve/correlation_index.h"
#include "serve/index_sink.h"
#include "stream/topology.h"
#include "telemetry/clock.h"

namespace e2ebench {

using corrtrack::Timestamp;
using Message = corrtrack::ops::Message;

enum class Layer : uint8_t {
  kParser,
  kPartitioner,
  kMerger,
  kDisseminator,
  kCalculator,
  kTracker,
  kServeApply,
  kSpout,
  kCount,
};
inline constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

inline const char* LayerName(Layer layer) {
  static constexpr std::array<const char*, kNumLayers> kNames = {
      "parser",  "partitioner", "merger",      "disseminator", "calculator",
      "tracker", "serve_apply", "spout"};
  return kNames[static_cast<size_t>(layer)];
}

/// Span kinds: a bolt's Execute, a bolt's OnTick, one ApplyPeriod, one
/// Spout::Next.
enum class SpanKind : uint8_t { kExecute, kTick, kApply, kNext };

/// In-memory span recorder. Each thread keeps its own stack and totals, so
/// the hot path takes no lock; the first `max_kept_spans` spans (across
/// threads) are also kept verbatim — layer, kind, start, end, parent — and
/// written out by WriteSpans. Totals are read after every recording thread
/// has been joined.
class Tracer {
 public:
  struct LayerTotals {
    uint64_t calls = 0;
    int64_t self_ns = 0;
    std::vector<int64_t> tick_ns;  // OnTick durations (tick spans only).
  };

  explicit Tracer(size_t max_kept_spans)
      : generation_(NextGeneration()), max_kept_(max_kept_spans) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Begin(Layer layer, SpanKind kind) {
    ThreadState* t = Local();
    t->stack.Open(corrtrack::telemetry::MonotonicNanos());
    t->open.push_back({t->next_id++, layer, kind});
  }

  void End() {
    ThreadState* t = Local();
    const SpanStack::Closed closed =
        t->stack.Close(corrtrack::telemetry::MonotonicNanos());
    const Open open = t->open.back();
    t->open.pop_back();
    LayerTotals& totals = t->totals[static_cast<size_t>(open.layer)];
    ++totals.calls;
    totals.self_ns += closed.self_ns;
    if (open.kind == SpanKind::kTick) {
      totals.tick_ns.push_back(closed.end_ns - closed.start_ns);
    }
    if (kept_.load(std::memory_order_relaxed) < max_kept_) {
      kept_.fetch_add(1, std::memory_order_relaxed);
      t->spans.push_back({open.id, t->open.empty() ? 0 : t->open.back().id,
                          closed.start_ns, closed.end_ns, open.layer,
                          open.kind});
    }
  }

  std::array<LayerTotals, kNumLayers> Totals() const {
    std::array<LayerTotals, kNumLayers> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& t : threads_) {
      for (size_t l = 0; l < kNumLayers; ++l) {
        out[l].calls += t->totals[l].calls;
        out[l].self_ns += t->totals[l].self_ns;
        out[l].tick_ns.insert(out[l].tick_ns.end(),
                              t->totals[l].tick_ns.begin(),
                              t->totals[l].tick_ns.end());
      }
    }
    return out;
  }

  /// Appends the kept spans as CSV rows (span_id, parent_id, thread, layer,
  /// kind, start_ns, end_ns) tagged with `run`. Ids are unique per thread;
  /// a parent id of 0 marks an outermost span.
  bool WriteSpans(const std::string& path, const std::string& run) const {
    std::FILE* f = std::fopen(path.c_str(), "a");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < threads_.size(); ++i) {
      for (const Span& s : threads_[i]->spans) {
        std::fprintf(f, "%s,%llu,%llu,%zu,%s,%d,%lld,%lld\n", run.c_str(),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent), i,
                     LayerName(s.layer), static_cast<int>(s.kind),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    uint64_t id;
    Layer layer;
    SpanKind kind;
  };
  struct Span {
    uint64_t id;
    uint64_t parent;
    int64_t start_ns;
    int64_t end_ns;
    Layer layer;
    SpanKind kind;
  };
  struct ThreadState {
    SpanStack stack;
    std::vector<Open> open;
    std::array<LayerTotals, kNumLayers> totals;
    std::vector<Span> spans;
    uint64_t next_id = 1;
  };

  static uint64_t NextGeneration() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1);
  }

  ThreadState* Local() {
    // One cache slot per thread: a thread records into at most one tracer
    // at a time, and a new tracer never reuses an old one's generation.
    thread_local uint64_t cached_generation = 0;
    thread_local ThreadState* cached = nullptr;
    if (cached_generation != generation_) {
      auto state = std::make_unique<ThreadState>();
      cached = state.get();
      cached_generation = generation_;
      std::lock_guard<std::mutex> lock(mu_);
      threads_.push_back(std::move(state));
    }
    return cached;
  }

  const uint64_t generation_;
  const size_t max_kept_;
  std::atomic<size_t> kept_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;  // Guarded by mu_.
};

/// RAII span on `tracer` (no-op when tracer is null).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer, SpanKind kind) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(layer, kind);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// Timing decorator around one bolt instance: Execute and OnTick become
/// spans of the component's layer.
class TimedBolt final : public corrtrack::stream::Bolt<Message> {
 public:
  TimedBolt(std::unique_ptr<corrtrack::stream::Bolt<Message>> inner,
            Layer layer, Tracer* tracer)
      : inner_(std::move(inner)), layer_(layer), tracer_(tracer) {}

  void Prepare(corrtrack::stream::TaskAddress self, int parallelism) override {
    inner_->Prepare(self, parallelism);
  }
  void AttachControl(corrtrack::stream::TopologyControl* control) override {
    inner_->AttachControl(control);
  }
  void Execute(const corrtrack::stream::Envelope<Message>& in,
               corrtrack::stream::Emitter<Message>& out) override {
    ScopedSpan span(tracer_, layer_, SpanKind::kExecute);
    inner_->Execute(in, out);
  }
  void OnTick(Timestamp tick_time,
              corrtrack::stream::Emitter<Message>& out) override {
    ScopedSpan span(tracer_, layer_, SpanKind::kTick);
    inner_->OnTick(tick_time, out);
  }

  corrtrack::stream::Bolt<Message>* inner() const { return inner_.get(); }

 private:
  std::unique_ptr<corrtrack::stream::Bolt<Message>> inner_;
  Layer layer_;
  Tracer* tracer_;
};

/// The operator a runtime built for (component, instance), seen through a
/// TimedBolt when the topology was instrumented.
template <typename T>
T* BoltAs(corrtrack::stream::Bolt<Message>* bolt) {
  if (auto* timed = dynamic_cast<TimedBolt*>(bolt)) bolt = timed->inner();
  return static_cast<T*>(bolt);
}

inline Layer LayerOfComponent(const std::string& name) {
  static const std::map<std::string, Layer> kLayers = {
      {"parser", Layer::kParser},         {"partitioner", Layer::kPartitioner},
      {"merger", Layer::kMerger},         {"disseminator", Layer::kDisseminator},
      {"calculator", Layer::kCalculator}, {"tracker", Layer::kTracker}};
  return kLayers.at(name);
}

/// Wraps every bolt factory of a built topology in a TimedBolt decorator.
inline void InstrumentTopology(corrtrack::stream::Topology<Message>* topology,
                               Tracer* tracer) {
  for (auto& component : topology->mutable_components()) {
    if (component.is_spout) continue;
    auto factory = std::move(component.bolt_factory);
    const Layer layer = LayerOfComponent(component.name);
    component.bolt_factory =
        [factory = std::move(factory), layer,
         tracer](int instance) -> std::unique_ptr<corrtrack::stream::Bolt<Message>> {
      return std::make_unique<TimedBolt>(factory(instance), layer, tracer);
    };
  }
}

/// The PeriodSink the benchmark hands to BuildCorrelationTopology for the
/// Tracker. It forwards each report to the program's serve::IndexSink when
/// there is an index, records the first wall time each period end arrived,
/// and in the traced run times every forwarded report as a serve_apply span
/// nested in the Tracker's Execute span.
///
/// Called only from the Tracker task; read after the runtime has joined.
class BenchPeriodSink : public corrtrack::ops::PeriodSink {
 public:
  BenchPeriodSink(corrtrack::serve::CorrelationIndex* index, Tracer* tracer)
      : tracer_(tracer) {
    if (index != nullptr) {
      index_sink_ = std::make_unique<corrtrack::serve::IndexSink>(index);
    }
  }

  void OnPeriodResults(
      Timestamp period_end,
      const std::vector<corrtrack::JaccardEstimate>& estimates) override {
    if (first_arrival_.find(period_end) == first_arrival_.end()) {
      first_arrival_.emplace(period_end,
                             corrtrack::telemetry::MonotonicNanos());
    }
    if (index_sink_ == nullptr) return;
    if (tracer_ == nullptr) {
      index_sink_->OnPeriodResults(period_end, estimates);
      return;
    }
    const int64_t t0 = corrtrack::telemetry::MonotonicNanos();
    {
      ScopedSpan span(tracer_, Layer::kServeApply, SpanKind::kApply);
      index_sink_->OnPeriodResults(period_end, estimates);
    }
    apply_ns_.push_back(corrtrack::telemetry::MonotonicNanos() - t0);
    apply_estimates_ += estimates.size();
  }

  const std::map<Timestamp, int64_t>& first_arrival() const {
    return first_arrival_;
  }
  const std::vector<int64_t>& apply_ns() const { return apply_ns_; }
  uint64_t apply_estimates() const { return apply_estimates_; }

 private:
  std::unique_ptr<corrtrack::serve::IndexSink> index_sink_;
  Tracer* tracer_;
  std::map<Timestamp, int64_t> first_arrival_;
  std::vector<int64_t> apply_ns_;
  uint64_t apply_estimates_ = 0;
};

/// Disseminator / Merger event counts through the public MetricsSink hooks
/// (the paper's avgCom and maxLoad, single additions, installs) plus the
/// virtual time of the first install, which the coverage rule needs.
/// Hooks fire from the Disseminator and Merger tasks concurrently.
class CountingMetrics : public corrtrack::ops::MetricsSink {
 public:
  static constexpr int kMaxCalculators = 64;

  void OnRouted(int notified, Timestamp time) override {
    (void)notified;
    (void)time;
    routed_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnNotification(int calculator) override {
    if (calculator >= 0 && calculator < kMaxCalculators) {
      per_calculator_[static_cast<size_t>(calculator)].fetch_add(
          1, std::memory_order_relaxed);
    }
  }
  void OnPartitionsInstalled(corrtrack::Epoch epoch, double avg_com,
                             double max_load, Timestamp time) override {
    (void)epoch;
    (void)avg_com;
    (void)max_load;
    installs_.fetch_add(1, std::memory_order_relaxed);
    Timestamp expected = -1;
    first_install_.compare_exchange_strong(expected, time);
  }
  void OnSingleAddition(Timestamp time) override {
    (void)time;
    single_additions_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t routed() const { return routed_.load(); }
  uint64_t installs() const { return installs_.load(); }
  uint64_t single_additions() const { return single_additions_.load(); }
  /// -1 until partitions were installed.
  Timestamp first_install() const { return first_install_.load(); }
  uint64_t notifications() const {
    uint64_t total = 0;
    for (const auto& c : per_calculator_) total += c.load();
    return total;
  }
  uint64_t max_calculator_notifications() const {
    uint64_t best = 0;
    for (const auto& c : per_calculator_) best = std::max(best, c.load());
    return best;
  }

 private:
  std::atomic<uint64_t> routed_{0};
  std::atomic<uint64_t> installs_{0};
  std::atomic<uint64_t> single_additions_{0};
  std::atomic<Timestamp> first_install_{-1};
  std::array<std::atomic<uint64_t>, kMaxCalculators> per_calculator_{};
};

}  // namespace e2ebench

#endif  // CORRTRACK_E2EBENCH_TRACE_H_
