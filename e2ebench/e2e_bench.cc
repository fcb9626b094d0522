// End-to-end benchmark of the deployment path `query_server --listen`
// uses: pre-generated tweets -> Fig. 2 topology on the pool runtime ->
// serve::CorrelationIndex -> net::Server <- loopback open-loop clients.
//
//   e2e_bench --workload replay_track|live_serve|query_heavy --seed N
//             --seconds S --trace 0|1 [--pool-workers N] [--net-threads N]
//             [--reader-threads N] [--p99-limit-us X] [--span-out PATH]
//
// Prints a human-readable report and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. See README.md for
// the workloads and what each metric should move.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <malloc.h>
#include <sched.h>

#include "bench_stats.h"
#include "core/tagset.h"
#include "gen/tweet_generator.h"
#include "gen/zipf.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/server.h"
#include "ops/centralized.h"
#include "ops/messages.h"
#include "ops/parser.h"
#include "ops/pipeline_config.h"
#include "ops/topology_builder.h"
#include "ops/tracker_op.h"
#include "serve/correlation_index.h"
#include "stream/runtime.h"
#include "stream/topology.h"
#include "telemetry/clock.h"
#include "telemetry/pipeline_telemetry.h"
#include "trace.h"

namespace e2ebench {
namespace {

using namespace corrtrack;
using telemetry::MonotonicNanos;

// ---------------------------------------------------------------------------
// Workload parameters. Rates are fixed here, not derived from the machine,
// so the parent and the child of a change see the same offered load.
// ---------------------------------------------------------------------------

/// Virtual tweet rate of the generated stream (raw tweets per second; 10 %
/// carry tags). replay_track keeps the generator's calibrated 1300 (15.6k
/// tagged documents per 2-minute period). live_serve's is lower, so that a
/// period holds ~1.2k documents and a 20 s live run closes ~500 periods,
/// enough for a steady freshness (see README.md); query_heavy's is lower
/// still, so its trickle closes ~25 periods per second (~300 at the
/// reference rung) while each publish stays small.
constexpr double kReplayTweetsPerSecond = 1300.0;
constexpr double kLiveTweetsPerSecond = 100.0;
constexpr double kQueryHeavyTweetsPerSecond = 50.0;
constexpr int kTopics = 60;

/// replay_track: documents per replay (each replay is one fresh topology).
constexpr uint64_t kReplayDocs = 400'000;
/// Share of --seconds spent replaying; the rest serves the newest replayed
/// period over the wire.
constexpr double kReplayShare = 0.7;
constexpr int kMinReplays = 3;

/// Fresh set-ups per run whose median is setup_s (query_heavy's include the
/// warm-up ingest, so it takes fewer).
constexpr int kSetupSamples = 101;
constexpr int kWarmSetupSamples = 10;

/// live_serve: paced ingest and the moderate query stream on top.
constexpr double kLiveDocsPerSecond = 30'000.0;
constexpr double kLiveQueriesPerSecond = 5'000.0;

/// query_heavy: warm-up prefix, trickle ingest and the query ladder. Each
/// rung runs for its share of --seconds. The server sustains from about
/// 0.8M q/s (when the host leaves this guest little CPU) to 3M q/s on a
/// 4-core machine, so 400k passes in every run and the last rung, well past
/// that, misses the limit in every run: query_max_qps sits at 400k. A rung
/// within that range passes in some runs and not in others. The last rung
/// is short so that its backlog drains within the generator's drain
/// timeout.
constexpr uint64_t kWarmDocs = 30'000;
constexpr double kTrickleDocsPerSecond = 15'000.0;
constexpr int kQueryConnections = 2;
struct Rung {
  double rate;
  double share;
};
constexpr std::array<Rung, 4> kLadder = {{{5'000.0, 0.60},
                                          {200'000.0, 0.15},
                                          {400'000.0, 0.23},
                                          {6'400'000.0, 0.02}}};
/// Query latency and freshness are taken at this rung (5k q/s): the rungs
/// above it load the machine towards saturation, where every timing follows
/// how much CPU the host leaves this guest, and they decide only
/// query_max_qps.
constexpr size_t kReferenceRung = 0;

/// Query mix (fractions of top / lookup; the rest are scans).
constexpr double kTopShare = 0.70;
constexpr double kLookupShare = 0.28;
constexpr size_t kMixSize = 1 << 16;
constexpr double kQueryZipfSkew = 1.0;
constexpr size_t kQueryTagPool = 4096;

/// Correctness floors against the centralized reference (§8.2.3).
constexpr double kMinCoverage = 0.60;
constexpr double kMaxJaccardError = 0.05;

/// Wire answers compared bit-for-bit against direct Reader calls after
/// ingest stops.
constexpr size_t kWireCheckQueries = 400;

constexpr size_t kMaxKeptSpans = 200'000;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int pool_workers = 2;
  int net_threads = 1;
  int reader_threads = 1;
  double p99_limit_us = 20000.0;
  std::string span_out;
};

ops::PipelineConfig DeployedPipeline(const Options& options,
                                     stream::RuntimeKind runtime) {
  // examples/query_server.cpp's settings.
  ops::PipelineConfig pipeline;
  pipeline.algorithm = AlgorithmKind::kDS;
  pipeline.num_calculators = 5;
  pipeline.num_partitioners = 3;
  pipeline.window_span = 2 * kMillisPerMinute;
  pipeline.report_period = 2 * kMillisPerMinute;
  pipeline.bootstrap_time = 2 * kMillisPerMinute;
  pipeline.runtime = runtime;
  pipeline.num_threads = options.pool_workers;
  pipeline.queue_capacity = 256;
  return pipeline;
}

// ---------------------------------------------------------------------------
// Inputs, generated before anything is timed.
// ---------------------------------------------------------------------------

struct Inputs {
  std::vector<ops::RawTweet> tweets;
  std::vector<QuerySpec> mix;
  uint64_t untagged = 0;  // Rendered tweets the parser would find no tag in.
};

Inputs MakeInputs(const Options& options, uint64_t num_docs) {
  Inputs in;
  gen::GeneratorConfig config;
  config.seed = options.seed;
  config.topics.num_topics = kTopics;
  config.tps = options.workload == "query_heavy"   ? kQueryHeavyTweetsPerSecond
                : options.workload == "replay_track" ? kReplayTweetsPerSecond
                                                     : kLiveTweetsPerSecond;
  gen::TweetGenerator generator(config);
  in.tweets.reserve(num_docs);
  // Parser-space tag ids: one Parser interns tags in arrival order, so an
  // offline parser over the same order assigns the ids the pipeline will.
  ops::ParserBolt parser;
  std::vector<uint64_t> tag_count;
  std::vector<TagSet> multi_tag_sets;
  for (uint64_t i = 0; i < num_docs; ++i) {
    const Document doc = generator.Next();
    ops::RawTweet tweet;
    tweet.id = doc.id;
    tweet.time = doc.time;
    tweet.text = gen::TweetGenerator::RenderText(doc);
    const std::vector<TagId> tags = parser.ExtractTags(tweet.text);
    if (tags.empty()) ++in.untagged;
    for (const TagId t : tags) {
      if (t >= tag_count.size()) tag_count.resize(t + 1, 0);
      ++tag_count[t];
    }
    if (tags.size() >= 2 && (i & 7) == 0) multi_tag_sets.emplace_back(tags);
    in.tweets.push_back(std::move(tweet));
  }
  std::vector<TagId> by_frequency(tag_count.size());
  for (size_t t = 0; t < by_frequency.size(); ++t) {
    by_frequency[t] = static_cast<TagId>(t);
  }
  std::stable_sort(by_frequency.begin(), by_frequency.end(),
                   [&](TagId a, TagId b) { return tag_count[a] > tag_count[b]; });
  const size_t pool = std::min(kQueryTagPool, by_frequency.size());
  const gen::ZipfDistribution zipf(pool, kQueryZipfSkew);
  std::mt19937_64 rng(options.seed ^ 0x9e3779b97f4a7c15ULL);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  in.mix.reserve(kMixSize);
  for (size_t i = 0; i < kMixSize; ++i) {
    QuerySpec q;
    const double u = uniform(rng);
    if (u < kTopShare || multi_tag_sets.empty()) {
      q.kind = QuerySpec::Kind::kTop;
      q.tag = by_frequency[zipf.Sample(rng) - 1];
      q.k = 10;
    } else if (u < kTopShare + kLookupShare) {
      q.kind = QuerySpec::Kind::kLookup;
      q.tags = multi_tag_sets[rng() % multi_tag_sets.size()];
    } else {
      q.kind = QuerySpec::Kind::kScan;
      q.min_jaccard = 0.5;
      q.limit = 20;
    }
    in.mix.push_back(std::move(q));
  }
  return in;
}

/// Emits a slice of the pre-rendered tweets: the first `paced_from` at full
/// speed, the rest on an open-loop schedule of `rate` documents per second
/// that starts when the full-speed prefix is done (after `on_prefix_done`
/// returns). Document `paced_from` is the first timed one; its emission
/// time ends set-up. Records when the first document at or past each
/// period boundary left, and how late the paced documents were.
class BenchSpout : public stream::Spout<ops::Message> {
 public:
  struct Plan {
    uint64_t end = 0;
    uint64_t paced_from = 0;
    double rate = 0.0;  // 0 = no pacing.
    Timestamp period = 2 * kMillisPerMinute;
    std::function<void()> on_prefix_done;
  };

  BenchSpout(const std::vector<ops::RawTweet>* tweets, Plan plan,
             Tracer* tracer)
      : tweets_(tweets),
        plan_(std::move(plan)),
        tracer_(tracer),
        next_boundary_(plan_.period) {}

  bool Next(ops::Message* out, Timestamp* time) override {
    if (next_ >= plan_.end) return false;
    if (next_ == plan_.paced_from) {
      if (plan_.on_prefix_done) plan_.on_prefix_done();
      start_ns_ = MonotonicNanos();
      if (plan_.rate > 0.0) {
        schedule_ = {start_ns_, plan_.rate};
        lateness_ = LatenessTracker(
            start_ns_, schedule_.DueNs(plan_.end - plan_.paced_from));
      }
    }
    if (plan_.rate > 0.0 && next_ >= plan_.paced_from) {
      const int64_t due = schedule_.DueNs(next_ - plan_.paced_from);
      int64_t now = MonotonicNanos();
      if (due - now > 100'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = MonotonicNanos();
      }
      lateness_.Record(due, now);
    }
    ScopedSpan span(tracer_, Layer::kSpout, SpanKind::kNext);
    const ops::RawTweet& tweet = (*tweets_)[next_++];
    if (tweet.time >= next_boundary_) {
      const int64_t now = MonotonicNanos();
      for (; next_boundary_ <= tweet.time; next_boundary_ += plan_.period) {
        boundary_emit_.push_back({next_boundary_, now});
      }
    }
    *time = tweet.time;
    *out = ops::Message(ops::RawTweet(tweet));
    return true;
  }

  /// (boundary, wall time the first document at or past it was emitted).
  const std::vector<std::pair<Timestamp, int64_t>>& boundary_emit() const {
    return boundary_emit_;
  }
  const LatenessTracker& lateness() const { return lateness_; }
  /// When the first timed document was emitted; 0 before.
  int64_t start_ns() const { return start_ns_; }

 private:
  const std::vector<ops::RawTweet>* tweets_;
  Plan plan_;
  Tracer* tracer_;
  uint64_t next_ = 0;
  int64_t start_ns_ = 0;
  Timestamp next_boundary_;
  OpenLoopSchedule schedule_;
  LatenessTracker lateness_;
  std::vector<std::pair<Timestamp, int64_t>> boundary_emit_;
};

// ---------------------------------------------------------------------------
// Reference: the centralized period maps of a simulation run.
// ---------------------------------------------------------------------------

struct Reference {
  stream::Topology<ops::Message> topology;
  std::unique_ptr<stream::Runtime<ops::Message>> runtime;
  const ops::CentralizedBolt* baseline = nullptr;
};

std::unique_ptr<Reference> ComputeReference(const Options& options,
                                            const Inputs& in, uint64_t docs) {
  auto ref = std::make_unique<Reference>();
  const ops::PipelineConfig pipeline =
      DeployedPipeline(options, stream::RuntimeKind::kSimulation);
  BenchSpout::Plan plan;
  plan.end = docs;
  const ops::TopologyHandles handles = ops::BuildCorrelationTopology(
      &ref->topology, std::make_unique<BenchSpout>(&in.tweets, plan, nullptr),
      pipeline, nullptr, /*with_centralized_baseline=*/true);
  ref->runtime = ops::MakeConfiguredRuntime(&ref->topology, pipeline);
  ref->runtime->Run(pipeline.report_period);
  ref->baseline = static_cast<const ops::CentralizedBolt*>(
      ref->runtime->bolt(handles.centralized, 0));
  return ref;
}

struct Accuracy {
  double coverage = 0.0;
  double jaccard_error = 0.0;
  uint64_t compared = 0;
};

/// §8.2.3 coverage and error, by the rule of exp::RunExperiment: baseline
/// tagsets (seen more than sn times in a period) from the first period the
/// distributed system observed in full; covered when the Tracker reported
/// the set in any period; error over period-matched sets.
Accuracy CompareAgainstReference(const ops::TrackerBolt& tracker,
                                 const ops::CentralizedBolt& baseline,
                                 Timestamp first_install, Timestamp period) {
  const Timestamp first_full_period_end =
      ((first_install + period - 1) / period + 1) * period;
  std::unordered_map<TagSet, bool, TagSetHash> ever_tracked;
  for (const auto& [period_end, results] : tracker.periods()) {
    for (const auto& [tags, estimate] : results) ever_tracked[tags] = true;
  }
  Accuracy acc;
  double error_sum = 0.0;
  std::unordered_map<TagSet, bool, TagSetHash> baseline_sets;
  for (const auto& [period_end, base_results] : baseline.periods()) {
    if (period_end < first_full_period_end) continue;
    const auto tracker_period = tracker.periods().find(period_end);
    for (const auto& [tags, base] : base_results) {
      auto [slot, inserted] = baseline_sets.emplace(tags, false);
      if (ever_tracked.count(tags) > 0) slot->second = true;
      if (tracker_period == tracker.periods().end()) continue;
      const auto it = tracker_period->second.find(tags);
      if (it == tracker_period->second.end()) continue;
      ++acc.compared;
      error_sum += std::abs(it->second.coefficient - base.coefficient);
    }
  }
  uint64_t covered = 0;
  for (const auto& [tags, was_tracked] : baseline_sets) {
    if (was_tracked) ++covered;
  }
  acc.jaccard_error = acc.compared > 0 ? error_sum / acc.compared : 0.0;
  acc.coverage = baseline_sets.empty()
                     ? 0.0
                     : static_cast<double>(covered) / baseline_sets.size();
  return acc;
}

/// The serving index must equal the Tracker's period maps: every served
/// set bit-identical to the Tracker's entry for its period, and the newest
/// period served completely (the rule of exp::RunExperiment's serve
/// oracle). Returns the number of mismatches; `*checked` counts lookups.
uint64_t ValidateIndex(const serve::CorrelationIndex& index,
                       const ops::TrackerBolt& tracker, uint64_t* checked) {
  serve::CorrelationIndex::Reader reader = index.NewReader();
  uint64_t mismatches = 0;
  std::vector<serve::ScoredSet> served;
  reader.Snapshot(0.0, &served);
  for (const serve::ScoredSet& scored : served) {
    ++*checked;
    const std::optional<serve::LookupResult> lookup = reader.Lookup(scored.tags);
    const auto period = tracker.periods().find(scored.period_end);
    if (!lookup.has_value() || period == tracker.periods().end()) {
      ++mismatches;
      continue;
    }
    const auto entry = period->second.find(scored.tags);
    if (entry == period->second.end() ||
        entry->second.coefficient != lookup->coefficient ||
        entry->second.intersection_count != lookup->intersection_count ||
        entry->second.union_count != lookup->union_count) {
      ++mismatches;
    }
  }
  if (tracker.periods().empty()) return mismatches;
  const auto& [newest, newest_results] = *tracker.periods().rbegin();
  for (const auto& [tags, estimate] : newest_results) {
    ++*checked;
    const std::optional<serve::LookupResult> lookup = reader.Lookup(tags);
    if (!lookup.has_value() || lookup->period_end != newest ||
        lookup->coefficient != estimate.coefficient ||
        lookup->intersection_count != estimate.intersection_count ||
        lookup->union_count != estimate.union_count) {
      ++mismatches;
    }
  }
  return mismatches;
}

bool SameSets(const std::vector<serve::ScoredSet>& a,
              const std::vector<serve::ScoredSet>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].tags == b[i].tags) || a[i].coefficient != b[i].coefficient ||
        a[i].period_end != b[i].period_end) {
      return false;
    }
  }
  return true;
}

/// After ingest stopped: a sample of the mix over one pipelined client
/// connection, each answer compared bit-for-bit with a direct Reader call.
/// Returns the number of differing answers; `*checked` counts queries.
uint64_t CheckWireAgainstReader(const serve::CorrelationIndex& index,
                                uint16_t port,
                                const std::vector<QuerySpec>& mix,
                                uint64_t* checked, std::string* error) {
  net::ClientConfig config;
  config.io_timeout_ms = 10'000;
  config.connect_timeout_ms = 10'000;
  net::Client client(config);
  if (!client.Connect("127.0.0.1", port)) {
    *error = "wire check connect: " + client.last_error();
    return kWireCheckQueries;
  }
  const size_t n = std::min(kWireCheckQueries, mix.size());
  const size_t stride = std::max<size_t>(1, mix.size() / n);
  std::vector<size_t> picked;
  for (size_t i = 0; i < n; ++i) {
    const QuerySpec& q = mix[i * stride];
    picked.push_back(i * stride);
    switch (q.kind) {
      case QuerySpec::Kind::kTop:
        client.QueueTopCorrelated(q.tag, q.k);
        break;
      case QuerySpec::Kind::kLookup:
        client.QueueLookup(q.tags);
        break;
      case QuerySpec::Kind::kScan:
        client.QueueSnapshot(q.min_jaccard, q.limit);
        break;
    }
  }
  std::vector<net::Response> responses;
  if (!client.Flush(&responses) || responses.size() != n) {
    *error = "wire check flush: " + client.last_error();
    return n;
  }
  const serve::CorrelationIndex::Reader reader = index.NewReader();
  uint64_t differ = 0;
  std::vector<serve::ScoredSet> direct;
  for (size_t i = 0; i < n; ++i) {
    ++*checked;
    const QuerySpec& q = mix[picked[i]];
    const net::Response& r = responses[i];
    bool same = false;
    switch (q.kind) {
      case QuerySpec::Kind::kTop:
        reader.TopCorrelated(q.tag, q.k, &direct);
        same = r.op == net::Opcode::kScoredSets && SameSets(r.scored, direct);
        break;
      case QuerySpec::Kind::kLookup: {
        const std::optional<serve::LookupResult> hit = reader.Lookup(q.tags);
        same = r.op == net::Opcode::kLookupResult &&
               r.lookup.has_value() == hit.has_value() &&
               (!hit.has_value() ||
                (r.lookup->coefficient == hit->coefficient &&
                 r.lookup->intersection_count == hit->intersection_count &&
                 r.lookup->union_count == hit->union_count &&
                 r.lookup->period_end == hit->period_end &&
                 r.lookup->epoch == hit->epoch));
        break;
      }
      case QuerySpec::Kind::kScan:
        reader.Snapshot(q.min_jaccard, &direct);
        if (q.limit != 0 && direct.size() > q.limit) direct.resize(q.limit);
        same = r.op == net::Opcode::kSnapshotSets && SameSets(r.scored, direct);
        break;
    }
    if (!same) ++differ;
  }
  return differ;
}

// ---------------------------------------------------------------------------
// Memory.
// ---------------------------------------------------------------------------

/// Resets the kernel's peak-RSS mark of this process (VmHWM) so the peak
/// read at the end covers only what follows.
bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  return static_cast<bool>(f);
}

double StatusKb(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtod(line.c_str() + len, nullptr);
    }
  }
  return 0.0;
}

/// The machine's CPU time so far and the part of it the hypervisor gave to
/// other guests (steal), in clock ticks, from the aggregate line of
/// /proc/stat: "cpu user nice system idle iowait irq softirq steal ...".
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream f("/proc/stat");
  std::string label;
  f >> label;
  CpuTicks t;
  for (int field = 0; field < 8 && f; ++field) {
    uint64_t v = 0;
    f >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Idle polling.
// ---------------------------------------------------------------------------

/// Keeps every CPU of the process's affinity mask from halting while the
/// workload runs: one SCHED_IDLE thread per CPU spinning on a flag. They are
/// not pinned: a CPU whose own poller never lets it go idle stops pulling
/// runnable threads from busy CPUs, which halved replay_track's ingest.
/// On a virtual machine whose idle CPUs halt, waking a thread on an
/// idle vCPU waits until the hypervisor runs that vCPU again, which on a
/// shared host takes from microseconds to milliseconds and shows up as
/// steal; every hand-off between the pipeline's, the server's and the
/// generator's threads pays it. With the CPUs polling (as a guest's
/// haltpoll cpuidle driver or idle=poll would have them do) a wake-up is
/// an interrupt to a running vCPU, and the kernel preempts a SCHED_IDLE
/// thread as soon as any other thread of the machine becomes runnable, so
/// the pollers take no CPU time the program wants. See README.md,
/// "Steadiness".
class IdlePollers {
 public:
  IdlePollers() {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &mask)) continue;
      threads_.emplace_back([this] { Poll(); });
    }
    while (ready_.load() < threads_.size()) std::this_thread::yield();
  }
  ~IdlePollers() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  IdlePollers(const IdlePollers&) = delete;
  IdlePollers& operator=(const IdlePollers&) = delete;

  /// Pollers that could not lower themselves to SCHED_IDLE; they stop
  /// at once rather than compete with the program.
  int failed() const { return failed_.load(); }
  size_t size() const { return threads_.size(); }

 private:
  void Poll() {
    const sched_param param{};
    if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) {
      failed_.fetch_add(1);
      ready_.fetch_add(1);
      return;
    }
    ready_.fetch_add(1);
    // No pause instruction: a hypervisor that exits on pause loops would
    // deschedule the vCPU, which is what the poller is there to prevent.
    while (!stop_.load(std::memory_order_relaxed)) {
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<int> failed_{0};
  std::atomic<size_t> ready_{0};
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// One pipeline session: topology, runtime, optional index and server.
// ---------------------------------------------------------------------------

struct Session {
  std::unique_ptr<telemetry::PipelineTelemetry> telemetry;  // Traced only.
  std::unique_ptr<Tracer> tracer;                           // Traced only.
  std::unique_ptr<serve::CorrelationIndex> index;
  std::unique_ptr<BenchPeriodSink> sink;
  CountingMetrics metrics;
  stream::Topology<ops::Message> topology;
  ops::TopologyHandles handles;
  BenchSpout* spout = nullptr;
  std::unique_ptr<stream::Runtime<ops::Message>> runtime;
  std::unique_ptr<net::Server> server;
  ops::PipelineConfig pipeline;

  ops::TrackerBolt& tracker() const {
    return *BoltAs<ops::TrackerBolt>(runtime->bolt(handles.tracker, 0));
  }
};

std::unique_ptr<Session> BuildSession(const Options& options,
                                      const Inputs& in, BenchSpout::Plan plan,
                                      bool with_index, bool with_server,
                                      bool traced, std::string* error) {
  auto s = std::make_unique<Session>();
  s->pipeline = DeployedPipeline(options, stream::RuntimeKind::kPool);
  if (traced) {
    s->telemetry = std::make_unique<telemetry::PipelineTelemetry>(
        /*sample_every=*/1);
    s->tracer = std::make_unique<Tracer>(kMaxKeptSpans);
    s->pipeline.telemetry = s->telemetry.get();
  }
  if (with_index) {
    s->index = std::make_unique<serve::CorrelationIndex>();
  }
  s->sink = std::make_unique<BenchPeriodSink>(s->index.get(), s->tracer.get());
  auto spout =
      std::make_unique<BenchSpout>(&in.tweets, std::move(plan), s->tracer.get());
  s->spout = spout.get();
  s->handles = ops::BuildCorrelationTopology(
      &s->topology, std::move(spout), s->pipeline, &s->metrics,
      /*with_centralized_baseline=*/false, s->sink.get());
  if (traced) InstrumentTopology(&s->topology, s->tracer.get());
  s->runtime = ops::MakeConfiguredRuntime(&s->topology, s->pipeline);
  if (with_server) {
    net::ServerConfig config;
    config.num_net_threads = options.net_threads;
    config.num_reader_threads = options.reader_threads;
    if (traced) config.registry = &s->telemetry->registry;
    s->server = std::make_unique<net::Server>(s->index.get(), config);
    if (!s->server->Start(error)) return nullptr;
  }
  return s;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

/// Attempted / failed operations by kind.
struct Ops {
  std::map<std::string, std::pair<uint64_t, uint64_t>> by_kind;
  void Add(const std::string& kind, uint64_t attempted, uint64_t failed) {
    by_kind[kind].first += attempted;
    by_kind[kind].second += failed;
  }
  uint64_t attempted() const {
    uint64_t n = 0;
    for (const auto& [k, v] : by_kind) n += v.first;
    return n;
  }
  uint64_t failed() const {
    uint64_t n = 0;
    for (const auto& [k, v] : by_kind) n += v.second;
    return n;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string better;  // "higher", "lower" or "" (per-layer, no direction).
  uint64_t samples;
  /// In the JSON result. The untraced report also prints metrics that are
  /// too unsteady on a shared 4-core VM to bound (see README.md).
  bool in_json = true;
  /// For a percentile metric, its quantile: the report marks it when fewer
  /// than ten samples lie beyond it.
  double quantile = 0.0;
};

/// Per-layer totals accumulated over every session of the traced run.
struct LayerAccumulator {
  std::array<Tracer::LayerTotals, kNumLayers> layers;
  uint64_t docs = 0;
  int64_t thread_ns = 0;  // (pool workers + spout thread) x run wall.
  int64_t run_wall_ns = 0;
  stream::RuntimeStats stream;
  uint64_t routed = 0, notifications = 0, max_calc_notifications = 0;
  uint64_t installs = 0, single_additions = 0;
  std::vector<int64_t> apply_ns;
  uint64_t apply_estimates = 0;
  uint64_t index_sets = 0;
  std::map<std::string, telemetry::HistogramSnapshot> hists;
  std::map<std::string, uint64_t> counters;

  void AddSession(const Session& s, uint64_t docs_run, int64_t run_wall) {
    const auto totals = s.tracer->Totals();
    for (size_t l = 0; l < kNumLayers; ++l) {
      layers[l].calls += totals[l].calls;
      layers[l].self_ns += totals[l].self_ns;
      layers[l].tick_ns.insert(layers[l].tick_ns.end(),
                               totals[l].tick_ns.begin(),
                               totals[l].tick_ns.end());
    }
    docs += docs_run;
    run_wall_ns += run_wall;
    const stream::RuntimeStats st = s.runtime->stats();
    thread_ns += static_cast<int64_t>(st.num_threads + 1) * run_wall;
    stream.envelopes_moved += st.envelopes_moved;
    stream.steals += st.steals;
    stream.queue_full_blocks += st.queue_full_blocks;
    stream.max_queue_depth = std::max(stream.max_queue_depth, st.max_queue_depth);
    stream.stall_escapes += st.stall_escapes;
    routed += s.metrics.routed();
    notifications += s.metrics.notifications();
    max_calc_notifications += s.metrics.max_calculator_notifications();
    installs += s.metrics.installs();
    single_additions += s.metrics.single_additions();
    AddSink(*s.sink);
    AddRegistry(s.telemetry->registry);
  }

  void AddSink(const BenchPeriodSink& sink) {
    apply_ns.insert(apply_ns.end(), sink.apply_ns().begin(),
                    sink.apply_ns().end());
    apply_estimates += sink.apply_estimates();
  }

  void AddRegistry(const telemetry::MetricRegistry& registry) {
    const telemetry::MetricsSnapshot snap = registry.Snapshot();
    for (const auto& h : snap.histograms) hists[h.name].Merge(h.hist);
    for (const auto& c : snap.counters) counters[c.name] += c.value;
  }

  double HistQuantile(const std::string& name, double q) const {
    const auto it = hists.find(name);
    return it == hists.end() ? 0.0
                             : static_cast<double>(it->second.ValueAtQuantile(q));
  }
  uint64_t HistCount(const std::string& name) const {
    const auto it = hists.find(name);
    return it == hists.end() ? 0 : it->second.count;
  }
};

struct RunResult {
  std::vector<double> setup_s;
  std::vector<double> ingest_docs_per_s;
  std::vector<double> coverage;
  std::vector<double> jaccard_error;
  /// Freshness samples, one list per measured session (replay).
  std::vector<std::vector<double>> freshness_ms;
  /// The query generator's result, sized for the workload's phases before
  /// the peak-memory mark is reset.
  LoadgenResult loadgen;
  size_t reference_phase = 0;
  double query_max_qps = 0.0;
  double mem_peak_mb = 0.0;
  Ops ops;
  /// Failed correctness checks and invalid measurements.
  std::vector<std::string> failures;
  int64_t spout_late_ns = 0;
  int64_t query_late_ns = 0;
  uint64_t client_writes = 0, client_requests = 0;
  // Traced run only.
  LayerAccumulator layers;
  std::vector<double> reader_top_ns, reader_lookup_ns, reader_scan_ns;
};

/// Freshness samples: for each boundary crossed after `after_ns`, the wall
/// time from the spout emitting the first document past it to the first
/// observation (answer_ns, latest_period) at or past it.
void FreshnessSamples(const std::vector<std::pair<Timestamp, int64_t>>& emits,
                      const std::vector<ProbeSample>& seen, Timestamp after,
                      std::vector<double>* out, uint64_t* missing) {
  size_t j = 0;
  for (const auto& [boundary, emit_ns] : emits) {
    if (boundary <= after) continue;
    while (j < seen.size() && seen[j].latest_period < boundary) ++j;
    if (j == seen.size()) {
      ++*missing;
      continue;
    }
    out->push_back(static_cast<double>(seen[j].answer_ns - emit_ns) / 1e6);
  }
}

/// First arrivals of a Tracker sink, as monotone observations.
std::vector<ProbeSample> ArrivalsAsProbe(
    const std::map<Timestamp, int64_t>& arrivals) {
  // The newest period seen so far can only grow; each period's first
  // arrival is an observation that the Tracker holds everything up to it.
  std::vector<ProbeSample> seen;
  for (const auto& [period_end, wall] : arrivals) {
    while (!seen.empty() && seen.back().answer_ns >= wall) seen.pop_back();
    seen.push_back({wall, period_end});
  }
  return seen;
}

void CheckAccuracy(const Session& s, const Reference& ref, RunResult* r) {
  const Accuracy acc =
      CompareAgainstReference(s.tracker(), *ref.baseline,
                              s.metrics.first_install(),
                              s.pipeline.report_period);
  r->coverage.push_back(acc.coverage);
  r->jaccard_error.push_back(acc.jaccard_error);
  const bool ok = s.metrics.first_install() >= 0 &&
                  acc.coverage >= kMinCoverage &&
                  acc.jaccard_error <= kMaxJaccardError;
  r->ops.Add("accuracy_check", 1, ok ? 0 : 1);
  if (!ok) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "accuracy: coverage %.4f (min %.2f), error %.4f (max %.2f)",
                  acc.coverage, kMinCoverage, acc.jaccard_error,
                  kMaxJaccardError);
    r->failures.emplace_back(buf);
  }
}

void CheckDocs(const Session& s, uint64_t docs, uint64_t untagged,
               RunResult* r) {
  const uint64_t delivered = s.runtime->TuplesDelivered(s.handles.parser);
  const uint64_t missing = delivered >= docs ? 0 : docs - delivered;
  r->ops.Add("docs", docs, missing + untagged);
}

void CheckServing(const Session& s, const Inputs& in, RunResult* r) {
  uint64_t checked = 0;
  const uint64_t mismatches = ValidateIndex(*s.index, s.tracker(), &checked);
  r->ops.Add("index_check", checked, mismatches);
  if (mismatches > 0) {
    r->failures.push_back("index differs from the Tracker in " +
                          std::to_string(mismatches) + " answers");
  }
  std::string error;
  uint64_t wire_checked = 0;
  const uint64_t differ = CheckWireAgainstReader(
      *s.index, s.server->port(), in.mix, &wire_checked, &error);
  r->ops.Add("wire_check", std::max<uint64_t>(wire_checked, 1), differ);
  if (differ > 0) {
    r->failures.push_back("wire answers differ from Reader calls: " +
                          std::to_string(differ) + " " + error);
  }
}

void CountLoadgen(RunResult* r) {
  const LoadgenResult& lg = r->loadgen;
  for (size_t k = 0; k < kNumQueryKinds; ++k) {
    r->ops.Add(QueryKindName(k), lg.attempted[k], lg.failed[k]);
  }
  if (lg.malformed > 0) {
    r->failures.push_back(std::to_string(lg.malformed) +
                          " malformed mid-run answers");
  }
  if (!lg.error.empty()) r->failures.push_back("load generator: " + lg.error);
  for (const PhaseResult& p : lg.phases) {
    r->query_late_ns = std::max(r->query_late_ns, p.lateness.max_ns());
  }
  r->client_writes += lg.writes;
  r->client_requests += lg.requests_written;
}

/// Times the workload's query mix as direct Reader calls on `index`.
void ReplayReader(const serve::CorrelationIndex& index,
                  const std::vector<QuerySpec>& mix, RunResult* r) {
  const serve::CorrelationIndex::Reader reader = index.NewReader();
  std::vector<serve::ScoredSet> out;
  const size_t n = std::min<size_t>(mix.size(), 20'000);
  for (size_t i = 0; i < n; ++i) {
    const QuerySpec& q = mix[i];
    const int64_t t0 = MonotonicNanos();
    switch (q.kind) {
      case QuerySpec::Kind::kTop:
        reader.TopCorrelated(q.tag, q.k, &out);
        break;
      case QuerySpec::Kind::kLookup:
        (void)reader.Lookup(q.tags);
        break;
      case QuerySpec::Kind::kScan:
        reader.Snapshot(q.min_jaccard, &out);
        break;
    }
    const double ns = static_cast<double>(MonotonicNanos() - t0);
    (q.kind == QuerySpec::Kind::kTop      ? r->reader_top_ns
     : q.kind == QuerySpec::Kind::kLookup ? r->reader_lookup_ns
                                          : r->reader_scan_ns)
        .push_back(ns);
  }
}

/// Runs the load generator on its own thread from `start_ns` into
/// `*result`; Join() stops the probe and waits.
class LoadgenThread {
 public:
  LoadgenThread(LoadgenConfig config, int64_t start_ns, LoadgenResult* result)
      : config_(std::move(config)),
        result_(result),
        thread_([this, start_ns] {
          RunLoadgen(config_, start_ns, &stop_, &probe_latest_, result_);
          done_.store(true, std::memory_order_release);
        }) {}
  ~LoadgenThread() { Join(); }
  LoadgenThread(const LoadgenThread&) = delete;
  LoadgenThread& operator=(const LoadgenThread&) = delete;

  /// Waits (bounded) until the probe has seen `period`.
  void AwaitProbe(Timestamp period, int64_t timeout_ns) {
    const int64_t deadline = MonotonicNanos() + timeout_ns;
    while (probe_latest_.load(std::memory_order_acquire) < period &&
           !done_.load(std::memory_order_acquire) &&
           MonotonicNanos() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  void Join() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  LoadgenConfig config_;
  LoadgenResult* result_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> done_{false};
  std::atomic<Timestamp> probe_latest_{0};
  std::thread thread_;  // Last: starts after the state above exists.
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

uint64_t LiveDocs(const Options& o) {
  return static_cast<uint64_t>(kLiveDocsPerSecond * o.seconds);
}
uint64_t QueryHeavyDocs(const Options& o) {
  return kWarmDocs + static_cast<uint64_t>(kTrickleDocsPerSecond * o.seconds);
}

uint64_t WorkloadDocs(const Options& o) {
  if (o.workload == "replay_track") return kReplayDocs;
  if (o.workload == "live_serve") return LiveDocs(o);
  return QueryHeavyDocs(o);
}

/// The rates and lengths the workload's query generator runs.
std::vector<Phase> QueryPhases(const Options& o) {
  if (o.workload == "replay_track") {
    return {{kLiveQueriesPerSecond,
             static_cast<int64_t>((1.0 - kReplayShare) * o.seconds * 1e9)}};
  }
  if (o.workload == "live_serve") {
    return {{kLiveQueriesPerSecond, static_cast<int64_t>(o.seconds * 1e9)}};
  }
  std::vector<Phase> phases;
  for (const Rung& rung : kLadder) {
    phases.push_back(
        {rung.rate, static_cast<int64_t>(rung.share * o.seconds * 1e9)});
  }
  return phases;
}

/// Builds `samples` fresh sessions (topology, runtime and, when serving,
/// index and started server) over the plan's first document, runs each,
/// and records the time from the start of the build to the spout emitting
/// that document — worker-thread start included — as a setup_s sample.
bool SampleSetups(const Options& o, const Inputs& in, BenchSpout::Plan plan,
                  bool serving, int samples, RunResult* r) {
  plan.end = 1;
  for (int i = 0; i < samples; ++i) {
    std::string error;
    const int64_t t0 = MonotonicNanos();
    std::unique_ptr<Session> s =
        BuildSession(o, in, plan, serving, serving, /*traced=*/false, &error);
    if (s == nullptr) {
      r->failures.push_back("setup: " + error);
      return false;
    }
    s->runtime->Run(s->pipeline.report_period);
    r->setup_s.push_back(Seconds(s->spout->start_ns() - t0));
  }
  return true;
}

/// A query_heavy session whose spout, after the full-speed prefix, blocks
/// until the index serves the second-newest boundary the prefix crossed
/// (the newest may need documents past the prefix before any Calculator
/// reports it); `warm_end` is when that happened, written on the runtime's
/// thread before `warm`. A warm-up that does not finish within
/// kWarmTimeoutNs is a failed check, not a hang.
struct WarmSession {
  static constexpr int64_t kWarmTimeoutNs = 10'000'000'000;

  WarmSession(const Options& o, const Inputs& in, BenchSpout::Plan plan,
              bool traced, RunResult* r)
      : start(MonotonicNanos()) {
    const Timestamp period = 2 * kMillisPerMinute;
    const Timestamp target =
        in.tweets[plan.paced_from - 1].time / period * period - period;
    plan.on_prefix_done = [this, target] {
      const int64_t deadline = MonotonicNanos() + kWarmTimeoutNs;
      while (session->index->latest_period() < target &&
             MonotonicNanos() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      timed_out = session->index->latest_period() < target;
      warm_end = MonotonicNanos();
      warm.store(true, std::memory_order_release);
    };
    std::string error;
    session = BuildSession(o, in, std::move(plan), /*with_index=*/true,
                           /*with_server=*/true, traced, &error);
    if (session == nullptr) r->failures.push_back("setup: " + error);
  }
  WarmSession(const WarmSession&) = delete;
  WarmSession& operator=(const WarmSession&) = delete;

  const int64_t start;
  int64_t warm_end = 0;
  bool timed_out = false;
  std::atomic<bool> warm{false};
  std::unique_ptr<Session> session;
};

void RunReplayTrack(const Options& o, const Inputs& in, const Reference& ref,
                    bool traced, RunResult* r) {
  const uint64_t docs = kReplayDocs;
  BenchSpout::Plan plan;
  plan.end = docs;
  if (!SampleSetups(o, in, plan, /*serving=*/false, kSetupSamples, r)) return;
  std::unique_ptr<Session> last;
  int64_t replay_ns = 0;
  for (int rep = 0;
       rep < kMinReplays || Seconds(replay_ns) < kReplayShare * o.seconds;
       ++rep) {
    last.reset();
    malloc_trim(0);  // Each replay starts from the same heap state.
    std::string error;
    auto s = BuildSession(o, in, plan, /*with_index=*/false,
                          /*with_server=*/false, traced, &error);
    s->runtime->Run(s->pipeline.report_period);
    const int64_t t2 = MonotonicNanos();
    const int64_t t1 = s->spout->start_ns();
    replay_ns += t2 - t1;
    r->ingest_docs_per_s.push_back(static_cast<double>(docs) / Seconds(t2 - t1));
    CheckDocs(*s, docs, in.untagged, r);
    CheckAccuracy(*s, ref, r);
    uint64_t missing = 0;
    FreshnessSamples(s->spout->boundary_emit(),
                     ArrivalsAsProbe(s->sink->first_arrival()),
                     s->metrics.first_install(), &r->freshness_ms.emplace_back(),
                     &missing);
    if (traced) {
      r->layers.AddSession(*s, docs, t2 - t1);
      if (!o.span_out.empty()) {
        s->tracer->WriteSpans(o.span_out, "replay_track." + std::to_string(rep));
      }
    }
    last = std::move(s);
  }

  // Read phase: the newest period the last replay tracked, loaded into a
  // serving index and queried over the wire at the live query rate. (All
  // retained periods of this denser stream would make an index ~7x the
  // live one, where the mix's scans alone decide the tail.)
  serve::CorrelationIndex index;
  Tracer tracer(traced ? kMaxKeptSpans : 0);
  BenchPeriodSink sink(&index, traced ? &tracer : nullptr);
  if (!last->tracker().periods().empty()) {
    const auto& [period_end, results] = *last->tracker().periods().rbegin();
    std::vector<JaccardEstimate> estimates;
    estimates.reserve(results.size());
    for (const auto& [tags, estimate] : results) estimates.push_back(estimate);
    sink.OnPeriodResults(period_end, estimates);
  }
  telemetry::MetricRegistry registry;
  net::ServerConfig config;
  config.num_net_threads = o.net_threads;
  config.num_reader_threads = o.reader_threads;
  if (traced) config.registry = &registry;
  net::Server server(&index, config);
  std::string error;
  if (!server.Start(&error)) {
    r->failures.push_back("server start: " + error);
    return;
  }
  LoadgenConfig lg;
  lg.port = server.port();
  lg.query_connections = 1;
  lg.phases = QueryPhases(o);
  lg.p99_limit_us = o.p99_limit_us;
  lg.mix = &in.mix;
  LoadgenThread(lg, MonotonicNanos(), &r->loadgen).Join();
  CountLoadgen(r);
  uint64_t checked = 0;
  const uint64_t mismatches = ValidateIndex(index, last->tracker(), &checked);
  r->ops.Add("index_check", checked, mismatches);
  if (mismatches > 0) r->failures.push_back("replayed index differs from Tracker");
  uint64_t wire_checked = 0;
  const uint64_t differ = CheckWireAgainstReader(index, server.port(), in.mix,
                                                 &wire_checked, &error);
  r->ops.Add("wire_check", std::max<uint64_t>(wire_checked, 1), differ);
  if (differ > 0) r->failures.push_back("wire answers differ: " + error);
  if (traced) {
    r->layers.AddSink(sink);
    r->layers.AddRegistry(registry);
    r->layers.index_sets = index.NewReader().TotalSets();
    ReplayReader(index, in.mix, r);
  }
  server.Stop();
}

void RunLiveServe(const Options& o, const Inputs& in, const Reference& ref,
                  bool traced, RunResult* r) {
  const uint64_t docs = LiveDocs(o);
  BenchSpout::Plan plan;
  plan.end = docs;
  plan.paced_from = 0;
  plan.rate = kLiveDocsPerSecond;
  if (!SampleSetups(o, in, plan, /*serving=*/true, kSetupSamples, r)) return;
  std::string error;
  std::unique_ptr<Session> s = BuildSession(
      o, in, plan, /*with_index=*/true, /*with_server=*/true, traced, &error);
  if (s == nullptr) {
    r->failures.push_back("setup: " + error);
    return;
  }
  LoadgenConfig lg;
  lg.port = s->server->port();
  lg.query_connections = 1;
  lg.stats_probe = true;
  lg.phases = QueryPhases(o);
  lg.p99_limit_us = o.p99_limit_us;
  lg.mix = &in.mix;
  LoadgenThread loadgen(lg, MonotonicNanos(), &r->loadgen);
  s->runtime->Run(s->pipeline.report_period);
  const int64_t end = MonotonicNanos();
  const int64_t start = s->spout->start_ns();
  loadgen.AwaitProbe(s->index->latest_period(), 5'000'000'000);
  loadgen.Join();
  r->ingest_docs_per_s.push_back(static_cast<double>(docs) / Seconds(end - start));
  CountLoadgen(r);
  r->spout_late_ns = s->spout->lateness().max_ns();
  if (s->spout->lateness().Grows()) {
    r->failures.push_back("flagged: paced ingest fell steadily behind");
  }
  uint64_t missing = 0;
  FreshnessSamples(s->spout->boundary_emit(), r->loadgen.probe,
                   s->metrics.first_install(), &r->freshness_ms.emplace_back(),
                   &missing);
  r->ops.Add("freshness", r->freshness_ms.back().size() + missing, missing);
  CheckDocs(*s, docs, in.untagged, r);
  CheckAccuracy(*s, ref, r);
  CheckServing(*s, in, r);
  if (traced) {
    r->layers.AddSession(*s, docs, end - start);
    r->layers.index_sets = s->index->NewReader().TotalSets();
    ReplayReader(*s->index, in.mix, r);
    if (!o.span_out.empty()) s->tracer->WriteSpans(o.span_out, "live_serve");
  }
  s->server->Stop();
}

void RunQueryHeavy(const Options& o, const Inputs& in, const Reference& ref,
                   bool traced, RunResult* r) {
  const uint64_t docs = QueryHeavyDocs(o);
  BenchSpout::Plan plan;
  plan.end = docs;
  plan.paced_from = kWarmDocs;
  plan.rate = kTrickleDocsPerSecond;
  // Set-up samples: a fresh session warmed with the prefix, then drained
  // after one paced document.
  for (int i = 0; i < kWarmSetupSamples; ++i) {
    BenchSpout::Plan dry = plan;
    dry.end = kWarmDocs + 1;
    WarmSession warm(o, in, std::move(dry), traced, r);
    if (warm.session == nullptr) return;
    warm.session->runtime->Run(warm.session->pipeline.report_period);
    r->setup_s.push_back(Seconds(warm.warm_end - warm.start));
    r->ops.Add("warm_up", 1, warm.timed_out ? 1 : 0);
    if (warm.timed_out) r->failures.push_back("warm-up timed out");
  }
  WarmSession warm(o, in, plan, traced, r);
  if (warm.session == nullptr) return;
  Session* s = warm.session.get();
  std::thread runner([s] { s->runtime->Run(s->pipeline.report_period); });
  while (!warm.warm.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const int64_t warm_end = warm.warm_end;
  r->setup_s.push_back(Seconds(warm_end - warm.start));
  r->ops.Add("warm_up", 1, warm.timed_out ? 1 : 0);
  if (warm.timed_out) r->failures.push_back("warm-up timed out");
  LoadgenConfig lg;
  lg.port = s->server->port();
  lg.query_connections = kQueryConnections;
  lg.stats_probe = true;
  lg.phases = QueryPhases(o);
  lg.p99_limit_us = o.p99_limit_us;
  lg.mix = &in.mix;
  LoadgenThread loadgen(lg, warm_end, &r->loadgen);
  runner.join();
  const int64_t end = MonotonicNanos();
  loadgen.AwaitProbe(s->index->latest_period(), 5'000'000'000);
  loadgen.Join();
  r->ingest_docs_per_s.push_back(static_cast<double>(docs - kWarmDocs) /
                                 Seconds(end - warm_end));
  CountLoadgen(r);
  r->reference_phase = kReferenceRung;
  r->spout_late_ns = s->spout->lateness().max_ns();
  if (s->spout->lateness().Grows()) {
    r->failures.push_back("flagged: trickle ingest fell steadily behind");
  }
  const int64_t reference_end =
      warm_end + lg.phases[kReferenceRung].duration_ns;
  std::vector<std::pair<Timestamp, int64_t>> emits;
  for (const auto& emit : s->spout->boundary_emit()) {
    if (emit.second < reference_end) emits.push_back(emit);
  }
  uint64_t missing = 0;
  FreshnessSamples(emits, r->loadgen.probe, in.tweets[kWarmDocs - 1].time,
                   &r->freshness_ms.emplace_back(), &missing);
  r->ops.Add("freshness", r->freshness_ms.back().size() + missing, missing);
  CheckDocs(*s, docs, in.untagged, r);
  CheckAccuracy(*s, ref, r);
  CheckServing(*s, in, r);
  if (traced) {
    // Spans cover the warm-up too, so the per-layer totals do as well.
    r->layers.AddSession(*s, docs, end - warm.start);
    r->layers.index_sets = s->index->NewReader().TotalSets();
    ReplayReader(*s->index, in.mix, r);
    if (!o.span_out.empty()) s->tracer->WriteSpans(o.span_out, "query_heavy");
  }
  s->server->Stop();
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return QuantileSorted(v, q);
}

std::vector<Metric> EndToEnd(const RunResult& r) {
  std::vector<Metric> m;
  m.push_back({"setup_s", Median(r.setup_s), "s", "lower", r.setup_s.size()});
  m.push_back({"ingest_docs_per_s", Median(r.ingest_docs_per_s), "docs/s",
               "higher", r.ingest_docs_per_s.size()});
  m.push_back({"coverage", Median(r.coverage), "fraction", "higher",
               r.coverage.size()});
  // Pooled over the run's sessions (every replay of replay_track).
  std::vector<double> pooled;
  for (const std::vector<double>& session : r.freshness_ms) {
    pooled.insert(pooled.end(), session.begin(), session.end());
  }
  const Distribution fresh = Summarize(pooled);
  m.push_back({"freshness_p50_ms", fresh.p50, "ms", "lower", fresh.count,
               /*in_json=*/true, 0.50});
  m.push_back({"freshness_p90_ms", fresh.p90, "ms", "lower", fresh.count,
               /*in_json=*/false, 0.90});
  std::vector<double> latency;
  if (r.reference_phase < r.loadgen.phases.size()) {
    latency = r.loadgen.phases[r.reference_phase].latency_us;
  }
  m.push_back({"query_p50_us", WindowedQuantile(latency, 0.50), "us", "lower",
               latency.size(), /*in_json=*/true, 0.50});
  m.push_back({"query_p90_us", WindowedQuantile(latency, 0.90), "us", "lower",
               latency.size(), /*in_json=*/false, 0.90});
  m.push_back({"query_p99_us", WindowedQuantile(latency, 0.99), "us", "lower",
               latency.size(), /*in_json=*/false, 0.99});
  double max_qps = 0.0;
  for (const PhaseResult& p : r.loadgen.phases) {
    if (p.met_limit) max_qps = std::max(max_qps, p.rate);
  }
  m.push_back({"query_max_qps", max_qps, "q/s", "higher", r.loadgen.phases.size()});
  m.push_back({"mem_peak_mb", r.mem_peak_mb, "MB", "lower", 1});
  const double attempted = static_cast<double>(r.ops.attempted());
  m.push_back({"error_share",
               attempted > 0 ? static_cast<double>(r.ops.failed()) / attempted
                             : 0.0,
               "fraction", "lower", r.ops.attempted(), /*in_json=*/false});
  return m;
}

/// The headline metric trace.overhead_pct compares, as a cost (higher =
/// worse): per-document ingest time on replay_track, freshness on
/// live_serve, query latency on query_heavy.
double PrimaryCost(const std::string& workload, const RunResult& r) {
  if (workload == "replay_track") return 1.0 / Median(r.ingest_docs_per_s);
  if (workload == "live_serve") {
    return r.freshness_ms.empty() ? 0.0 : Summarize(r.freshness_ms[0]).p50;
  }
  if (r.reference_phase < r.loadgen.phases.size()) {
    return Summarize(r.loadgen.phases[r.reference_phase].latency_us).p50;
  }
  return 0.0;
}

std::vector<Metric> PerLayer(const RunResult& traced, double overhead_pct) {
  const LayerAccumulator& a = traced.layers;
  auto layer = [&](Layer l) -> const Tracer::LayerTotals& {
    return a.layers[static_cast<size_t>(l)];
  };
  const double docs = std::max<double>(1.0, static_cast<double>(a.docs));
  auto per_doc = [&](Layer l) {
    return static_cast<double>(layer(l).self_ns) / docs;
  };
  auto ms = [](int64_t ns) { return static_cast<double>(ns) / 1e6; };
  std::vector<double> ticks;
  for (const int64_t t : layer(Layer::kCalculator).tick_ns) {
    ticks.push_back(static_cast<double>(t) / 1e6);
  }
  std::vector<double> apply_ms;
  int64_t apply_total = 0;
  for (const int64_t t : a.apply_ns) {
    apply_ms.push_back(static_cast<double>(t) / 1e6);
    apply_total += t;
  }
  int64_t covered = 0;
  for (size_t l = 0; l < kNumLayers; ++l) covered += a.layers[l].self_ns;
  const double unattributed =
      a.thread_ns > 0
          ? 100.0 * (1.0 - static_cast<double>(covered) /
                               static_cast<double>(a.thread_ns))
          : 0.0;
  const auto stage = [](const char* s) {
    return std::string("corrtrack_net_stage_ns{stage=\"") + s + "\"}";
  };
  const auto dwell = [](const char* s) {
    return std::string("corrtrack_stage_dwell_us{stage=\"") + s + "\"}";
  };
  const auto counter = [&](const char* name) -> double {
    const auto it = a.counters.find(name);
    return it == a.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  std::vector<Metric> m;
  m.push_back({"ops.parser.self_ns_per_doc", per_doc(Layer::kParser), "ns/doc", "", a.docs});
  m.push_back({"ops.disseminator.self_ns_per_doc", per_doc(Layer::kDisseminator), "ns/doc", "", a.docs});
  m.push_back({"ops.calculator.self_ns_per_doc", per_doc(Layer::kCalculator), "ns/doc", "", a.docs});
  m.push_back({"ops.calculator.tick_ms_p99", Quantile(ticks, 0.99), "ms", "", ticks.size()});
  m.push_back({"ops.tracker.self_ms", ms(layer(Layer::kTracker).self_ns), "ms", "", layer(Layer::kTracker).calls});
  m.push_back({"ops.disseminator.notifications_per_doc",
               a.routed > 0 ? static_cast<double>(a.notifications) / a.routed : 0.0,
               "count/doc", "", a.routed});
  m.push_back({"ops.calculator.max_load_share",
               a.notifications > 0 ? static_cast<double>(a.max_calc_notifications) /
                                         a.notifications
                                   : 0.0,
               "fraction", "", a.notifications});
  m.push_back({"ops.partitioner.self_ms", ms(layer(Layer::kPartitioner).self_ns), "ms", "", layer(Layer::kPartitioner).calls});
  m.push_back({"ops.merger.self_ms", ms(layer(Layer::kMerger).self_ns), "ms", "", layer(Layer::kMerger).calls});
  m.push_back({"ops.merger.installs", static_cast<double>(a.installs), "count", "", 1});
  m.push_back({"ops.disseminator.single_additions", static_cast<double>(a.single_additions), "count", "", 1});
  m.push_back({"ops.tracker.jaccard_error", Median(traced.jaccard_error), "fraction", "", traced.jaccard_error.size()});
  for (const char* s : {"disseminator", "calculator", "tracker"}) {
    m.push_back({std::string("ops.") + s + ".dwell_us_p99",
                 a.HistQuantile(dwell(s), 0.99), "us", "", a.HistCount(dwell(s))});
  }
  m.push_back({"stream.envelopes_per_doc", static_cast<double>(a.stream.envelopes_moved) / docs, "count/doc", "", a.docs});
  m.push_back({"stream.steals", static_cast<double>(a.stream.steals), "count", "", 1});
  m.push_back({"stream.queue_full_blocks", static_cast<double>(a.stream.queue_full_blocks), "count", "", 1});
  m.push_back({"stream.max_queue_depth", static_cast<double>(a.stream.max_queue_depth), "count", "", 1});
  m.push_back({"stream.stall_escapes", static_cast<double>(a.stream.stall_escapes), "count", "", 1});
  m.push_back({"stream.unattributed_pct", unattributed, "%", "", 1});
  m.push_back({"serve.apply_calls", static_cast<double>(a.apply_ns.size()), "count", "", 1});
  m.push_back({"serve.apply_ms_p50", Quantile(apply_ms, 0.5), "ms", "", apply_ms.size()});
  m.push_back({"serve.apply_ms_p99", Quantile(apply_ms, 0.99), "ms", "", apply_ms.size()});
  m.push_back({"serve.apply_estimates_per_s",
               apply_total > 0 ? static_cast<double>(a.apply_estimates) / Seconds(apply_total) : 0.0,
               "1/s", "", a.apply_estimates});
  m.push_back({"serve.apply_busy_share",
               a.run_wall_ns > 0 ? static_cast<double>(apply_total) /
                                       static_cast<double>(a.run_wall_ns)
                                 : 0.0,
               "fraction", "", 1});
  m.push_back({"serve.index_sets", static_cast<double>(a.index_sets), "count", "", 1});
  m.push_back({"serve.top_ns_p50", Quantile(traced.reader_top_ns, 0.5), "ns", "", traced.reader_top_ns.size()});
  m.push_back({"serve.lookup_ns_p50", Quantile(traced.reader_lookup_ns, 0.5), "ns", "", traced.reader_lookup_ns.size()});
  std::vector<double> scan_us;
  for (const double ns : traced.reader_scan_ns) scan_us.push_back(ns / 1e3);
  m.push_back({"serve.scan_us_p50", Quantile(scan_us, 0.5), "us", "", scan_us.size()});
  m.push_back({"net.decode_ns_p50", a.HistQuantile(stage("decode"), 0.5), "ns", "", a.HistCount(stage("decode"))});
  m.push_back({"net.queue_ns_p99", a.HistQuantile(stage("queue"), 0.99), "ns", "", a.HistCount(stage("queue"))});
  m.push_back({"net.execute_ns_p50", a.HistQuantile(stage("execute"), 0.5), "ns", "", a.HistCount(stage("execute"))});
  m.push_back({"net.flush_ns_p50", a.HistQuantile(stage("flush"), 0.5), "ns", "", a.HistCount(stage("flush"))});
  m.push_back({"net.requests_per_batch",
               traced.client_writes > 0 ? static_cast<double>(traced.client_requests) /
                                              traced.client_writes
                                        : 0.0,
               "count", "", traced.client_writes});
  m.push_back({"net.shed_requests", counter("corrtrack_net_shed_requests_total"), "count", "", 1});
  m.push_back({"net.deadline_exceeded", counter("corrtrack_net_deadline_exceeded_total"), "count", "", 1});
  m.push_back({"gen.spout_late_ms_max", static_cast<double>(traced.spout_late_ns) / 1e6, "ms", "", 1});
  m.push_back({"gen.query_late_ms_max", static_cast<double>(traced.query_late_ns) / 1e6, "ms", "", 1});
  m.push_back({"trace.overhead_pct", overhead_pct, "%", "", 1});
  return m;
}

void PrintAccounting(const RunResult& traced) {
  const LayerAccumulator& a = traced.layers;
  if (a.thread_ns <= 0) return;
  std::printf("thread-time accounting (pool workers + spout thread = %.3f s):\n",
              Seconds(a.thread_ns));
  double sum = 0.0;
  for (size_t l = 0; l < kNumLayers; ++l) {
    if (a.layers[l].calls == 0) continue;
    const double pct = 100.0 * static_cast<double>(a.layers[l].self_ns) /
                       static_cast<double>(a.thread_ns);
    sum += pct;
    std::printf("  %-14s self %9.3f ms  %6.2f%%  (%" PRIu64 " spans)\n",
                LayerName(static_cast<Layer>(l)),
                static_cast<double>(a.layers[l].self_ns) / 1e6, pct,
                a.layers[l].calls);
  }
  std::printf("  %-14s %26.2f%%\n  %-14s %26.2f%%\n", "unattributed",
              100.0 - sum, "total", 100.0);
}

void PrintPhases(const RunResult& r) {
  for (size_t i = 0; i < r.loadgen.phases.size(); ++i) {
    const PhaseResult& p = r.loadgen.phases[i];
    const Distribution d = Summarize(p.latency_us);
    std::printf("  queries at %8.0f q/s: n=%zu failed=%" PRIu64
                " p50=%.1fus p99=%.1fus windowed_p99=%.1fus "
                "max_late=%.2fms%s%s%s\n",
                p.rate, d.count, p.failed, d.p50, d.p99,
                WindowedQuantile(p.latency_us, 0.99),
                static_cast<double>(p.lateness.max_ns()) / 1e6,
                p.lateness.Grows() ? " lateness-grows" : "",
                p.met_limit ? " meets-limit" : " misses-limit",
                i == r.reference_phase ? " [reference rate]" : "");
  }
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    const bool unsupported =
        m.quantile > 0.0 && !PercentileSupported(m.samples, m.quantile);
    std::printf("  %-40s %14.6g %-10s %-7s n=%" PRIu64 "%s%s\n",
                m.name.c_str(), m.value, m.unit.c_str(), m.better.c_str(),
                m.samples, m.in_json ? "" : "  (printed only)",
                unsupported ? "  (fewer than 10 samples beyond it)" : "");
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "replay_track|live_serve|query_heavy --seed N --seconds S "
               "--trace 0|1 [--pool-workers N] [--net-threads N] "
               "[--reader-threads N] [--p99-limit-us X] [--span-out PATH]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      o->workload = value;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      o->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      o->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--pool-workers") {
      o->pool_workers = std::atoi(value);
    } else if (key == "--net-threads") {
      o->net_threads = std::atoi(value);
    } else if (key == "--reader-threads") {
      o->reader_threads = std::atoi(value);
    } else if (key == "--p99-limit-us") {
      o->p99_limit_us = std::strtod(value, nullptr);
    } else if (key == "--span-out") {
      o->span_out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && o->seconds > 0 && o->pool_workers > 0 &&
         o->net_threads > 0 && o->reader_threads > 0 &&
         (o->workload == "replay_track" || o->workload == "live_serve" ||
          o->workload == "query_heavy");
}

RunResult RunWorkload(const Options& o, const Inputs& in, const Reference& ref,
                      bool traced) {
  RunResult r;
  // The generator's per-request records exist before the peak mark is
  // reset, so they stay out of the peak whatever rungs the ladder runs.
  PrepareResult(QueryPhases(o), &r.loadgen);
  // Start from a trimmed heap, so memory the inputs and reference freed
  // does not decide what this run's peak looks like.
  malloc_trim(0);
  ResetPeakRss();
  const double base_kb = StatusKb("VmRSS:");
  if (o.workload == "replay_track") {
    RunReplayTrack(o, in, ref, traced, &r);
  } else if (o.workload == "live_serve") {
    RunLiveServe(o, in, ref, traced, &r);
  } else {
    RunQueryHeavy(o, in, ref, traced, &r);
  }
  r.mem_peak_mb = (StatusKb("VmHWM:") - base_kb) / 1024.0;
  return r;
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) return Usage("bad arguments");
  const int64_t t0 = MonotonicNanos();
  const uint64_t docs = WorkloadDocs(o);
  const Inputs in = MakeInputs(o, docs);
  const std::unique_ptr<Reference> ref = ComputeReference(o, in, docs);
  std::printf("workload %s seed %" PRIu64 ": %" PRIu64
              " documents and %zu queries generated, reference computed in "
              "%.2f s\n",
              o.workload.c_str(), o.seed, docs, in.mix.size(),
              Seconds(MonotonicNanos() - t0));

  const IdlePollers pollers;
  std::printf("idle pollers: %zu CPUs, %d could not take SCHED_IDLE\n",
              pollers.size(), pollers.failed());
  const CpuTicks cpu0 = ReadCpuTicks();
  RunResult untraced = RunWorkload(o, in, *ref, /*traced=*/false);
  const CpuTicks cpu1 = ReadCpuTicks();
  std::vector<Metric> json_metrics = EndToEnd(untraced);
  PrintMetrics("end-to-end (untraced run):", json_metrics);
  // Steal from other guests slows every layer at once; see README.md.
  if (cpu1.total > cpu0.total) {
    std::printf("  host steal during the untraced run: %.1f%% of CPU time\n",
                100.0 * static_cast<double>(cpu1.steal - cpu0.steal) /
                    static_cast<double>(cpu1.total - cpu0.total));
  }
  PrintPhases(untraced);
  if (untraced.ingest_docs_per_s.size() > 1) {
    std::printf("  ingest docs/s per replay:");
    for (const double v : untraced.ingest_docs_per_s) std::printf(" %.0f", v);
    std::printf("\n");
  }
  RunResult traced;
  if (o.trace) {
    traced = RunWorkload(o, in, *ref, /*traced=*/true);
    const double base = PrimaryCost(o.workload, untraced);
    const double overhead =
        base > 0.0 ? 100.0 * (PrimaryCost(o.workload, traced) / base - 1.0)
                   : 0.0;
    PrintAccounting(traced);
    json_metrics = PerLayer(traced, overhead);
    PrintMetrics("per-layer (traced run):", json_metrics);
  }
  std::printf("operations (attempted / failed):\n");
  Ops all = untraced.ops;
  if (o.trace) {
    for (const auto& [k, v] : traced.ops.by_kind) all.Add(k, v.first, v.second);
  }
  for (const auto& [kind, v] : all.by_kind) {
    std::printf("  %-16s %10" PRIu64 " / %" PRIu64 "\n", kind.c_str(), v.first,
                v.second);
  }
  std::vector<std::string> failures = untraced.failures;
  if (o.trace) {
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());
  }
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, all.attempted()));
  json += ", \"failed\": " + std::to_string(all.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : json_metrics) {
    if (!m.in_json) continue;
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
