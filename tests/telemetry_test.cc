// Telemetry subsystem: histogram quantile math (bounded relative error,
// merge equivalence, saturation), trace-sampler determinism, snapshot
// consistency under concurrent recording (the TSan job runs this file),
// exposition goldens (Prometheus text + JSON), the leveled rate-limited
// logger, and the end-to-end guarantees — telemetry never changes what the
// pipeline computes (differential period maps) and a telemetry-enabled
// experiment surfaces per-stage and serve latency percentiles.

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/driver.h"
#include "gen/tweet_generator.h"
#include "ops/source.h"
#include "ops/topology_builder.h"
#include "ops/tracker_op.h"
#include "stream/simulation.h"
#include "telemetry/exposition.h"
#include "telemetry/histogram.h"
#include "telemetry/log.h"
#include "telemetry/pipeline_telemetry.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace corrtrack::telemetry {
namespace {

TEST(Histogram, SmallValuesAreExact) {
  LatencyHistogram hist;
  for (uint64_t v = 0; v < 8; ++v) hist.Record(v);
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 8u);
  EXPECT_EQ(snap.sum, 28u);
  EXPECT_EQ(snap.max, 7u);
  for (uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketMidpoint(LatencyHistogram::BucketIndex(v)),
              v);
  }
}

TEST(Histogram, BucketRoundTrip) {
  // Every bucket's lower bound must map back to that bucket, and the
  // value one below it to the previous bucket.
  for (size_t b = 1; b < LatencyHistogram::kNumBuckets; ++b) {
    const uint64_t lower = LatencyHistogram::BucketLowerBound(b);
    EXPECT_EQ(LatencyHistogram::BucketIndex(lower), b) << "bucket " << b;
    EXPECT_EQ(LatencyHistogram::BucketIndex(lower - 1), b - 1)
        << "bucket " << b;
  }
}

TEST(Histogram, QuantileRelativeErrorBound) {
  // The log2 sub-bucket layout guarantees bucket width <= value / 8, so a
  // midpoint answer is within value/16 of any value in the bucket; assert
  // the looser value/8 + 1 to stay implementation-agnostic.
  LatencyHistogram hist;
  std::vector<uint64_t> values;
  uint64_t x = 12345;
  for (int i = 0; i < 100000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;  // LCG.
    const uint64_t v = (x >> 33) % 1000000;
    values.push_back(v);
    hist.Record(v);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.count, values.size());
  for (const double q : {0.5, 0.9, 0.99}) {
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(snap.count));
    if (rank == 0) rank = 1;
    const uint64_t exact = values[rank - 1];
    const uint64_t estimate = snap.ValueAtQuantile(q);
    const uint64_t bound = exact / 8 + 1;
    EXPECT_LE(estimate > exact ? estimate - exact : exact - estimate, bound)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
}

TEST(Histogram, MergeMatchesSingleRecorder) {
  LatencyHistogram evens, odds, all;
  for (uint64_t v = 1; v <= 20000; ++v) {
    (v % 2 == 0 ? evens : odds).Record(v * 37);
    all.Record(v * 37);
  }
  HistogramSnapshot merged = evens.Snapshot();
  merged.Merge(odds.Snapshot());
  const HistogramSnapshot expected = all.Snapshot();
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.sum, expected.sum);
  EXPECT_EQ(merged.max, expected.max);
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(merged.ValueAtQuantile(q), expected.ValueAtQuantile(q)) << q;
  }
}

TEST(Histogram, OverflowSaturates) {
  LatencyHistogram hist;
  const uint64_t huge = uint64_t{1} << 45;  // Past kMaxExponent = 39.
  hist.Record(huge);
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.max, huge);  // max is exact even when the bucket saturates.
  // The quantile answer is the overflow bound, not an invented midpoint.
  EXPECT_EQ(snap.ValueAtQuantile(1.0), uint64_t{1} << 40);
}

TEST(Histogram, QuantileNeverExceedsMax) {
  LatencyHistogram hist;
  hist.Record(1000);  // Bucket [960, 1024): midpoint 991 < 1000 — but a
  hist.Record(1030);  // 1030 lands in [1024, 1088): midpoint 1055 > max?
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_LE(snap.ValueAtQuantile(0.99), snap.max);
}

TEST(Histogram, ConcurrentRecordingLosesNothing) {
  // TSan target: 4 threads hammer one histogram; after joining, the
  // snapshot accounts for every Record exactly once.
  LatencyHistogram hist;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 200000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        hist.Record(i % 1000 + static_cast<uint64_t>(t));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      expected_sum += i % 1000 + static_cast<uint64_t>(t);
    }
  }
  EXPECT_EQ(snap.sum, expected_sum);
}

TEST(Histogram, SnapshotIsConsistentUnderConcurrentRecording) {
  // Snapshots taken while a recorder runs must stay internally sane:
  // count monotonically non-decreasing across snapshots, sum >= count
  // (every recorded value is >= 1 here), max present once count is.
  LatencyHistogram hist;
  std::atomic<bool> done{false};
  std::thread writer([&hist, &done] {
    for (uint64_t i = 0; i < 500000; ++i) hist.Record(i % 4096 + 1);
    done.store(true, std::memory_order_release);
  });
  uint64_t last_count = 0;
  while (!done.load(std::memory_order_acquire)) {
    const HistogramSnapshot snap = hist.Snapshot();
    EXPECT_GE(snap.count, last_count);
    EXPECT_GE(snap.sum, snap.count);  // All values >= 1.
    if (snap.count > 0) EXPECT_GE(snap.max, 1u);
    last_count = snap.count;
  }
  writer.join();
  EXPECT_EQ(hist.Snapshot().count, 500000u);
}

TEST(Sampler, DeterministicCadence) {
  TraceSampler sampler(4);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 12; ++i) ids.push_back(sampler.Next());
  // Every 4th call samples, and the id encodes the document ordinal + 1
  // (never 0, which means "untraced").
  const std::vector<uint64_t> expected = {1, 0, 0, 0, 5, 0, 0, 0, 9, 0, 0, 0};
  EXPECT_EQ(ids, expected);

  TraceSampler off(0);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(off.Next(), 0u);

  TraceSampler always(1);
  for (uint64_t i = 0; i < 8; ++i) EXPECT_EQ(always.Next(), i + 1);
}

TEST(Sampler, SpanSampledMirrorsTraceId) {
  TraceSpan span;
  EXPECT_FALSE(span.sampled());
  span.trace_id = 17;
  EXPECT_TRUE(span.sampled());
}

TEST(Registry, SameNameSharesInstrument) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("c");
  Counter* b = registry.GetCounter("c");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->value(), 3u);
  EXPECT_EQ(registry.GetHistogram("h"), registry.GetHistogram("h"));
  EXPECT_EQ(registry.FindHistogram("h"), registry.GetHistogram("h"));
  EXPECT_EQ(registry.FindHistogram("never-registered"), nullptr);
}

TEST(Registry, SnapshotSortedByName) {
  MetricRegistry registry;
  registry.GetCounter("zeta");
  registry.GetCounter("alpha");
  registry.GetHistogram("mid");
  registry.GetHistogram("aaa");
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "zeta");
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].name, "aaa");
  EXPECT_EQ(snap.histograms[1].name, "mid");
}

MetricsSnapshot GoldenSnapshot() {
  static MetricRegistry* registry = [] {
    auto* r = new MetricRegistry();
    r->GetCounter("corrtrack_docs_parsed_total")->Increment(3);
    r->GetGauge("g")->Set(1.5);
    LatencyHistogram* hist = r->GetHistogram("lat_us{stage=\"x\"}");
    for (int i = 0; i < 4; ++i) hist->Record(10);
    return r;
  }();
  return registry->Snapshot();
}

TEST(Exposition, PrometheusGolden) {
  const std::string expected =
      "# TYPE corrtrack_docs_parsed_total counter\n"
      "corrtrack_docs_parsed_total 3\n"
      "# TYPE g gauge\n"
      "g 1.5\n"
      "# TYPE lat_us summary\n"
      "lat_us{stage=\"x\",quantile=\"0.5\"} 10\n"
      "lat_us{stage=\"x\",quantile=\"0.9\"} 10\n"
      "lat_us{stage=\"x\",quantile=\"0.99\"} 10\n"
      "lat_us_sum{stage=\"x\"} 40\n"
      "lat_us_count{stage=\"x\"} 4\n";
  EXPECT_EQ(RenderPrometheus(GoldenSnapshot()), expected);
}

TEST(Exposition, JsonGolden) {
  const std::string expected =
      "{\"counters\":{\"corrtrack_docs_parsed_total\":3},"
      "\"gauges\":{\"g\":1.5},"
      "\"histograms\":{\"lat_us{stage=\\\"x\\\"}\":"
      "{\"count\":4,\"sum\":40,\"max\":10,\"mean\":10,"
      "\"p50\":10,\"p90\":10,\"p99\":10}}}";
  EXPECT_EQ(RenderJson(GoldenSnapshot()), expected);
}

/// A registry carrying the serving front end's corrtrack_net_* instrument
/// names (src/net/server.cc) with hand-picked deterministic values — all
/// histogram samples are < 8 so the bucketed quantiles are exact and the
/// rendered text is byte-stable.
MetricsSnapshot NetGoldenSnapshot() {
  static MetricRegistry* registry = [] {
    auto* r = new MetricRegistry();
    r->GetCounter("corrtrack_net_connections_total")->Increment(1);
    r->GetCounter("corrtrack_net_disconnects_total")->Increment(1);
    r->GetCounter("corrtrack_net_protocol_errors_total");
    r->GetCounter("corrtrack_net_batches_total")->Increment(2);
    r->GetCounter("corrtrack_net_bytes_read_total")->Increment(84);
    r->GetCounter("corrtrack_net_bytes_written_total")->Increment(160);
    r->GetCounter("corrtrack_net_requests_total{op=\"top\"}")->Increment(1);
    r->GetCounter("corrtrack_net_requests_total{op=\"lookup\"}")->Increment(1);
    r->GetGauge("corrtrack_net_open_connections")->Set(0);
    LatencyHistogram* top = r->GetHistogram(
        "corrtrack_net_request_ns{op=\"top\"}");
    for (int i = 0; i < 3; ++i) top->Record(5);
    LatencyHistogram* decode = r->GetHistogram(
        "corrtrack_net_stage_ns{stage=\"decode\"}");
    decode->Record(7);
    decode->Record(7);
    return r;
  }();
  return registry->Snapshot();
}

TEST(Exposition, NetPrometheusGolden) {
  const std::string expected =
      "# TYPE corrtrack_net_batches_total counter\n"
      "corrtrack_net_batches_total 2\n"
      "# TYPE corrtrack_net_bytes_read_total counter\n"
      "corrtrack_net_bytes_read_total 84\n"
      "# TYPE corrtrack_net_bytes_written_total counter\n"
      "corrtrack_net_bytes_written_total 160\n"
      "# TYPE corrtrack_net_connections_total counter\n"
      "corrtrack_net_connections_total 1\n"
      "# TYPE corrtrack_net_disconnects_total counter\n"
      "corrtrack_net_disconnects_total 1\n"
      "# TYPE corrtrack_net_protocol_errors_total counter\n"
      "corrtrack_net_protocol_errors_total 0\n"
      "# TYPE corrtrack_net_requests_total counter\n"
      "corrtrack_net_requests_total{op=\"lookup\"} 1\n"
      "corrtrack_net_requests_total{op=\"top\"} 1\n"
      "# TYPE corrtrack_net_open_connections gauge\n"
      "corrtrack_net_open_connections 0\n"
      "# TYPE corrtrack_net_request_ns summary\n"
      "corrtrack_net_request_ns{op=\"top\",quantile=\"0.5\"} 5\n"
      "corrtrack_net_request_ns{op=\"top\",quantile=\"0.9\"} 5\n"
      "corrtrack_net_request_ns{op=\"top\",quantile=\"0.99\"} 5\n"
      "corrtrack_net_request_ns_sum{op=\"top\"} 15\n"
      "corrtrack_net_request_ns_count{op=\"top\"} 3\n"
      "# TYPE corrtrack_net_stage_ns summary\n"
      "corrtrack_net_stage_ns{stage=\"decode\",quantile=\"0.5\"} 7\n"
      "corrtrack_net_stage_ns{stage=\"decode\",quantile=\"0.9\"} 7\n"
      "corrtrack_net_stage_ns{stage=\"decode\",quantile=\"0.99\"} 7\n"
      "corrtrack_net_stage_ns_sum{stage=\"decode\"} 14\n"
      "corrtrack_net_stage_ns_count{stage=\"decode\"} 2\n";
  EXPECT_EQ(RenderPrometheus(NetGoldenSnapshot()), expected);
}

TEST(Exposition, NetJsonGoldenCarriesCountersAndSpans) {
  const std::string json = RenderJson(NetGoldenSnapshot());
  EXPECT_NE(json.find("\"corrtrack_net_batches_total\":2"), std::string::npos);
  EXPECT_NE(json.find("\"corrtrack_net_request_ns{op=\\\"top\\\"}\":"
                      "{\"count\":3,\"sum\":15,\"max\":5,\"mean\":5,"
                      "\"p50\":5,\"p90\":5,\"p99\":5}"),
            std::string::npos);
}

TEST(Exposition, LabelledSeriesShareOneTypeLine) {
  MetricRegistry registry;
  registry.GetHistogram("h{a=\"1\"}")->Record(5);
  registry.GetHistogram("h{a=\"2\"}")->Record(7);
  const std::string text = RenderPrometheus(registry.Snapshot());
  size_t count = 0;
  for (size_t pos = text.find("# TYPE h summary");
       pos != std::string::npos; pos = text.find("# TYPE h summary", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

// ---------------------------------------------------------------- logger

std::vector<std::string>* CaptureLines() {
  static std::vector<std::string> lines;
  return &lines;
}

void CaptureSink(const char* line, void* /*arg*/) {
  CaptureLines()->push_back(line);
}

class LogCapture {
 public:
  LogCapture() {
    CaptureLines()->clear();
    SetLogSinkForTest(&CaptureSink, nullptr);
  }
  ~LogCapture() {
    SetLogSinkForTest(nullptr, nullptr);
    SetLogLevel(LogLevel::kError);  // The suite's default (env unset).
  }
};

TEST(Log, LevelGatesEmission) {
  LogCapture capture;
  SetLogLevel(LogLevel::kWarn);
  CORRTRACK_LOG(kInfo, "test", "below the level: %d", 1);
  EXPECT_TRUE(CaptureLines()->empty());
  CORRTRACK_LOG(kWarn, "test", "at the level: %d", 2);
  ASSERT_EQ(CaptureLines()->size(), 1u);
  EXPECT_EQ((*CaptureLines())[0], "[warn test] at the level: 2");
}

TEST(Log, OffSilencesEverything) {
  LogCapture capture;
  SetLogLevel(LogLevel::kOff);
  CORRTRACK_LOG(kError, "test", "never");
  EXPECT_TRUE(CaptureLines()->empty());
}

TEST(Log, SiteAdmitsBurstThenSuppresses) {
  // One refill-window win + kBurst tokens = 9 rapid admissions; the rest
  // are counted, not printed.
  LogSite site;
  int admitted = 0;
  for (int i = 0; i < 20; ++i) {
    if (site.Admit()) ++admitted;
  }
  EXPECT_EQ(admitted, 1 + static_cast<int>(LogSite::kBurst));
  EXPECT_EQ(site.suppressed.load(), 20u - 1u - LogSite::kBurst);
}

TEST(Log, SuppressedCountRidesNextLine) {
  LogCapture capture;
  SetLogLevel(LogLevel::kInfo);
  LogWrite(LogLevel::kInfo, "test", /*suppressed=*/5, "resumed");
  ASSERT_EQ(CaptureLines()->size(), 1u);
  EXPECT_EQ((*CaptureLines())[0], "[info test] resumed (suppressed 5)");
}

}  // namespace
}  // namespace corrtrack::telemetry

// ------------------------------------------------------------ end to end

namespace corrtrack {
namespace {

ops::PipelineConfig DiffPipeline() {
  ops::PipelineConfig pipeline;
  pipeline.algorithm = AlgorithmKind::kDS;
  pipeline.num_calculators = 4;
  pipeline.num_partitioners = 3;
  pipeline.window_span = kMillisPerMinute;
  pipeline.report_period = kMillisPerMinute;
  pipeline.bootstrap_time = kMillisPerMinute;
  return pipeline;
}

gen::GeneratorConfig DiffWorkload() {
  gen::GeneratorConfig generator;
  generator.seed = 4242;
  generator.topics.num_topics = 60;
  return generator;
}

/// Passes a spout's stream through and slips `extra` in after `after`
/// documents, stamped with the time of the document before it.
class InjectingSpout : public stream::Spout<ops::Message> {
 public:
  InjectingSpout(std::unique_ptr<stream::Spout<ops::Message>> inner,
                 uint64_t after, ops::RawTweet extra)
      : inner_(std::move(inner)), after_(after), extra_(std::move(extra)) {}

  bool Next(ops::Message* out, Timestamp* time) override {
    if (seen_ == after_ && !injected_) {
      injected_ = true;
      extra_.time = last_time_;
      *time = last_time_;
      *out = ops::Message(std::move(extra_));
      return true;
    }
    if (!inner_->Next(out, time)) return false;
    ++seen_;
    last_time_ = *time;
    return true;
  }

 private:
  std::unique_ptr<stream::Spout<ops::Message>> inner_;
  uint64_t after_;
  ops::RawTweet extra_;
  uint64_t seen_ = 0;
  Timestamp last_time_ = 0;
  bool injected_ = false;
};

const ops::TrackerBolt* RunTracked(const ops::PipelineConfig& pipeline,
                                   stream::Topology<ops::Message>* topology,
                                   std::unique_ptr<stream::Runtime<ops::Message>>* runtime,
                                   const ops::RawTweet* inject = nullptr) {
  std::unique_ptr<stream::Spout<ops::Message>> spout =
      std::make_unique<ops::GeneratorSpout>(DiffWorkload(), /*num_docs=*/20000);
  if (inject != nullptr) {
    spout = std::make_unique<InjectingSpout>(std::move(spout),
                                             /*after=*/10000, *inject);
  }
  const ops::TopologyHandles handles = ops::BuildCorrelationTopology(
      topology, std::move(spout), pipeline, /*metrics=*/nullptr,
      /*with_centralized_baseline=*/false);
  *runtime = ops::MakeConfiguredRuntime(topology, pipeline);
  (*runtime)->Run(pipeline.report_period);
  return static_cast<const ops::TrackerBolt*>(
      (*runtime)->bolt(handles.tracker, 0));
}

void ExpectSamePeriodMaps(const ops::TrackerBolt& expected,
                          const ops::TrackerBolt& actual) {
  ASSERT_EQ(expected.periods().size(), actual.periods().size());
  ASSERT_GT(expected.periods().size(), 0u);
  auto it_actual = actual.periods().begin();
  for (const auto& [period_end, results_expected] : expected.periods()) {
    EXPECT_EQ(period_end, it_actual->first);
    const auto& results_actual = it_actual->second;
    ASSERT_EQ(results_expected.size(), results_actual.size()) << period_end;
    for (const auto& [tags, estimate] : results_expected) {
      const auto found = results_actual.find(tags);
      ASSERT_NE(found, results_actual.end());
      EXPECT_EQ(found->second.coefficient, estimate.coefficient);
      EXPECT_EQ(found->second.intersection_count, estimate.intersection_count);
      EXPECT_EQ(found->second.union_count, estimate.union_count);
    }
    ++it_actual;
  }
}

TEST(TelemetryDifferential, PeriodMapsIdenticalWithTelemetryOnAndOff) {
  // Telemetry must be a pure observer: the deterministic simulation run
  // with every document traced (sample_every = 1) produces exactly the
  // period maps of the telemetry-off run.
  stream::Topology<ops::Message> topology_off;
  std::unique_ptr<stream::Runtime<ops::Message>> runtime_off;
  const ops::TrackerBolt* tracker_off =
      RunTracked(DiffPipeline(), &topology_off, &runtime_off);

  telemetry::PipelineTelemetry telemetry(/*sample_every=*/1);
  ops::PipelineConfig traced = DiffPipeline();
  traced.telemetry = &telemetry;
  stream::Topology<ops::Message> topology_on;
  std::unique_ptr<stream::Runtime<ops::Message>> runtime_on;
  const ops::TrackerBolt* tracker_on =
      RunTracked(traced, &topology_on, &runtime_on);

  // The traced run actually recorded (the observer was live, not absent).
  EXPECT_GT(telemetry.docs_parsed->value(), 0u);
  EXPECT_EQ(telemetry.docs_sampled->value(), telemetry.docs_parsed->value());
  EXPECT_GT(telemetry.doc_e2e->Snapshot().count, 0u);
  ExpectSamePeriodMaps(*tracker_off, *tracker_on);

  // A hostile tweet mid-stream, with more distinct tags than subset
  // enumeration supports (all of them new), is dropped and counted, and
  // leaves the period maps exactly as they were without it.
  ops::RawTweet hostile;
  hostile.id = 1u << 30;
  for (int t = 0; t <= kMaxTagsPerDocument; ++t) {
    hostile.text += " #hostile" + std::to_string(t);
  }
  telemetry::PipelineTelemetry hostile_telemetry;
  ops::PipelineConfig hostile_run = DiffPipeline();
  hostile_run.telemetry = &hostile_telemetry;
  stream::Topology<ops::Message> topology_hostile;
  std::unique_ptr<stream::Runtime<ops::Message>> runtime_hostile;
  const ops::TrackerBolt* tracker_hostile = RunTracked(
      hostile_run, &topology_hostile, &runtime_hostile, &hostile);
  EXPECT_EQ(hostile_telemetry.docs_rejected_too_many_tags->value(), 1u);
  EXPECT_EQ(hostile_telemetry.docs_parsed->value(),
            telemetry.docs_parsed->value() + 1);
  ExpectSamePeriodMaps(*tracker_off, *tracker_hostile);
}

TEST(TelemetryDriver, ExperimentSurfacesLatencyPercentiles) {
  exp::ExperimentConfig config;
  config.label = "telemetry-smoke";
  config.pipeline = DiffPipeline();
  config.generator = DiffWorkload();
  config.num_documents = 20000;
  config.with_centralized_baseline = false;
  config.with_serve_index = true;
  config.with_telemetry = true;
  config.telemetry_sample_every = 8;
  const exp::ExperimentResult result = exp::RunExperiment(config);

  ASSERT_FALSE(result.latency_stats.empty());
  bool has_stage = false, has_e2e = false, has_serve = false;
  for (const exp::LatencyStat& stat : result.latency_stats) {
    EXPECT_GT(stat.count, 0u);
    EXPECT_GE(stat.p90, stat.p50);
    EXPECT_GE(stat.p99, stat.p90);
    EXPECT_GE(stat.max, stat.p99);
    if (stat.name.rfind("corrtrack_stage_proc_us", 0) == 0) has_stage = true;
    if (stat.name == "corrtrack_doc_e2e_us") has_e2e = true;
    if (stat.name.rfind("corrtrack_serve_query_ns", 0) == 0) has_serve = true;
  }
  EXPECT_TRUE(has_stage);
  EXPECT_TRUE(has_e2e);
  EXPECT_TRUE(has_serve);  // The serve oracle pass ran queries.

  EXPECT_NE(result.telemetry_prometheus.find("# TYPE corrtrack_doc_e2e_us"),
            std::string::npos);
  EXPECT_NE(result.telemetry_json.find("\"corrtrack_docs_parsed_total\""),
            std::string::npos);

  // The differential guarantee holds through the driver too: a telemetry-off
  // run of the same config reports the same accuracy surface.
  exp::ExperimentConfig plain = config;
  plain.with_telemetry = false;
  const exp::ExperimentResult untraced = exp::RunExperiment(plain);
  EXPECT_EQ(untraced.documents, result.documents);
  EXPECT_EQ(untraced.serve_sets, result.serve_sets);
  EXPECT_EQ(untraced.serve_mismatches, result.serve_mismatches);
  EXPECT_TRUE(untraced.latency_stats.empty());
}

}  // namespace
}  // namespace corrtrack
