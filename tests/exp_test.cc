#include <string>

#include <gtest/gtest.h>

#include "exp/driver.h"
#include "exp/metrics.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "ops/messages.h"

namespace corrtrack::exp {
namespace {

TEST(MetricsCollector, CommunicationAccounting) {
  MetricsCollector metrics(4, /*series_stride=*/1000);
  metrics.OnRouted(2, 10);
  metrics.OnRouted(0, 20);  // Found in no calculator: excluded from avg.
  metrics.OnRouted(1, 30);
  EXPECT_EQ(metrics.docs_routed(), 3u);
  EXPECT_EQ(metrics.notified_docs(), 2u);
  EXPECT_EQ(metrics.total_notifications(), 3u);
  EXPECT_DOUBLE_EQ(metrics.AvgCommunication(), 1.5);
}

TEST(MetricsCollector, LoadAccounting) {
  MetricsCollector metrics(3, 1000);
  metrics.OnNotification(0);
  metrics.OnNotification(0);
  metrics.OnNotification(1);
  metrics.OnNotification(2);
  EXPECT_DOUBLE_EQ(metrics.MaxLoadShare(), 0.5);
  EXPECT_GT(metrics.LoadGini(), 0.0);
  EXPECT_EQ(metrics.per_calculator()[0], 2u);
}

TEST(MetricsCollector, RepartitionCausesSplit) {
  MetricsCollector metrics(2, 1000);
  metrics.OnRepartitionRequested(ops::kCauseCommunication, 5);
  metrics.OnRepartitionRequested(ops::kCauseLoad, 6);
  metrics.OnRepartitionRequested(ops::kCauseCommunication | ops::kCauseLoad,
                                 7);
  metrics.OnRepartitionRequested(ops::kCauseCommunication, 8);
  EXPECT_EQ(metrics.CountRepartitions(ops::kCauseCommunication), 2u);
  EXPECT_EQ(metrics.CountRepartitions(ops::kCauseLoad), 1u);
  EXPECT_EQ(metrics.CountRepartitions(
                ops::kCauseCommunication | ops::kCauseLoad),
            1u);
  EXPECT_EQ(metrics.repartitions().size(), 4u);
}

TEST(MetricsCollector, InstallTracking) {
  MetricsCollector metrics(2, 1000);
  EXPECT_FALSE(metrics.any_install());
  metrics.OnPartitionsInstalled(1, 1.0, 0.5, 300);
  metrics.OnPartitionsInstalled(2, 1.1, 0.4, 600);
  EXPECT_TRUE(metrics.any_install());
  EXPECT_EQ(metrics.installs(), 2u);
  EXPECT_EQ(metrics.first_install_time(), 300);
}

TEST(MetricsCollector, SeriesSegmentsAndFlush) {
  MetricsCollector metrics(2, /*series_stride=*/3);
  // Segment 1: three docs, comm 2,1 and one unrouted.
  metrics.OnNotification(0);
  metrics.OnNotification(1);
  metrics.OnRouted(2, 1);
  metrics.OnNotification(0);
  metrics.OnRouted(1, 2);
  metrics.OnRouted(0, 3);
  ASSERT_EQ(metrics.series().size(), 1u);
  const SeriesSample& s = metrics.series()[0];
  EXPECT_EQ(s.docs_processed, 3u);
  EXPECT_DOUBLE_EQ(s.avg_communication, 1.5);
  ASSERT_EQ(s.sorted_loads.size(), 2u);
  EXPECT_DOUBLE_EQ(s.sorted_loads[0], 2.0 / 3.0);  // Sorted descending.
  // Partial segment flushes on demand, once.
  metrics.OnRouted(1, 4);
  metrics.FinishSeries();
  ASSERT_EQ(metrics.series().size(), 2u);
  EXPECT_EQ(metrics.series()[1].docs_processed, 4u);
  metrics.FinishSeries();  // No empty trailing segment.
  EXPECT_EQ(metrics.series().size(), 2u);
}

TEST(MetricsCollector, SeriesCountsRepartitionsPerSegment) {
  MetricsCollector metrics(2, 2);
  metrics.OnRouted(1, 1);
  metrics.OnRepartitionRequested(ops::kCauseLoad, 2);
  metrics.OnRouted(1, 3);
  ASSERT_EQ(metrics.series().size(), 1u);
  EXPECT_EQ(metrics.series()[0].repartitions, 1);
  metrics.OnRouted(1, 4);
  metrics.OnRouted(1, 5);
  ASSERT_EQ(metrics.series().size(), 2u);
  EXPECT_EQ(metrics.series()[1].repartitions, 0);
}

TEST(Report, RenderTableBasics) {
  FigureTable table;
  table.title = "Demo";
  table.fixed_params = "k=10";
  table.column_labels = {"a", "b"};
  table.row_labels = {"DS", "SCL"};
  table.values = {{1.0, 2.5}, {3.25, 4.0}};
  table.precision = 2;
  const std::string out = RenderTable(table);
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("[k=10]"), std::string::npos);
  EXPECT_NE(out.find("DS"), std::string::npos);
  EXPECT_NE(out.find("3.25"), std::string::npos);
  EXPECT_NE(out.find("2.50"), std::string::npos);
}

TEST(Report, RenderSeriesWithMarkers) {
  const std::vector<uint64_t> xs = {10, 20};
  const std::vector<std::vector<double>> rows = {{1.5}, {2.5}};
  const std::vector<int> reps = {0, 2};
  const std::string out =
      RenderSeries("S", {"comm"}, xs, rows, &reps);
  EXPECT_NE(out.find("10"), std::string::npos);
  EXPECT_NE(out.find("||"), std::string::npos);  // Two repartitions.
  EXPECT_NE(out.find("."), std::string::npos);   // Zero marker.
}

TEST(Sweep, PaperBaseConfigMatchesSection82) {
  const ExperimentConfig config = PaperBaseConfig();
  EXPECT_EQ(config.pipeline.num_calculators, 10);
  EXPECT_EQ(config.pipeline.num_partitioners, 10);
  EXPECT_DOUBLE_EQ(config.pipeline.repartition_threshold, 0.5);
  EXPECT_EQ(config.pipeline.single_addition_threshold, 3);
  EXPECT_EQ(config.pipeline.quality_batch_size, 1000);
  EXPECT_EQ(config.pipeline.window_span, 5 * kMillisPerMinute);
  EXPECT_EQ(config.pipeline.report_period, 5 * kMillisPerMinute);
  EXPECT_DOUBLE_EQ(config.generator.tps, 1300.0);
}

TEST(Driver, RunExperimentOnPoolRuntime) {
  // The experiment harness must run on the concurrent substrates too: the
  // collector's hooks are called from several worker threads, and the
  // result carries the substrate's identity and counters.
  ExperimentConfig config;
  config.label = "pool-smoke";
  config.pipeline.num_calculators = 4;
  config.pipeline.num_partitioners = 3;
  config.pipeline.window_span = kMillisPerMinute;
  config.pipeline.report_period = kMillisPerMinute;
  config.pipeline.bootstrap_time = kMillisPerMinute;
  config.pipeline.queue_capacity = 256;
  config.set_runtime(stream::RuntimeKind::kPool, 2);
  // Several virtual minutes past the 1-minute bootstrap, so documents are
  // routed long after the first partitions install.
  config.num_documents = 24000;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_EQ(result.runtime, stream::RuntimeKind::kPool);
  EXPECT_EQ(result.runtime_stats.num_threads, 2);
  EXPECT_GT(result.partitions_installed, 0u);
  EXPECT_GT(result.documents, 0u);
  EXPECT_GT(result.runtime_stats.envelopes_moved, result.documents);
  EXPECT_GT(result.coverage, 0.0);  // The pool tracked real coefficients.
}

TEST(Sweep, SweepPointsMatchPaperGrid) {
  EXPECT_EQ(ThresholdSweep().size(), 2u);
  EXPECT_EQ(PartitionerSweep().size(), 3u);
  EXPECT_EQ(PartitionSweep().size(), 3u);
  EXPECT_EQ(RateSweep().size(), 2u);
  // Each point mutates the right knob.
  ExperimentConfig config = PaperBaseConfig();
  PartitionSweep()[2].apply(&config);
  EXPECT_EQ(config.pipeline.num_calculators, 20);
  RateSweep()[1].apply(&config);
  EXPECT_DOUBLE_EQ(config.generator.tps, 2600.0);
  ThresholdSweep()[0].apply(&config);
  EXPECT_DOUBLE_EQ(config.pipeline.repartition_threshold, 0.2);
  PartitionerSweep()[0].apply(&config);
  EXPECT_EQ(config.pipeline.num_partitioners, 3);
}

TEST(Sweep, MakeFigureTableExtractsMetric) {
  const auto points = ThresholdSweep();
  SweepResults results;
  for (size_t a = 0; a < AllAlgorithms().size(); ++a) {
    std::vector<ExperimentResult> row;
    for (size_t p = 0; p < points.size(); ++p) {
      ExperimentResult r;
      r.avg_communication = static_cast<double>(a * 10 + p);
      row.push_back(r);
    }
    results.push_back(row);
  }
  const FigureTable table = MakeFigureTable(
      "T", "fixed", points, results,
      [](const ExperimentResult& r) { return r.avg_communication; });
  EXPECT_EQ(table.row_labels.size(), 4u);
  EXPECT_EQ(table.row_labels[0], "DS");
  EXPECT_DOUBLE_EQ(table.values[2][1], 21.0);
}

TEST(Sweep, DescribeBase) {
  const ExperimentConfig config = PaperBaseConfig();
  EXPECT_EQ(DescribeBase(config), "P=10 k=10 thr=0.5 tps=1300");
}

TEST(Driver, ServeIndexValidatesAgainstTracker) {
  // The driver can stand up the serving layer next to the topology and
  // prove the served answers match its own ExperimentResult baseline: the
  // ingest adapter leaves zero mismatches against the Tracker's maps. The
  // replicating algorithms make several Calculators report a tagset in one
  // period, so the Tracker's max-CN merge decides what is served.
  for (const AlgorithmKind algorithm :
       {AlgorithmKind::kDS, AlgorithmKind::kSCC, AlgorithmKind::kSCL,
        AlgorithmKind::kSCI}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    ExperimentConfig config;
    config.label = "serve-validation";
    config.pipeline.algorithm = algorithm;
    config.pipeline.num_calculators = 4;
    config.pipeline.num_partitioners = 3;
    config.pipeline.window_span = kMillisPerMinute;
    config.pipeline.report_period = kMillisPerMinute;
    config.pipeline.bootstrap_time = kMillisPerMinute;
    config.generator.seed = 11;
    config.generator.topics.num_topics = 60;
    config.num_documents = 12000;
    config.with_serve_index = true;
    const ExperimentResult result = RunExperiment(config);
    EXPECT_GT(result.serve_sets, 0u);
    EXPECT_GT(result.serve_lookups_checked, result.serve_sets);
    EXPECT_EQ(result.serve_mismatches, 0u);
  }
}

}  // namespace
}  // namespace corrtrack::exp
