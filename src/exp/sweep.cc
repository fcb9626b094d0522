#include "exp/sweep.h"

#include <cstdlib>
#include <future>

#include "core/check.h"
#include "core/partitioning.h"

namespace corrtrack::exp {

ExperimentConfig PaperBaseConfig() {
  ExperimentConfig config;
  config.pipeline.num_calculators = 10;
  config.pipeline.num_partitioners = 10;
  config.pipeline.repartition_threshold = 0.5;
  config.pipeline.single_addition_threshold = 3;
  config.pipeline.quality_batch_size = 1000;
  config.pipeline.window_span = 5 * kMillisPerMinute;
  config.pipeline.report_period = 5 * kMillisPerMinute;
  config.pipeline.bootstrap_time = 5 * kMillisPerMinute;
  config.generator.tps = 1300.0;
  config.num_documents = 140000;
  if (const char* docs = std::getenv("CORRTRACK_DOCS")) {
    const uint64_t n = std::strtoull(docs, nullptr, 10);
    if (n > 0) config.num_documents = n;
  }
  return config;
}

std::vector<SweepPoint> ThresholdSweep() {
  std::vector<SweepPoint> points;
  for (double thr : {0.2, 0.5}) {
    points.push_back({"thr=" + std::to_string(thr).substr(0, 3),
                      [thr](ExperimentConfig* c) {
                        c->pipeline.repartition_threshold = thr;
                      }});
  }
  return points;
}

std::vector<SweepPoint> PartitionerSweep() {
  std::vector<SweepPoint> points;
  for (int p : {3, 5, 10}) {
    points.push_back({"P=" + std::to_string(p), [p](ExperimentConfig* c) {
                        c->pipeline.num_partitioners = p;
                      }});
  }
  return points;
}

std::vector<SweepPoint> PartitionSweep() {
  std::vector<SweepPoint> points;
  for (int k : {5, 10, 20}) {
    points.push_back({"k=" + std::to_string(k), [k](ExperimentConfig* c) {
                        c->pipeline.num_calculators = k;
                      }});
  }
  return points;
}

std::vector<SweepPoint> RateSweep() {
  std::vector<SweepPoint> points;
  for (int tps : {1300, 2600}) {
    points.push_back(
        {"tps=" + std::to_string(tps),
         [tps](ExperimentConfig* c) { c->set_tps(tps); }});
  }
  return points;
}

SweepResults RunSweep(const std::vector<SweepPoint>& points,
                      const ExperimentConfig& base) {
  // Every run is an independent, internally deterministic single-threaded
  // simulation; fan them out across cores.
  const std::vector<AlgorithmKind> algorithms = AllAlgorithms();
  std::vector<std::future<ExperimentResult>> futures;
  for (AlgorithmKind kind : algorithms) {
    for (const SweepPoint& point : points) {
      ExperimentConfig config = base;
      config.pipeline.algorithm = kind;
      point.apply(&config);
      config.label =
          std::string(AlgorithmName(kind)) + " " + point.column_label;
      futures.push_back(std::async(
          std::launch::async,
          [config = std::move(config)] { return RunExperiment(config); }));
    }
  }
  SweepResults results;
  size_t next = 0;
  for (size_t a = 0; a < algorithms.size(); ++a) {
    std::vector<ExperimentResult> row;
    for (size_t p = 0; p < points.size(); ++p) {
      row.push_back(futures[next++].get());
    }
    results.push_back(std::move(row));
  }
  return results;
}

FigureTable MakeFigureTable(
    const std::string& title, const std::string& fixed_params,
    const std::vector<SweepPoint>& points, const SweepResults& results,
    const std::function<double(const ExperimentResult&)>& metric,
    int precision) {
  FigureTable table;
  table.title = title;
  table.fixed_params = fixed_params;
  table.precision = precision;
  for (const SweepPoint& point : points) {
    table.column_labels.push_back(point.column_label);
  }
  const std::vector<AlgorithmKind> algorithms = AllAlgorithms();
  CORRTRACK_CHECK_EQ(algorithms.size(), results.size());
  for (size_t a = 0; a < algorithms.size(); ++a) {
    table.row_labels.emplace_back(AlgorithmName(algorithms[a]));
    std::vector<double> row;
    for (const ExperimentResult& result : results[a]) {
      row.push_back(metric(result));
    }
    table.values.push_back(std::move(row));
  }
  return table;
}

}  // namespace corrtrack::exp
