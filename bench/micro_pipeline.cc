// Micro-benchmarks of the per-document hot path: subset counting
// (Calculator), routing through the tag -> partition index (Disseminator),
// Calculator reporting (the lattice pass against per-set inclusion-exclusion
// from the public API, on generated and hostile tables, and whole
// observe/report/reset periods on one reused table), the Tracker's retained
// period maps (bytes and merge cost per estimate), hashtag parsing
// (tokenizer alone and the Parser bolt's whole per-document step), and
// partition-quality evaluation.


#include <algorithm>
#include <chrono>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include "core/cooccurrence.h"
#include "core/jaccard.h"
#include "core/partition.h"
#include "core/partitioning.h"
#include "core/period_table.h"
#include "gen/tweet_generator.h"
#include "ops/parser.h"

namespace {

using namespace corrtrack;

std::vector<Document> MakeDocs(int n) {
  gen::GeneratorConfig config;
  config.seed = 77;
  gen::TweetGenerator generator(config);
  std::vector<Document> docs;
  docs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) docs.push_back(generator.Next());
  return docs;
}

void BM_CalculatorObserve(benchmark::State& state) {
  const auto docs = MakeDocs(20000);
  for (auto _ : state) {
    SubsetCounterTable table;
    for (const Document& doc : docs) table.Observe(doc.tags);
    benchmark::DoNotOptimize(table.num_counters());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(docs.size()));
}

void BM_CalculatorReportAll(benchmark::State& state) {
  const auto docs = MakeDocs(20000);
  SubsetCounterTable table;
  for (const Document& doc : docs) table.Observe(doc.tags);
  for (auto _ : state) {
    auto estimates = table.ReportAll();
    benchmark::DoNotOptimize(estimates.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.num_counters()));
}

/// The reporting path before the lattice pass, from the public API alone:
/// Eq. 2 by Compute for every counter of two or more tags, then a sort by
/// tagset. The in-binary baseline for BM_CalculatorReportAll.
std::vector<JaccardEstimate> ComputeEach(const SubsetCounterTable& table) {
  std::vector<JaccardEstimate> out;
  for (const auto& [tags, count] : table.ExportCounters()) {
    if (tags.size() < 2) continue;
    out.push_back(*table.Compute(tags));
  }
  std::sort(out.begin(), out.end(),
            [](const JaccardEstimate& a, const JaccardEstimate& b) {
              return a.tags < b.tags;
            });
  return out;
}

void BM_CalculatorComputeEach(benchmark::State& state) {
  const auto docs = MakeDocs(20000);
  SubsetCounterTable table;
  for (const Document& doc : docs) table.Observe(doc.tags);
  for (auto _ : state) {
    auto estimates = ComputeEach(table);
    benchmark::DoNotOptimize(estimates.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.num_counters()));
}

/// Hostile shape: 5,000 documents of k tags, the tag at position i drawn
/// from its own pool of 200 ids, so almost every k-set is new and each
/// document brings up to 2^k − 1 fresh counters.
std::vector<TagSet> HostileDocs(int k) {
  std::mt19937 rng(91);
  std::uniform_int_distribution<TagId> pick(0, 199);
  std::vector<TagSet> docs;
  std::vector<TagId> tags(static_cast<size_t>(k));
  for (int doc = 0; doc < 5000; ++doc) {
    for (int i = 0; i < k; ++i) {
      tags[static_cast<size_t>(i)] = static_cast<TagId>(i) * 200 + pick(rng);
    }
    docs.push_back(TagSet(tags));
  }
  return docs;
}

SubsetCounterTable HostileTable(int k) {
  SubsetCounterTable table;
  for (const TagSet& tags : HostileDocs(k)) table.Observe(tags);
  return table;
}

/// One Calculator's reporting period, period after period: the same table
/// counts the period's notifications, reports and resets, so every
/// iteration after the untimed first runs on the capacity and report
/// scratch the earlier periods left. Arg 0 is the clean shape, sized like
/// one replay_track Calculator period (800 generated documents, about
/// 2.3k counters); arg k > 0 the hostile shape above.
void BM_CalculatorPeriod(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  std::vector<TagSet> period;
  if (k == 0) {
    for (const Document& doc : MakeDocs(800)) period.push_back(doc.tags);
  } else {
    period = HostileDocs(k);
  }
  SubsetCounterTable table;
  const auto run_period = [&] {
    for (const TagSet& tags : period) table.Observe(tags);
    const size_t counters = table.num_counters();
    auto estimates = table.ReportAll();
    benchmark::DoNotOptimize(estimates.data());
    table.Reset();
    return counters;
  };
  const size_t counters = run_period();
  for (auto _ : state) run_period();
  state.counters["counters"] = static_cast<double>(counters);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(period.size()));
}

void BM_CalculatorReportAllHostile(benchmark::State& state) {
  const SubsetCounterTable table =
      HostileTable(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto estimates = table.ReportAll();
    benchmark::DoNotOptimize(estimates.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.num_counters()));
}

void BM_CalculatorComputeEachHostile(benchmark::State& state) {
  const SubsetCounterTable table =
      HostileTable(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto estimates = ComputeEach(table);
    benchmark::DoNotOptimize(estimates.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.num_counters()));
}

/// Calculator reports of 25 periods, 5 per period, each the ReportAll of
/// one Calculator's period of 800 generated documents (the clean shape of
/// BM_CalculatorPeriod/0); the 5 Calculators of a period count different
/// documents, so common tagsets recur across a period's reports.
const std::vector<std::vector<JaccardEstimate>>& RetainReports() {
  static const auto* reports = [] {
    constexpr int kPeriods = 25;
    constexpr int kCalculators = 5;
    constexpr int kDocs = 800;
    const auto docs = MakeDocs(kPeriods * kCalculators * kDocs);
    auto* out = new std::vector<std::vector<JaccardEstimate>>();
    SubsetCounterTable table;
    for (int r = 0; r < kPeriods * kCalculators; ++r) {
      for (int d = 0; d < kDocs; ++d) table.Observe(docs[r * kDocs + d].tags);
      out->push_back(table.ReportAll());
      table.Reset();
    }
    return out;
  }();
  return *reports;
}

/// The Tracker's retained period maps: every period's 5 reports merged by
/// max-CN into one map per period, all 25 periods kept. Arg 0 is the
/// FlatTagSetMap<JaccardEstimate> the Tracker used before (the tagset held
/// as key and again in the value), arg 1 the PeriodTable it uses now.
/// bytes_per_estimate is the allocator's growth while the maps are alive
/// over the estimates they retain; merge_ns_per_estimate the build time
/// over the reported estimates; first_report_us the mean merge of a
/// period's first report, which a sink of that report waits on.
void BM_TrackerRetain(benchmark::State& state) {
  constexpr size_t kReportsPerPeriod = 5;
  const bool compact = state.range(0) == 1;
  const std::vector<std::vector<JaccardEstimate>>& reports = RetainReports();
  size_t reported = 0;
  for (const auto& report : reports) reported += report.size();
  // PeriodTable::Merge compacts each report it merges, so every iteration
  // merges a fresh copy, made while the timer is paused.
  std::vector<std::vector<JaccardEstimate>> batch = reports;
  size_t retained = 0;
  size_t bytes = 0;
  double merge_ns = 0.0;
  double first_report_ns = 0.0;
  for (auto _ : state) {
    const size_t before = AllocatedBytes();
    const auto start = std::chrono::steady_clock::now();
    std::map<Timestamp, FlatTagSetMap<JaccardEstimate>> maps;
    std::map<Timestamp, PeriodTable> tables;
    for (size_t r = 0; r < batch.size(); ++r) {
      const auto period_end = static_cast<Timestamp>(r / kReportsPerPeriod);
      const bool first = r % kReportsPerPeriod == 0;
      const auto report_start = std::chrono::steady_clock::now();
      if (compact) {
        tables[period_end].Merge(&batch[r], EstimateMerge::kMaxCN);
      } else {
        FlatTagSetMap<JaccardEstimate>& map = maps[period_end];
        for (const JaccardEstimate& e : batch[r]) {
          auto [it, inserted] = map.emplace(e.tags, e);
          if (!inserted) MergeEstimate(&it->second, e, EstimateMerge::kMaxCN);
        }
      }
      if (first) {
        first_report_ns += std::chrono::duration<double, std::nano>(
                               std::chrono::steady_clock::now() - report_start)
                               .count();
      }
    }
    merge_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    state.PauseTiming();
    bytes = AllocatedBytes() - before;
    retained = 0;
    for (const auto& [period_end, map] : maps) retained += map.size();
    for (const auto& [period_end, table] : tables) retained += table.size();
    benchmark::DoNotOptimize(retained);
    maps.clear();
    tables.clear();
    batch = reports;
    state.ResumeTiming();
  }
  const double periods = static_cast<double>(
      state.iterations() * (reports.size() / kReportsPerPeriod));
  state.counters["retained"] = static_cast<double>(retained);
  state.counters["bytes_per_estimate"] =
      static_cast<double>(bytes) / static_cast<double>(retained);
  state.counters["merge_ns_per_estimate"] =
      merge_ns / static_cast<double>(state.iterations() * reported);
  state.counters["first_report_us"] = first_report_ns / periods / 1000.0;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reported));
}

void BM_DisseminatorRoute(benchmark::State& state) {
  const auto docs = MakeDocs(20000);
  const auto snapshot =
      CooccurrenceSnapshot::FromDocuments(docs.begin(), docs.end());
  const auto algorithm =
      MakeAlgorithm(static_cast<AlgorithmKind>(state.range(0)));
  const PartitionSet ps = algorithm->CreatePartitions(snapshot, 10, 7);
  std::vector<RoutedSubset> routed;
  size_t i = 0;
  for (auto _ : state) {
    const int n = ps.Route(docs[i].tags, &routed);
    benchmark::DoNotOptimize(n);
    i = (i + 1) % docs.size();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ParserExtract(benchmark::State& state) {
  const auto docs = MakeDocs(5000);
  std::vector<std::string> texts;
  texts.reserve(docs.size());
  for (const Document& doc : docs) {
    texts.push_back(gen::TweetGenerator::RenderText(doc));
  }
  ops::ParserBolt parser;
  size_t i = 0;
  for (auto _ : state) {
    auto tags = parser.ExtractTags(texts[i]);
    benchmark::DoNotOptimize(tags.size());
    i = (i + 1) % texts.size();
  }
  state.SetItemsProcessed(state.iterations());
}

/// Drops every emission: BM_ParserExecute measures the bolt, not a queue.
class NullEmitter : public stream::Emitter<ops::Message> {
 public:
  void Emit(ops::Message msg) override { benchmark::DoNotOptimize(msg); }
  void EmitDirect(int, ops::Message msg) override {
    benchmark::DoNotOptimize(msg);
  }
  Timestamp now() const override { return 0; }
};

void BM_ParserExecute(benchmark::State& state) {
  const auto docs = MakeDocs(5000);
  std::vector<stream::Envelope<ops::Message>> envelopes(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    ops::RawTweet raw;
    raw.id = docs[i].id;
    raw.time = docs[i].time;
    raw.text = gen::TweetGenerator::RenderText(docs[i]);
    envelopes[i].set_payload(ops::Message(std::move(raw)));
  }
  ops::ParserBolt parser;
  NullEmitter emitter;
  size_t i = 0;
  for (auto _ : state) {
    parser.Execute(envelopes[i], emitter);
    i = (i + 1) % envelopes.size();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_EvaluatePartitionQuality(benchmark::State& state) {
  const auto docs = MakeDocs(20000);
  const auto snapshot =
      CooccurrenceSnapshot::FromDocuments(docs.begin(), docs.end());
  const PartitionSet ps =
      MakeAlgorithm(AlgorithmKind::kSCL)->CreatePartitions(snapshot, 10, 7);
  for (auto _ : state) {
    const PartitionQuality q = EvaluatePartitionQuality(snapshot, ps);
    benchmark::DoNotOptimize(q.avg_communication);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(snapshot.tagsets().size()));
}

void BM_GeneratorNext(benchmark::State& state) {
  gen::GeneratorConfig config;
  config.seed = 5;
  gen::TweetGenerator generator(config);
  for (auto _ : state) {
    Document doc = generator.Next();
    benchmark::DoNotOptimize(doc.id);
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

BENCHMARK(BM_CalculatorObserve)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CalculatorReportAll)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CalculatorComputeEach)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CalculatorPeriod)->Arg(0)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CalculatorPeriod)
    ->Arg(8)
    ->Iterations(3)
    ->Repetitions(3)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMillisecond);
// One iteration per repetition (at k = 10 the table holds about 5M
// counters); the median of three keeps a single slow run from deciding
// the A/B.
BENCHMARK(BM_CalculatorReportAllHostile)
    ->Arg(6)
    ->Arg(8)
    ->Arg(10)
    ->Iterations(1)
    ->Repetitions(3)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMillisecond);
// The baseline stops at k = 8: at k = 10 it takes about 85 s.
BENCHMARK(BM_CalculatorComputeEachHostile)
    ->Arg(6)
    ->Arg(8)
    ->Iterations(1)
    ->Repetitions(3)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrackerRetain)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DisseminatorRoute)
    ->Arg(static_cast<int>(AlgorithmKind::kDS))
    ->Arg(static_cast<int>(AlgorithmKind::kSCL));
BENCHMARK(BM_ParserExtract);
BENCHMARK(BM_ParserExecute);
BENCHMARK(BM_EvaluatePartitionQuality)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GeneratorNext);

CORRTRACK_BENCHMARK_MAIN();
