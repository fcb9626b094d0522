// Micro-benchmarks of the per-document hot path: subset counting
// (Calculator), routing through the tag -> partition index (Disseminator),
// inclusion-exclusion reporting, hashtag parsing (tokenizer alone and the
// Parser bolt's whole per-document step), and partition-quality evaluation.

#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include "core/cooccurrence.h"
#include "core/jaccard.h"
#include "core/partition.h"
#include "core/partitioning.h"
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
BENCHMARK(BM_DisseminatorRoute)
    ->Arg(static_cast<int>(AlgorithmKind::kDS))
    ->Arg(static_cast<int>(AlgorithmKind::kSCL));
BENCHMARK(BM_ParserExtract);
BENCHMARK(BM_ParserExecute);
BENCHMARK(BM_EvaluatePartitionQuality)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GeneratorNext);

CORRTRACK_BENCHMARK_MAIN();
