// Durable record formats. Every checkpoint section, the serve blob and the
// manifest keep their exact bytes (pinned by CRC-32C below, so a layout
// change shows up here and not as a failed restore of an old checkpoint),
// and a CRC-valid record that carries an impossible count or name is
// refused, never fatal: restore reads bytes it did not write.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/jaccard.h"
#include "core/tagset.h"
#include "gen/tweet_generator.h"
#include "ops/checkpoint_runner.h"
#include "ops/checkpoint_state.h"
#include "ops/pipeline_checkpoint.h"
#include "ops/source.h"
#include "ops/tracker_op.h"
#include "serve/correlation_index.h"
#include "storage/checkpoint.h"
#include "storage/crc32c.h"
#include "storage/serialize.h"
#include "storage/status.h"
#include "storage/storage.h"

namespace corrtrack {
namespace {

using storage::ByteWriter;
using storage::Crc32c;

constexpr uint64_t kHuge = uint64_t{1} << 60;

std::shared_ptr<storage::Storage> Mem() {
  return std::shared_ptr<storage::Storage>(storage::MemoryStorage::Global(),
                                           [](storage::Storage*) {});
}

JaccardEstimate Estimate(std::vector<TagId> tags, double coefficient,
                         uint64_t intersection, uint64_t unioned) {
  JaccardEstimate e;
  e.tags = TagSet(tags);
  e.coefficient = coefficient;
  e.intersection_count = intersection;
  e.union_count = unioned;
  return e;
}

std::string ServeBlob() {
  serve::ServeConfig config;
  config.num_shards = 2;
  serve::CorrelationIndex index(config);
  index.ApplyPeriod(60000, {Estimate({1, 2}, 0.5, 5, 10),
                            Estimate({1, 2, 3}, 0.25, 2, 8),
                            Estimate({4, 9}, 0.9, 9, 10)});
  index.ApplyPeriod(120000, {Estimate({1, 2}, 0.75, 6, 8),
                             Estimate({7, 8}, 1.0 / 3.0, 1, 3)});
  std::string blob;
  index.ExportState(&blob);
  return blob;
}

/// One state that exercises every record kind and every field codec.
ops::PipelineCheckpointState PinnedState() {
  ops::PipelineCheckpointState state;
  state.docs_ingested = 123456;
  state.last_time = 987654;
  state.epoch = 5;
  state.live_calculators = 3;
  state.max_calculators = 4;
  state.clean_cut = false;
  for (const int instance : {0, 3}) {
    ops::CalculatorState cs;
    cs.instance = instance;
    cs.epoch = 5;
    cs.quiesces = static_cast<uint64_t>(instance) + 1;
    cs.counters.emplace_back(TagSet({3, 9}), 17u + instance);
    cs.counters.emplace_back(TagSet({1, 3, 9}), 4u);
    cs.counters.emplace_back(TagSet({2}), 40u);
    state.calculators.push_back(std::move(cs));
  }
  {
    ops::PartitionerState ps;
    ps.instance = 1;
    ps.last_token = 7;
    ps.answered_any = true;
    for (uint64_t id : {77u, 78u}) {
      Document doc;
      doc.id = id;
      doc.time = static_cast<Timestamp>(id * 1000);
      doc.tags = TagSet({1, static_cast<TagId>(id)});
      ps.window.push_back(doc);
    }
    state.partitioners.push_back(std::move(ps));
  }
  state.parser.tags = {"earthquake", "sanfrancisco", "", "breaking"};
  state.tracker.reports_received = 9;
  state.tracker.latest_epoch = 5;
  state.tracker.periods[60000] = {Estimate({3, 9}, 0.625, 5, 8),
                                  Estimate({1, 2, 3}, 0.1, 1, 10)};
  state.tracker.periods[120000] = {Estimate({4, 5}, 1.0, 3, 3)};
  ops::DisseminatorState& d = state.disseminator;
  d.has_partitions = true;
  d.partitions.partition_tags = {{1, 2}, {3, 9, 11}, {}};
  d.partitions.loads = {10, 20, 0};
  d.epoch = 5;
  d.ref_avg_com = 1.75;
  d.ref_max_load = 0.1;
  d.bootstrap_requested = true;
  d.repartition_pending = true;
  d.next_token = 6;
  d.repartitions_requested = 2;
  d.shrinks = 1;
  d.handoffs_routed = 3;
  d.handoff_entries_dropped = 4;
  d.cooldown_remaining = -2;
  d.docs_seen = 123456;
  d.next_forced = 200000;
  d.batch_count = 8;
  d.batch_notifications = 31;
  d.batch_per_calculator = {10, 11, 10};
  d.uncovered_counts.emplace_back(TagSet({5, 6}), -1);
  d.uncovered_counts.emplace_back(TagSet({5, 7, 8}), 2);
  state.merger.has_master = true;
  state.merger.master = d.partitions;
  state.merger.master.loads = {12, 22, 1};
  state.merger.epoch = 5;
  state.merger.single_additions = 6;
  state.merger.grows = 1;
  state.merger.had_pending_rounds = true;
  state.has_centralized = true;
  state.centralized.counters.emplace_back(TagSet({1, 2}), 5u);
  state.centralized.periods[60000] = {Estimate({1, 2}, 0.5, 5, 10)};
  state.serve_blob = ServeBlob();
  return state;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::unique_ptr<storage::WritableFile> file;
  ASSERT_TRUE(Mem()->NewWritableFile(path, &file).ok());
  ASSERT_TRUE(file->Append(bytes).ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Close().ok());
}

constexpr uint64_t kPinnedSeq = 7;
constexpr uint64_t kPinnedFingerprint = 0xABCDEF0123456789ull;

TEST(CheckpointFormat, BytesArePinned) {
  const storage::CheckpointData data =
      ops::EncodeCheckpoint(PinnedState(), kPinnedSeq, kPinnedFingerprint);
  // {size, CRC-32C} of every section payload; the "serve" section is the
  // serve blob verbatim.
  const std::map<std::string, std::pair<size_t, uint32_t>> expected = {
      {"calc_0000", {88, 0xe2116677}}, {"calc_0003", {88, 0x59e6edbf}},
      {"central", {88, 0x0aa8a21f}},   {"dissem", {267, 0x762493c8}},
      {"merger", {106, 0x5d1dc5f5}},   {"parser", {70, 0xcec1c084}},
      {"part_0001", {77, 0xd75c88ab}}, {"serve", {376, 0x45def5b1}},
      {"tracker", {164, 0x79fa26dc}},
  };
  std::map<std::string, std::pair<size_t, uint32_t>> got;
  for (const storage::CheckpointSection& section : data.sections) {
    got[section.name] = {section.payload.size(), Crc32c::Of(section.payload)};
  }
  EXPECT_EQ(got, expected);

  // The manifest: header plus chunk table plus its own CRC tail.
  storage::MemoryStorage::Global()->Clear();
  ASSERT_TRUE(storage::CheckpointWriter(Mem(), "/pinned").Write(data).ok());
  std::string manifest;
  ASSERT_TRUE(Mem()
                  ->ReadFile(storage::JoinPath(
                                 storage::JoinPath(
                                     "/pinned",
                                     storage::CheckpointDirName(kPinnedSeq)),
                                 "MANIFEST"),
                             &manifest)
                  .ok());
  EXPECT_EQ(manifest.size(), 305u);
  EXPECT_EQ(Crc32c::Of(manifest), 0x48674bc7u);
}

TEST(CheckpointFormat, DecodeThenEncodeIsIdentity) {
  const storage::CheckpointData data =
      ops::EncodeCheckpoint(PinnedState(), kPinnedSeq, kPinnedFingerprint);
  ops::PipelineCheckpointState decoded;
  ASSERT_TRUE(ops::DecodeCheckpoint(data, &decoded));
  const storage::CheckpointData again =
      ops::EncodeCheckpoint(decoded, kPinnedSeq, kPinnedFingerprint);
  ASSERT_EQ(again.sections.size(), data.sections.size());
  for (size_t i = 0; i < data.sections.size(); ++i) {
    EXPECT_EQ(again.sections[i].name, data.sections[i].name);
    EXPECT_EQ(again.sections[i].payload, data.sections[i].payload)
        << data.sections[i].name;
  }
  EXPECT_EQ(decoded.disseminator.cooldown_remaining, -2);
  EXPECT_EQ(decoded.disseminator.uncovered_counts[0].second, -1);

  serve::ServeConfig config;
  config.num_shards = 2;
  serve::CorrelationIndex index(config);
  ASSERT_TRUE(index.RestoreState(decoded.serve_blob));
  std::string blob;
  index.ExportState(&blob);
  EXPECT_EQ(blob, data.sections.back().payload);

  storage::MemoryStorage::Global()->Clear();
  ASSERT_TRUE(storage::CheckpointWriter(Mem(), "/again").Write(data).ok());
  storage::CheckpointData loaded;
  ASSERT_TRUE(storage::CheckpointReader(Mem(), "/again")
                  .Read(kPinnedSeq, &loaded)
                  .ok());
  EXPECT_EQ(loaded.seq, kPinnedSeq);
  EXPECT_EQ(loaded.config_fingerprint, kPinnedFingerprint);
  EXPECT_EQ(loaded.live_calculators, 3);
  EXPECT_FALSE(loaded.clean_cut);
  ASSERT_EQ(loaded.sections.size(), data.sections.size());
  for (size_t i = 0; i < data.sections.size(); ++i) {
    EXPECT_EQ(loaded.sections[i].name, data.sections[i].name);
    EXPECT_EQ(loaded.sections[i].payload, data.sections[i].payload);
  }
}

TEST(CheckpointFormat, InsertionOrderTrackerSectionRestoresSorted) {
  // The pinned tracker section lists {3,9} before {1,2,3}: the insertion
  // order Trackers once exported. Decoded and restored under either merge
  // rule, it gives the same period map, entry for entry and bit for bit,
  // as the same estimates in tagset order, and it exports in tagset order.
  const storage::CheckpointData data =
      ops::EncodeCheckpoint(PinnedState(), kPinnedSeq, kPinnedFingerprint);
  ops::PipelineCheckpointState decoded;
  ASSERT_TRUE(ops::DecodeCheckpoint(data, &decoded));
  ASSERT_TRUE(ops::CheckPeriodSections(decoded));
  const std::vector<JaccardEstimate>& insertion =
      decoded.tracker.periods.at(60000);
  ASSERT_EQ(insertion[0].tags, TagSet({3, 9}));
  ops::TrackerState sorted = decoded.tracker;
  for (auto& [period_end, estimates] : sorted.periods) {
    std::sort(estimates.begin(), estimates.end(),
              [](const JaccardEstimate& a, const JaccardEstimate& b) {
                return a.tags < b.tags;
              });
  }
  const auto bits = [](const JaccardEstimate& e) {
    return std::make_tuple(e.tags.ToString(), e.intersection_count,
                           e.union_count,
                           std::bit_cast<uint64_t>(e.coefficient));
  };
  for (const EstimateMerge policy :
       {EstimateMerge::kMaxCN, EstimateMerge::kAdditive}) {
    ops::TrackerBolt from_insertion(/*sink=*/nullptr, policy);
    ops::TrackerBolt from_sorted(/*sink=*/nullptr, policy);
    from_insertion.RestoreState(decoded.tracker);
    from_sorted.RestoreState(sorted);
    ASSERT_EQ(from_insertion.periods().size(), from_sorted.periods().size());
    auto want_period = from_sorted.periods().begin();
    for (const auto& [period_end, results] : from_insertion.periods()) {
      ASSERT_EQ(period_end, want_period->first);
      ASSERT_EQ(results.size(), want_period->second.size());
      auto want = want_period->second.begin();
      for (const auto& [tags, estimate] : results) {
        EXPECT_EQ(tags, want->first);
        EXPECT_EQ(bits(estimate), bits(want->second));
        ++want;
      }
      ++want_period;
    }
    ops::TrackerState exported;
    from_insertion.ExportState(&exported);
    ASSERT_EQ(exported.periods.size(), sorted.periods.size());
    for (const auto& [period_end, estimates] : sorted.periods) {
      const std::vector<JaccardEstimate>& got = exported.periods.at(period_end);
      ASSERT_EQ(got.size(), estimates.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(bits(got[i]), bits(estimates[i]));
      }
    }
  }
}

TEST(CheckpointFormat, TrailingBytesAreRefused) {
  // Every record ends at its last field: one byte more is refused, as each
  // checkpoint section decoder refuses it.
  serve::ServeConfig config;
  config.num_shards = 2;
  serve::CorrelationIndex index(config);
  const std::string blob = ServeBlob();
  EXPECT_FALSE(index.RestoreState(blob + '\0'));
  EXPECT_TRUE(index.RestoreState(blob));

  // The manifest gets a fresh CRC over body plus byte, so only the field
  // check can refuse it.
  storage::MemoryStorage::Global()->Clear();
  const storage::CheckpointData data =
      ops::EncodeCheckpoint(PinnedState(), kPinnedSeq, kPinnedFingerprint);
  ASSERT_TRUE(storage::CheckpointWriter(Mem(), "/trail").Write(data).ok());
  const std::string manifest_path = storage::JoinPath(
      storage::JoinPath("/trail", storage::CheckpointDirName(kPinnedSeq)),
      "MANIFEST");
  std::string manifest;
  ASSERT_TRUE(Mem()->ReadFile(manifest_path, &manifest).ok());
  storage::CheckpointData loaded;
  ASSERT_TRUE(storage::CheckpointReader(Mem(), "/trail")
                  .Read(kPinnedSeq, &loaded)
                  .ok());
  std::string body = manifest.substr(0, manifest.size() - sizeof(uint32_t));
  body.push_back('\0');
  ByteWriter tail;
  tail.PutU32(Crc32c::Of(body));
  ASSERT_TRUE(Mem()->DeleteFile(manifest_path).ok());
  WriteFile(manifest_path, body + tail.str());
  EXPECT_EQ(storage::CheckpointReader(Mem(), "/trail")
                .Read(kPinnedSeq, &loaded)
                .code(),
            storage::StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Refusals. Each payload below is written field by field in its section's
// layout and stops at a count of 2^60; a decoder that trusted the count
// would ask the allocator for it and die with std::length_error.

/// A checkpoint holding the usual sections plus `name`'s payload (replacing
/// a section of that name if the empty state already has one).
storage::CheckpointData WithSection(const std::string& name,
                                    std::string payload) {
  ops::PipelineCheckpointState empty;
  empty.has_centralized = true;
  storage::CheckpointData data =
      ops::EncodeCheckpoint(empty, /*seq=*/1, /*fingerprint=*/0);
  for (storage::CheckpointSection& section : data.sections) {
    if (section.name == name) {
      section.payload = std::move(payload);
      return data;
    }
  }
  data.sections.push_back({name, std::move(payload)});
  return data;
}

TEST(CheckpointFormat, OversizedSectionCountsAreRefusedNotFatal) {
  std::map<std::string, ByteWriter> cases;
  {
    ByteWriter& w = cases["calc_0000"];
    w.PutI64(0);      // instance
    w.PutU32(0);      // epoch
    w.PutU64(0);      // quiesces
    w.PutU64(kHuge);  // counters
  }
  {
    ByteWriter& w = cases["part_0000"];
    w.PutI64(0);      // instance
    w.PutU32(0);      // last_token
    w.PutU8(0);       // answered_any
    w.PutU64(kHuge);  // window
  }
  cases["parser"].PutU64(kHuge);  // names
  {
    ByteWriter& w = cases["tracker"];
    w.PutU64(0);      // reports_received
    w.PutU32(0);      // latest_epoch
    w.PutU64(1);      // one period
    w.PutI64(60000);  // period end
    w.PutU64(kHuge);  // estimates
  }
  {
    ByteWriter& w = cases["dissem"];
    w.PutU8(1);       // has_partitions
    w.PutU64(kHuge);  // partitions
  }
  {
    ByteWriter& w = cases["merger"];
    w.PutU8(1);       // has_master
    w.PutU64(1);      // one partition
    w.PutU64(kHuge);  // its tags
  }
  cases["central"].PutU64(kHuge);  // counters
  for (auto& [name, writer] : cases) {
    ops::PipelineCheckpointState out;
    EXPECT_FALSE(ops::DecodeCheckpoint(WithSection(name, writer.Take()), &out))
        << name;
  }
}

TEST(CheckpointFormat, CountersNoStreamProducesAreRefused) {
  // A CRC-valid calculator section that decodes, but whose counters no
  // document stream produces: {1,2} counted five times, {1} and {2} once
  // each, so the union count of {1,2} would be 1 + 1 - 5. Restored, the
  // first report aborts on it; restore must refuse the section instead.
  // The same section with {1} and {2} at 5 restores and runs.
  ops::PipelineConfig pipeline;
  pipeline.report_period = kMillisPerMinute;
  pipeline.bootstrap_time = kMillisPerMinute;
  for (const uint64_t singles : {uint64_t{1}, uint64_t{5}}) {
    ops::PipelineCheckpointState state;
    ops::CalculatorState& cs = state.calculators.emplace_back();
    cs.instance = 0;
    cs.counters = {{TagSet({1}), singles},
                   {TagSet({1, 2}), 5},
                   {TagSet({2}), singles}};
    storage::MemoryStorage::Global()->Clear();
    storage::OpenedStorage opened;
    ASSERT_TRUE(storage::OpenStorage("mem://forged_counters", &opened).ok());
    ASSERT_TRUE(storage::CheckpointWriter(opened.storage, opened.root)
                    .Write(ops::EncodeCheckpoint(
                        state, /*seq=*/1,
                        ops::PipelineConfigFingerprint(pipeline)))
                    .ok());

    ops::CheckpointRunnerOptions options;
    options.restore_uri = "mem://forged_counters";
    ops::CheckpointedRun run;
    std::string error;
    const bool ran = ops::RunCheckpointedPipeline(
        std::make_unique<ops::GeneratorSpout>(gen::GeneratorConfig{}, 5000),
        pipeline, options, nullptr, false, nullptr, nullptr,
        pipeline.report_period, &run, &error);
    if (singles == 1) {
      EXPECT_FALSE(ran);
      EXPECT_NE(error.find("malformed"), std::string::npos) << error;
    } else {
      EXPECT_TRUE(ran) << error;
    }
  }
}

TEST(CheckpointFormat, OversizedInstanceNumberIsRefused) {
  ByteWriter calc;  // A well-formed, empty calculator section.
  calc.PutI64(0);
  calc.PutU32(0);
  calc.PutU64(0);
  calc.PutU64(0);
  ops::PipelineCheckpointState out;
  EXPECT_FALSE(ops::DecodeCheckpoint(
      WithSection("calc_99999999999", calc.str()), &out));
  EXPECT_TRUE(ops::DecodeCheckpoint(WithSection("calc_0000", calc.str()),
                                    &out));
}

TEST(CheckpointFormat, OversizedServeBlobCountsAreRefused) {
  serve::ServeConfig config;
  config.num_shards = 1;
  serve::CorrelationIndex index(config);
  {
    ByteWriter w;
    w.PutU32(1);      // shards
    w.PutU64(0);      // epoch
    w.PutI64(0);      // latest period
    w.PutU64(kHuge);  // recent periods
    EXPECT_FALSE(index.RestoreState(w.str()));
  }
  {
    ByteWriter w;
    w.PutU32(1);
    w.PutU64(0);
    w.PutI64(0);
    w.PutU64(0);      // no recent periods
    w.PutU64(kHuge);  // shard 0's entries
    EXPECT_FALSE(index.RestoreState(w.str()));
  }
  std::string empty;
  serve::CorrelationIndex(config).ExportState(&empty);
  EXPECT_TRUE(index.RestoreState(empty));
}

// ---------------------------------------------------------------------------
// Manifests are written by hand here, so each can carry what no writer
// produces: [magic "CTM1"][version][header][u32 chunks][chunk table][crc].

std::string ManifestBytes(uint32_t num_chunks, const std::string& name,
                          const std::string& payload) {
  ByteWriter w;
  w.PutU32(0x314d5443u);  // "CTM1"
  w.PutU32(1);            // format version
  w.PutU64(1);            // seq
  w.PutU64(0);            // docs_ingested
  w.PutI64(0);            // last_time
  w.PutU32(0);            // epoch
  w.PutU32(0);            // live_calculators
  w.PutU32(0);            // max_calculators
  w.PutU64(0);            // config_fingerprint
  w.PutU8(1);             // clean_cut
  w.PutU32(num_chunks);
  w.PutBytes(name);  // The first chunk table entry.
  w.PutU64(payload.size());
  w.PutU32(Crc32c::Of(payload));
  std::string bytes = w.Take();
  ByteWriter tail;
  tail.PutU32(Crc32c::Of(bytes));
  return bytes + tail.str();
}

std::string ChunkFrame(const std::string& payload) {
  ByteWriter w;
  w.PutU32(0x31435443u);  // "CTC1"
  w.PutU32(Crc32c::Of(payload));
  w.PutU64(payload.size());
  return w.Take() + payload;
}

TEST(CheckpointFormat, ManifestWithHugeChunkCountIsCorruption) {
  storage::MemoryStorage::Global()->Clear();
  const std::string dir =
      storage::JoinPath("/huge", storage::CheckpointDirName(1));
  ASSERT_TRUE(Mem()->CreateDirs(dir).ok());
  WriteFile(storage::JoinPath(dir, "MANIFEST"),
            ManifestBytes(0xFFFFFFFFu, "calc_0000", "x"));
  storage::CheckpointReader reader(Mem(), "/huge");
  storage::CheckpointData out;
  EXPECT_EQ(reader.Read(1, &out).code(), storage::StatusCode::kCorruption);
  std::vector<uint64_t> seqs;
  ASSERT_TRUE(reader.ListValid(&seqs).ok());
  EXPECT_TRUE(seqs.empty());
}

TEST(CheckpointFormat, ManifestSectionNameMustStayInItsDirectory) {
  const std::string payload = "outside";
  for (const std::string name : {"../x", "", "Calc_0000", "a/b"}) {
    storage::MemoryStorage::Global()->Clear();
    const std::string dir =
        storage::JoinPath("/names", storage::CheckpointDirName(1));
    ASSERT_TRUE(Mem()->CreateDirs(dir).ok());
    // The chunk the name points at exists and is valid, so only the name
    // check can refuse the read.
    WriteFile(storage::JoinPath(dir, name + ".chunk"), ChunkFrame(payload));
    WriteFile(storage::JoinPath(dir, "MANIFEST"),
              ManifestBytes(1, name, payload));
    storage::CheckpointData out;
    EXPECT_EQ(storage::CheckpointReader(Mem(), "/names").Read(1, &out).code(),
              storage::StatusCode::kCorruption)
        << name;
  }
  // The same manifest with a plain name reads.
  storage::MemoryStorage::Global()->Clear();
  const std::string dir =
      storage::JoinPath("/names", storage::CheckpointDirName(1));
  ASSERT_TRUE(Mem()->CreateDirs(dir).ok());
  WriteFile(storage::JoinPath(dir, "calc_0000.chunk"), ChunkFrame(payload));
  WriteFile(storage::JoinPath(dir, "MANIFEST"),
            ManifestBytes(1, "calc_0000", payload));
  storage::CheckpointData out;
  ASSERT_TRUE(storage::CheckpointReader(Mem(), "/names").Read(1, &out).ok());
  ASSERT_EQ(out.sections.size(), 1u);
  EXPECT_EQ(out.sections[0].payload, payload);
}

TEST(CheckpointFormat, WriterRefusesSectionNameOutsideItsDirectory) {
  storage::MemoryStorage::Global()->Clear();
  storage::CheckpointData data;
  data.seq = 1;
  data.sections.push_back({"../x", "outside"});
  EXPECT_EQ(storage::CheckpointWriter(Mem(), "/w/ckpt").Write(data).code(),
            storage::StatusCode::kInvalidArgument);
  const std::string dir =
      storage::JoinPath("/w/ckpt", storage::CheckpointDirName(1));
  EXPECT_FALSE(Mem()->FileExists(storage::JoinPath(dir, "../x.chunk")).ok());
  EXPECT_FALSE(Mem()->FileExists(dir).ok());
}

}  // namespace
}  // namespace corrtrack
