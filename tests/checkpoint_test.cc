// Checkpoint format and fault matrix: manifest-last commit, CRC frames,
// retention GC — and every FaultKind either recovers via
// retry or fails cleanly with the previous manifest intact. The invariant
// under test everywhere: a reader never accepts bytes that differ from
// what a writer committed (no silent corruption), and a failed write never
// damages an earlier checkpoint.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/checkpoint.h"
#include "storage/fault_injection.h"
#include "storage/status.h"
#include "storage/storage.h"

namespace corrtrack::storage {
namespace {

std::shared_ptr<Storage> Mem() {
  return std::shared_ptr<Storage>(MemoryStorage::Global(), [](Storage*) {});
}

/// Non-sleeping retry policy: the fault tests must not wall-clock wait.
RetryPolicy FastRetry() {
  RetryPolicy retry;
  retry.sleeper = [](int) {};
  return retry;
}

CheckpointData MakeCheckpoint(uint64_t seq) {
  CheckpointData data;
  data.seq = seq;
  data.docs_ingested = seq * 1000;
  data.last_time = static_cast<int64_t>(seq) * 60000;
  data.epoch = static_cast<uint32_t>(seq);
  data.live_calculators = 4;
  data.max_calculators = 8;
  data.config_fingerprint = 0xFEEDFACEull;
  data.clean_cut = true;
  data.sections.push_back({"calc_0000", std::string(2000, 'a')});
  data.sections.push_back({"calc_0001", std::string(300, 'b')});
  data.sections.push_back({"tracker", "tracker-bytes-" + std::to_string(seq)});
  return data;
}

void ExpectSameCheckpoint(const CheckpointData& a, const CheckpointData& b) {
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.docs_ingested, b.docs_ingested);
  EXPECT_EQ(a.last_time, b.last_time);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.live_calculators, b.live_calculators);
  EXPECT_EQ(a.max_calculators, b.max_calculators);
  EXPECT_EQ(a.config_fingerprint, b.config_fingerprint);
  EXPECT_EQ(a.clean_cut, b.clean_cut);
  ASSERT_EQ(a.sections.size(), b.sections.size());
  for (size_t i = 0; i < a.sections.size(); ++i) {
    EXPECT_EQ(a.sections[i].name, b.sections[i].name);
    EXPECT_EQ(a.sections[i].payload, b.sections[i].payload);
  }
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { MemoryStorage::Global()->Clear(); }
  const std::string root_ = "/ckpt_test";
};

TEST_F(CheckpointTest, WriteReadRoundTrip) {
  CheckpointWriter writer(Mem(), root_, FastRetry());
  const CheckpointData data = MakeCheckpoint(1);
  uint64_t bytes = 0;
  uint64_t chunks = 0;
  ASSERT_TRUE(writer.Write(data, &bytes, &chunks).ok());
  EXPECT_GT(bytes, 2300u);  // At least the payload volume.
  EXPECT_EQ(chunks, 3u);

  CheckpointReader reader(Mem(), root_, FastRetry());
  CheckpointData loaded;
  ASSERT_TRUE(reader.Read(1, &loaded).ok());
  ExpectSameCheckpoint(loaded, data);
  EXPECT_EQ(reader.last_restore_chunks(), 3u);
}

TEST_F(CheckpointTest, ReadLatestPicksNewestValid) {
  CheckpointWriter writer(Mem(), root_, FastRetry(), /*keep=*/10);
  ASSERT_TRUE(writer.Write(MakeCheckpoint(1)).ok());
  ASSERT_TRUE(writer.Write(MakeCheckpoint(2)).ok());
  ASSERT_TRUE(writer.Write(MakeCheckpoint(3)).ok());

  CheckpointReader reader(Mem(), root_, FastRetry());
  std::vector<uint64_t> seqs;
  ASSERT_TRUE(reader.ListValid(&seqs).ok());
  EXPECT_EQ(seqs, (std::vector<uint64_t>{1, 2, 3}));
  CheckpointData latest;
  ASSERT_TRUE(reader.ReadLatest(&latest).ok());
  EXPECT_EQ(latest.seq, 3u);
}

TEST_F(CheckpointTest, ReadLatestOnEmptyRootIsNotFound) {
  CheckpointReader reader(Mem(), root_, FastRetry());
  CheckpointData latest;
  EXPECT_EQ(reader.ReadLatest(&latest).code(), StatusCode::kNotFound);
  std::vector<uint64_t> seqs;
  ASSERT_TRUE(reader.ListValid(&seqs).ok());
  EXPECT_TRUE(seqs.empty());
}

TEST_F(CheckpointTest, RetentionKeepsNewestTwo) {
  CheckpointWriter writer(Mem(), root_, FastRetry(), /*keep=*/2);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(writer.Write(MakeCheckpoint(seq)).ok());
  }
  CheckpointReader reader(Mem(), root_, FastRetry());
  std::vector<uint64_t> seqs;
  ASSERT_TRUE(reader.ListValid(&seqs).ok());
  EXPECT_EQ(seqs, (std::vector<uint64_t>{4, 5}));
}

TEST_F(CheckpointTest, DirectoryWithoutManifestIsInvisible) {
  CheckpointWriter writer(Mem(), root_, FastRetry());
  ASSERT_TRUE(writer.Write(MakeCheckpoint(1)).ok());
  // A torn checkpoint: the directory and chunks exist, the manifest never
  // landed (crash before the rename). Discovery must not see it.
  const std::string torn = JoinPath(root_, CheckpointDirName(2));
  ASSERT_TRUE(Mem()->CreateDirs(torn).ok());
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(
      Mem()->NewWritableFile(JoinPath(torn, "calc_0000.chunk"), &file).ok());
  ASSERT_TRUE(file->Append("half a fra").ok());
  ASSERT_TRUE(file->Close().ok());

  CheckpointReader reader(Mem(), root_, FastRetry());
  CheckpointData latest;
  ASSERT_TRUE(reader.ReadLatest(&latest).ok());
  EXPECT_EQ(latest.seq, 1u);
}

TEST_F(CheckpointTest, CorruptedChunkIsDetectedByChecksum) {
  CheckpointWriter writer(Mem(), root_, FastRetry());
  ASSERT_TRUE(writer.Write(MakeCheckpoint(1)).ok());

  // Flip one byte in the middle of a chunk's payload, behind the frame
  // header — only the CRC can notice.
  const std::string chunk =
      JoinPath(JoinPath(root_, CheckpointDirName(1)), "calc_0000.chunk");
  std::string bytes;
  ASSERT_TRUE(Mem()->ReadFile(chunk, &bytes).ok());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(Mem()->NewWritableFile(chunk, &file).ok());
  ASSERT_TRUE(file->Append(bytes).ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Close().ok());

  CheckpointReader reader(Mem(), root_, FastRetry());
  CheckpointData loaded;
  EXPECT_EQ(reader.Read(1, &loaded).code(), StatusCode::kCorruption);
}

TEST_F(CheckpointTest, TruncatedManifestIsInvalid) {
  CheckpointWriter writer(Mem(), root_, FastRetry(), /*keep=*/10);
  ASSERT_TRUE(writer.Write(MakeCheckpoint(1)).ok());
  ASSERT_TRUE(writer.Write(MakeCheckpoint(2)).ok());

  const std::string manifest =
      JoinPath(JoinPath(root_, CheckpointDirName(2)), "MANIFEST");
  std::string bytes;
  ASSERT_TRUE(Mem()->ReadFile(manifest, &bytes).ok());
  bytes.resize(bytes.size() / 2);
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(Mem()->NewWritableFile(manifest, &file).ok());
  ASSERT_TRUE(file->Append(bytes).ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Close().ok());

  // The damaged checkpoint is skipped; the previous one is still served.
  CheckpointReader reader(Mem(), root_, FastRetry());
  CheckpointData latest;
  ASSERT_TRUE(reader.ReadLatest(&latest).ok());
  EXPECT_EQ(latest.seq, 1u);
}

// ---------------------------------------------------------------------------
// Fault matrix (ISSUE satellite): every fault class recovers via retry or
// fails cleanly; a failed write never damages the previously committed
// checkpoint; injected read corruption is always caught by the checksum.

class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MemoryStorage::Global()->Clear();
    // A good checkpoint that every failing write must leave intact.
    CheckpointWriter writer(Mem(), root_, FastRetry());
    ASSERT_TRUE(writer.Write(MakeCheckpoint(1)).ok());
  }

  /// Wraps the backend in `plan` and attempts to write checkpoint 2.
  Status WriteUnderFaults(const FaultPlan& plan, FaultStats* stats_out) {
    auto faulty = std::make_shared<FaultInjectingStorage>(Mem(), plan);
    CheckpointWriter writer(faulty, root_, FastRetry());
    const Status status = writer.Write(MakeCheckpoint(2));
    if (stats_out != nullptr) *stats_out = faulty->stats();
    return status;
  }

  /// The previously committed checkpoint must load bit-exactly.
  void ExpectPreviousIntact() {
    CheckpointReader reader(Mem(), root_, FastRetry());
    CheckpointData latest;
    ASSERT_TRUE(reader.ReadLatest(&latest).ok());
    EXPECT_EQ(latest.seq, 1u);
    ExpectSameCheckpoint(latest, MakeCheckpoint(1));
  }

  /// Probability-1 plan restricted to one fault class.
  static FaultPlan AlwaysInject(FaultKind kind) {
    FaultPlan plan;
    plan.seed = 7;
    plan.probability = 1.0;
    plan.kinds = {kind};
    return plan;
  }

  const std::string root_ = "/fault_matrix";
};

TEST_F(FaultMatrixTest, ShortWriteNeverLoadsSilently) {
  // Silent data damage: every Append drops half its bytes but reports
  // success. The write itself may "commit" — the checksums must refuse the
  // torn frames at read time, falling back to the intact checkpoint.
  FaultStats stats;
  const Status status = WriteUnderFaults(AlwaysInject(FaultKind::kShortWrite),
                                         &stats);
  EXPECT_GT(stats.count(FaultKind::kShortWrite), 0u);
  CheckpointReader reader(Mem(), root_, FastRetry());
  CheckpointData loaded;
  const Status read_status = reader.Read(2, &loaded);
  if (status.ok()) {
    EXPECT_FALSE(read_status.ok()) << "torn frames must not load";
  }
  ExpectPreviousIntact();
}

TEST_F(FaultMatrixTest, NoSpaceFailsCleanly) {
  FaultStats stats;
  const Status status =
      WriteUnderFaults(AlwaysInject(FaultKind::kNoSpace), &stats);
  EXPECT_EQ(status.code(), StatusCode::kNoSpace);
  EXPECT_GT(stats.count(FaultKind::kNoSpace), 0u);
  ExpectPreviousIntact();
}

TEST_F(FaultMatrixTest, FsyncFailureFailsCleanly) {
  FaultStats stats;
  const Status status =
      WriteUnderFaults(AlwaysInject(FaultKind::kFsyncFail), &stats);
  EXPECT_FALSE(status.ok());
  EXPECT_GT(stats.count(FaultKind::kFsyncFail), 0u);
  ExpectPreviousIntact();
}

TEST_F(FaultMatrixTest, TornRenameFailsCleanlyAndStaysInvisible) {
  FaultStats stats;
  const Status status =
      WriteUnderFaults(AlwaysInject(FaultKind::kTornRename), &stats);
  EXPECT_FALSE(status.ok());
  EXPECT_GT(stats.count(FaultKind::kTornRename), 0u);
  // The manifest rename never happened, so checkpoint 2 must not exist.
  CheckpointReader reader(Mem(), root_, FastRetry());
  std::vector<uint64_t> seqs;
  ASSERT_TRUE(reader.ListValid(&seqs).ok());
  EXPECT_EQ(seqs, (std::vector<uint64_t>{1}));
  ExpectPreviousIntact();
}

TEST_F(FaultMatrixTest, TransientFaultRecoversViaRetry) {
  // One transient fault on the very first storage operation: the retry
  // policy must absorb it and the write must commit.
  FaultPlan plan;
  plan.rules = {{0, FaultKind::kTransient}};
  auto faulty = std::make_shared<FaultInjectingStorage>(Mem(), plan);
  CheckpointWriter writer(faulty, root_, FastRetry());
  ASSERT_TRUE(writer.Write(MakeCheckpoint(2)).ok());
  EXPECT_GT(writer.retries(), 0u);
  EXPECT_EQ(faulty->stats().count(FaultKind::kTransient), 1u);

  CheckpointReader reader(Mem(), root_, FastRetry());
  CheckpointData latest;
  ASSERT_TRUE(reader.ReadLatest(&latest).ok());
  EXPECT_EQ(latest.seq, 2u);
}

TEST_F(FaultMatrixTest, ReadCorruptionAlwaysDetected) {
  FaultPlan plan = AlwaysInject(FaultKind::kReadCorruption);
  auto faulty = std::make_shared<FaultInjectingStorage>(Mem(), plan);
  CheckpointReader reader(faulty, root_, FastRetry());
  CheckpointData loaded;
  const Status status = reader.Read(1, &loaded);
  EXPECT_FALSE(status.ok()) << "bit-flipped reads must never load";
  EXPECT_GT(faulty->stats().count(FaultKind::kReadCorruption), 0u);
}

TEST_F(FaultMatrixTest, SeededProbabilitySweepNeverCorruptsSilently) {
  // The resilience sweep of the acceptance criterion: random faults at 25%
  // per op across five seeds. Whatever the outcome of each write, a read
  // through the CLEAN backend afterwards must produce either checkpoint 1
  // or checkpoint 2 bit-exactly — never a blend, never damaged bytes.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    MemoryStorage::Global()->Clear();
    CheckpointWriter setup(Mem(), root_, FastRetry());
    ASSERT_TRUE(setup.Write(MakeCheckpoint(1)).ok());

    FaultPlan plan;
    plan.seed = seed;
    plan.probability = 0.25;
    auto faulty = std::make_shared<FaultInjectingStorage>(Mem(), plan);
    CheckpointWriter writer(faulty, root_, FastRetry());
    (void)writer.Write(MakeCheckpoint(2));

    // Note: Write's return status is deliberately not consulted — a short
    // write *reports* success while tearing the durable bytes. The
    // guarantee under test is read-side: whatever happened, the newest
    // loadable checkpoint is one of the two written ones, bit-exactly.
    CheckpointReader reader(Mem(), root_, FastRetry());
    CheckpointData latest;
    ASSERT_TRUE(reader.ReadLatest(&latest).ok()) << "seed " << seed;
    ASSERT_TRUE(latest.seq == 1 || latest.seq == 2) << "seed " << seed;
    ExpectSameCheckpoint(latest, MakeCheckpoint(latest.seq));
  }
}

}  // namespace
}  // namespace corrtrack::storage
