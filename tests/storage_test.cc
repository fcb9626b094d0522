// Storage layer: Status taxonomy, CRC-32C, the length-prefixed byte codec,
// URI dispatch, the two backends' filesystem semantics (the posix one
// against a real temp directory, the memory one against its process-global
// tree) and the transient-error retry policy. Everything the checkpoint
// subsystem builds on.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/crc32c.h"
#include "storage/retry.h"
#include "storage/serialize.h"
#include "storage/status.h"
#include "storage/storage.h"

namespace corrtrack::storage {
namespace {

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  const Status not_found = Status::NotFound("no such chunk");
  EXPECT_FALSE(not_found.ok());
  EXPECT_EQ(not_found.code(), StatusCode::kNotFound);
  EXPECT_EQ(not_found.message(), "no such chunk");
  EXPECT_NE(not_found.ToString().find("no such chunk"), std::string::npos);
}

TEST(Status, OnlyUnavailableIsTransient) {
  EXPECT_TRUE(Status::Unavailable("flaky").IsTransient());
  EXPECT_FALSE(Status::NotFound("x").IsTransient());
  EXPECT_FALSE(Status::Corruption("x").IsTransient());
  EXPECT_FALSE(Status::NoSpace("x").IsTransient());
  EXPECT_FALSE(Status::IOError("x").IsTransient());
  EXPECT_FALSE(Status::InvalidArgument("x").IsTransient());
  EXPECT_FALSE(Status::OK().IsTransient());
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 §B.4 test vectors for CRC-32C (Castagnoli).
  EXPECT_EQ(Crc32c::Of(""), 0x00000000u);
  EXPECT_EQ(Crc32c::Of("123456789"), 0xE3069283u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c::Of(zeros), 0x8A9136AAu);
}

TEST(Crc32cTest, ExtendComposesAndDetectsFlips) {
  const std::string data = "the manifest commit point";
  uint32_t split = Crc32c::Extend(0, data.data(), 10);
  split = Crc32c::Extend(split, data.data() + 10, data.size() - 10);
  EXPECT_EQ(split, Crc32c::Of(data));

  std::string damaged = data;
  damaged[4] ^= 0x01;  // Single bit flip must change the checksum.
  EXPECT_NE(Crc32c::Of(damaged), Crc32c::Of(data));
}

TEST(Serialize, RoundTripAllTypes) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutDouble(0.1);  // Not exactly representable: bit-pattern round trip.
  w.PutBytes("chunk payload");
  const std::string encoded = w.Take();

  ByteReader r(encoded);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double d = 0;
  std::string s;
  ASSERT_TRUE(r.GetU8(&u8));
  ASSERT_TRUE(r.GetU32(&u32));
  ASSERT_TRUE(r.GetU64(&u64));
  ASSERT_TRUE(r.GetI64(&i64));
  ASSERT_TRUE(r.GetDouble(&d));
  ASSERT_TRUE(r.GetString(&s));
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(d, 0.1);
  EXPECT_EQ(s, "chunk payload");
}

TEST(Serialize, TruncationFailsEveryGet) {
  ByteWriter w;
  w.PutU64(7);
  std::string encoded = w.Take();
  encoded.resize(encoded.size() - 1);
  ByteReader r(encoded);
  uint64_t v = 99;
  EXPECT_FALSE(r.GetU64(&v));
  EXPECT_EQ(v, 99u);  // Output untouched on failure.

  // A length prefix larger than the remaining bytes must not read past the
  // buffer.
  ByteWriter w2;
  w2.PutU64(1000);
  ByteReader r2(w2.str());
  std::string_view bytes;
  EXPECT_FALSE(r2.GetBytes(&bytes));
}

TEST(JoinPathTest, CollapsesSeparators) {
  EXPECT_EQ(JoinPath("/a/b", "c"), "/a/b/c");
  EXPECT_EQ(JoinPath("/a/b/", "c"), "/a/b/c");
  EXPECT_EQ(JoinPath("/a/b", "/c"), "/a/b/c");
  EXPECT_EQ(JoinPath("/a/b/", "/c"), "/a/b/c");
}

TEST(OpenStorageTest, DispatchesSchemes) {
  OpenedStorage opened;
  ASSERT_TRUE(OpenStorage("file:///var/ckpt", &opened).ok());
  EXPECT_STREQ(opened.storage->name(), "posix");
  EXPECT_EQ(opened.root, "/var/ckpt");

  ASSERT_TRUE(OpenStorage("mem://test/run1", &opened).ok());
  EXPECT_STREQ(opened.storage->name(), "memory");
  EXPECT_EQ(opened.root, "/test/run1");

  // Schemeless paths default to the posix backend.
  ASSERT_TRUE(OpenStorage("/plain/path", &opened).ok());
  EXPECT_STREQ(opened.storage->name(), "posix");
  EXPECT_EQ(opened.root, "/plain/path");

  const Status unknown = OpenStorage("s3://bucket/x", &opened);
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(OpenStorage("file://", &opened).code(),
            StatusCode::kInvalidArgument);
}

TEST(OpenStorageTest, MemBackendIsProcessGlobal) {
  MemoryStorage::Global()->Clear();
  OpenedStorage first;
  OpenedStorage second;
  ASSERT_TRUE(OpenStorage("mem://shared", &first).ok());
  ASSERT_TRUE(OpenStorage("mem://shared", &second).ok());
  // Two opens see one filesystem — the property the kill-restore tests
  // lean on (the "disk" outlives the pipeline that wrote it).
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(
      first.storage->NewWritableFile(JoinPath(first.root, "f"), &file).ok());
  ASSERT_TRUE(file->Append("payload").ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Close().ok());
  std::string contents;
  ASSERT_TRUE(
      second.storage->ReadFile(JoinPath(second.root, "f"), &contents).ok());
  EXPECT_EQ(contents, "payload");
}

/// Both backends must satisfy the same contract; run one suite over each.
class BackendTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string(GetParam()) == "memory") {
      MemoryStorage::Global()->Clear();
      storage_ = std::shared_ptr<Storage>(MemoryStorage::Global(),
                                          [](Storage*) {});
      root_ = "/backend_test";
    } else {
      const auto dir = std::filesystem::temp_directory_path() /
                       "corrtrack_storage_test";
      std::filesystem::remove_all(dir);
      OpenedStorage opened;
      ASSERT_TRUE(OpenStorage("file://" + dir.string(), &opened).ok());
      storage_ = opened.storage;
      root_ = opened.root;
    }
    ASSERT_TRUE(storage_->CreateDirs(root_).ok());
  }

  void TearDown() override {
    if (storage_ != nullptr) storage_->DeleteDirRecursive(root_);
  }

  void WriteWhole(const std::string& path, std::string_view data) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(storage_->NewWritableFile(path, &file).ok());
    ASSERT_TRUE(file->Append(data).ok());
    ASSERT_TRUE(file->Sync().ok());
    ASSERT_TRUE(file->Close().ok());
  }

  std::shared_ptr<Storage> storage_;
  std::string root_;
};

TEST_P(BackendTest, WriteReadRoundTrip) {
  const std::string path = JoinPath(root_, "chunk");
  WriteWhole(path, "frame bytes");
  std::string contents;
  ASSERT_TRUE(storage_->ReadFile(path, &contents).ok());
  EXPECT_EQ(contents, "frame bytes");
  EXPECT_TRUE(storage_->FileExists(path).ok());
}

TEST_P(BackendTest, MissingFileIsNotFound) {
  std::string contents;
  EXPECT_EQ(storage_->ReadFile(JoinPath(root_, "absent"), &contents).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(storage_->FileExists(JoinPath(root_, "absent")).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(storage_->DeleteFile(JoinPath(root_, "absent")).code(),
            StatusCode::kNotFound);
}

TEST_P(BackendTest, RenameReplacesDestination) {
  const std::string tmp = JoinPath(root_, "MANIFEST.tmp");
  const std::string final_path = JoinPath(root_, "MANIFEST");
  WriteWhole(final_path, "old manifest");
  WriteWhole(tmp, "new manifest");
  ASSERT_TRUE(storage_->RenameFile(tmp, final_path).ok());
  std::string contents;
  ASSERT_TRUE(storage_->ReadFile(final_path, &contents).ok());
  EXPECT_EQ(contents, "new manifest");
  EXPECT_EQ(storage_->FileExists(tmp).code(), StatusCode::kNotFound);
}

TEST_P(BackendTest, ListDirectoryShowsImmediateChildren) {
  ASSERT_TRUE(
      storage_->CreateDirs(JoinPath(root_, "checkpoint_0000000001")).ok());
  WriteWhole(JoinPath(root_, "checkpoint_0000000001/MANIFEST"), "m");
  WriteWhole(JoinPath(root_, "top_file"), "f");
  std::vector<std::string> names;
  ASSERT_TRUE(storage_->ListDirectory(root_, &names).ok());
  EXPECT_EQ(names.size(), 2u);
  EXPECT_NE(std::find(names.begin(), names.end(), "checkpoint_0000000001"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "top_file"), names.end());
}

TEST_P(BackendTest, DeleteDirRecursiveRemovesTree) {
  ASSERT_TRUE(storage_->CreateDirs(JoinPath(root_, "dir/sub")).ok());
  WriteWhole(JoinPath(root_, "dir/sub/file"), "x");
  ASSERT_TRUE(storage_->DeleteDirRecursive(JoinPath(root_, "dir")).ok());
  EXPECT_EQ(storage_->FileExists(JoinPath(root_, "dir/sub/file")).code(),
            StatusCode::kNotFound);
  // rm -rf of a non-existent tree is OK, matching the scrub path's use.
  EXPECT_TRUE(storage_->DeleteDirRecursive(JoinPath(root_, "dir")).ok());
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendTest,
                         ::testing::Values("posix", "memory"));

// ---------------------------------------------------------------------------
// Retry policy.

/// Non-sleeping retry policy: the retry tests must not wall-clock wait.
RetryPolicy FastRetry() {
  RetryPolicy retry;
  retry.sleeper = [](int) {};
  return retry;
}

TEST(RetryOpTest, TransientErrorsRetryWithBackoff) {
  std::vector<int> sleeps;
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff_ms = 5;
  policy.sleeper = [&sleeps](int ms) { sleeps.push_back(ms); };

  int calls = 0;
  uint64_t retries = 0;
  const Status status = RetryOp(policy, &retries, [&calls]() {
    return ++calls < 3 ? Status::Unavailable("flaky") : Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);
  EXPECT_EQ(sleeps, (std::vector<int>{5, 10}));  // Exponential backoff.
}

TEST(RetryOpTest, PermanentErrorsNeverRetry) {
  int calls = 0;
  uint64_t retries = 0;
  const Status status =
      RetryOp(FastRetry(), &retries, [&calls]() {
        ++calls;
        return Status::NoSpace("disk full");
      });
  EXPECT_EQ(status.code(), StatusCode::kNoSpace);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries, 0u);
}

TEST(RetryOpTest, GivesUpAfterMaxAttempts) {
  RetryPolicy policy = FastRetry();
  policy.max_attempts = 3;
  int calls = 0;
  uint64_t retries = 0;
  const Status status = RetryOp(policy, &retries, [&calls]() {
    ++calls;
    return Status::Unavailable("still down");
  });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);
}

TEST(RetryOpTest, LongRetryChainsSaturateTheBackoff) {
  // The doubling must stop at the ceiling: not sleep for days, wrap
  // negative (a skipped sleep) or shift past the width of int (undefined).
  std::vector<int> sleeps;
  RetryPolicy policy;
  policy.max_attempts = 40;
  policy.base_backoff_ms = 5;
  policy.sleeper = [&sleeps](int ms) { sleeps.push_back(ms); };
  uint64_t retries = 0;
  const Status status = RetryOp(policy, &retries, []() {
    return Status::Unavailable("still down");
  });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(retries, 39u);
  ASSERT_EQ(sleeps.size(), 39u);
  EXPECT_EQ(sleeps.front(), 5);
  for (size_t i = 0; i < sleeps.size(); ++i) {
    EXPECT_GT(sleeps[i], 0) << "sleep " << i;
    EXPECT_LE(sleeps[i], kMaxBackoffMs) << "sleep " << i;
    if (i > 0) EXPECT_GE(sleeps[i], sleeps[i - 1]) << "sleep " << i;
  }
}

}  // namespace
}  // namespace corrtrack::storage
