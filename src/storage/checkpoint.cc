#include "storage/checkpoint.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>

#include "storage/crc32c.h"
#include "storage/serialize.h"
#include "telemetry/log.h"

namespace corrtrack::storage {

namespace {

constexpr uint32_t kChunkMagic = 0x31435443u;     // "CTC1" little-endian.
constexpr uint32_t kManifestMagic = 0x314d5443u;  // "CTM1".
constexpr uint32_t kFormatVersion = 1;
constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestTmpName[] = "MANIFEST.tmp";
constexpr char kDirPrefix[] = "checkpoint_";

/// Section names become chunk file names, so a name is [a-z0-9_]+ (what
/// the pipeline's section names are made of): it cannot leave its
/// checkpoint directory.
bool IsSectionName(std::string_view name) {
  return !name.empty() && std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
  });
}

/// The manifest's layout ahead of its CRC tail: the cut header, then the
/// chunk table. Encodes a const CheckpointData; decoding fills the header
/// fields of a mutable one.
template <class Io, class D, class C>
bool ManifestFields(Io& io, D& data, C& chunks) {
  uint32_t magic = kManifestMagic;
  uint32_t version = kFormatVersion;
  return io.U32(magic) && magic == kManifestMagic && io.U32(version) &&
         version == kFormatVersion && io.U64(data.seq) &&
         io.U64(data.docs_ingested) && io.I64(data.last_time) &&
         io.U32(data.epoch) && io.U32(data.live_calculators) &&
         io.U32(data.max_calculators) && io.U64(data.config_fingerprint) &&
         io.U8(data.clean_cut) &&
         Seq<uint32_t>(io, chunks, [](auto& io, auto& chunk) {
           return io.Str(chunk.name) && io.U64(chunk.size) &&
                  io.U32(chunk.crc) && IsSectionName(chunk.name);
         });
}

/// A chunk frame's header, ahead of its payload: the magic, then the
/// payload's CRC-32C and size (which the manifest's entry repeats).
template <class Io, class C>
bool FrameHeader(Io& io, C& chunk) {
  uint32_t magic = kChunkMagic;
  return io.U32(magic) && magic == kChunkMagic && io.U32(chunk.crc) &&
         io.U64(chunk.size);
}

std::string EncodeChunkFrame(const ManifestChunk& chunk,
                             const std::string& payload) {
  ByteWriter w;
  FrameHeader(w, chunk);
  return w.Take() + payload;
}

Status DecodeChunkFrame(const std::string& frame, const std::string& what,
                        const ManifestChunk& chunk, std::string* payload) {
  ByteReader r(frame);
  ManifestChunk header;
  if (!FrameHeader(r, header)) {
    return Status::Corruption("truncated chunk header or bad magic: " + what);
  }
  if (header.size != r.remaining() || header.size != chunk.size ||
      header.crc != chunk.crc) {
    return Status::Corruption("chunk size/crc does not match manifest: " +
                              what);
  }
  // The frame body is everything after the header.
  const std::string_view raw =
      std::string_view(frame).substr(frame.size() - header.size);
  if (Crc32c::Of(raw) != header.crc) {
    return Status::Corruption("chunk checksum mismatch: " + what);
  }
  payload->assign(raw.data(), raw.size());
  return Status::OK();
}

}  // namespace

std::string CheckpointDirName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%010llu", kDirPrefix,
                static_cast<unsigned long long>(seq));
  return buf;
}

// ---------------------------------------------------------------------------
// Writer

CheckpointWriter::CheckpointWriter(std::shared_ptr<Storage> storage,
                                   std::string root, RetryPolicy retry,
                                   int keep)
    : storage_(std::move(storage)),
      root_(std::move(root)),
      retry_(std::move(retry)),
      keep_(std::max(1, keep)) {}

Status CheckpointWriter::WriteFileDurably(const std::string& path,
                                          const std::string& frame) {
  // Whole-file retry granularity: a transient failure anywhere in
  // open/append/sync restarts the file from scratch (O_TRUNC), so a
  // half-appended attempt can never survive into the retried one.
  return RetryOp(retry_, &retries_, [&]() {
    std::unique_ptr<WritableFile> file;
    Status status = storage_->NewWritableFile(path, &file);
    if (!status.ok()) return status;
    status = file->Append(frame);
    if (!status.ok()) return status;
    status = file->Sync();
    if (!status.ok()) return status;
    return file->Close();
  });
}

Status CheckpointWriter::Write(const CheckpointData& data,
                               uint64_t* bytes_written,
                               uint64_t* chunks_written) {
  if (bytes_written != nullptr) *bytes_written = 0;
  if (chunks_written != nullptr) *chunks_written = 0;
  std::vector<ManifestChunk> chunks;
  chunks.reserve(data.sections.size());
  for (const CheckpointSection& section : data.sections) {
    chunks.push_back({section.name, section.payload.size(),
                      Crc32c::Of(section.payload)});
  }
  ByteWriter manifest;
  if (!ManifestFields(manifest, data, std::as_const(chunks))) {
    return Status::InvalidArgument("checkpoint section name is not [a-z0-9_]+");
  }
  const std::string dir = JoinPath(root_, CheckpointDirName(data.seq));

  Status status = RetryOp(retry_, &retries_,
                          [&]() { return storage_->CreateDirs(dir); });
  if (!status.ok()) return status;
  // Scrub leftovers of a previously failed attempt at this seq, so stale
  // chunks can never be picked up by the manifest written below.
  if (storage_->FileExists(JoinPath(dir, kManifestTmpName)).ok()) {
    (void)storage_->DeleteFile(JoinPath(dir, kManifestTmpName));
  }

  uint64_t bytes = 0;
  for (size_t i = 0; i < chunks.size(); ++i) {
    const std::string frame =
        EncodeChunkFrame(chunks[i], data.sections[i].payload);
    status = WriteFileDurably(JoinPath(dir, chunks[i].name + ".chunk"), frame);
    if (!status.ok()) {
      (void)storage_->DeleteDirRecursive(dir);
      return status;
    }
    bytes += frame.size();
  }

  // Self-checksummed tail: a torn manifest write (crash before the rename
  // completed, short write, bit rot) fails validation and the whole
  // directory is treated as absent.
  manifest.PutU32(Crc32c::Of(manifest.str()));
  const std::string manifest_bytes = manifest.Take();
  status = WriteFileDurably(JoinPath(dir, kManifestTmpName), manifest_bytes);
  if (!status.ok()) {
    (void)storage_->DeleteDirRecursive(dir);
    return status;
  }
  status = RetryOp(retry_, &retries_, [&]() {
    return storage_->RenameFile(JoinPath(dir, kManifestTmpName),
                                JoinPath(dir, kManifestName));
  });
  if (!status.ok()) {
    (void)storage_->DeleteDirRecursive(dir);
    return status;
  }
  bytes += manifest_bytes.size();
  if (bytes_written != nullptr) *bytes_written = bytes;
  if (chunks_written != nullptr) {
    *chunks_written = static_cast<uint64_t>(data.sections.size());
  }

  // Retention GC — only after a successful commit, and never the one just
  // written. Failures here are ignored: the directory will be re-listed
  // and re-scrubbed on the next write.
  std::vector<std::string> names;
  if (storage_->ListDirectory(root_, &names).ok()) {
    std::vector<uint64_t> seqs;
    for (const std::string& name : names) {
      if (name.rfind(kDirPrefix, 0) != 0) continue;
      const uint64_t seq =
          std::strtoull(name.c_str() + sizeof(kDirPrefix) - 1, nullptr, 10);
      if (seq < data.seq) seqs.push_back(seq);
    }
    std::sort(seqs.begin(), seqs.end());
    const int excess = static_cast<int>(seqs.size()) - (keep_ - 1);
    for (int i = 0; i < excess; ++i) {
      (void)storage_->DeleteDirRecursive(
          JoinPath(root_, CheckpointDirName(seqs[static_cast<size_t>(i)])));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reader

CheckpointReader::CheckpointReader(std::shared_ptr<Storage> storage,
                                   std::string root, RetryPolicy retry,
                                   int num_threads)
    : storage_(std::move(storage)),
      root_(std::move(root)),
      retry_(std::move(retry)),
      num_threads_(std::max(1, num_threads)) {}

Status CheckpointReader::ReadManifest(uint64_t seq, CheckpointData* out,
                                      std::vector<ManifestChunk>* chunks) {
  const std::string path =
      JoinPath(JoinPath(root_, CheckpointDirName(seq)), kManifestName);
  std::string bytes;
  Status status = RetryOp(retry_, &retries_, [&]() {
    return storage_->ReadFile(path, &bytes);
  });
  if (!status.ok()) return status;
  if (bytes.size() < sizeof(uint32_t)) {
    return Status::Corruption("manifest truncated: " + path);
  }
  const std::string_view body(bytes.data(), bytes.size() - sizeof(uint32_t));
  ByteReader tail(
      std::string_view(bytes.data() + body.size(), sizeof(uint32_t)));
  uint32_t stored_crc = 0;
  tail.GetU32(&stored_crc);
  if (Crc32c::Of(body) != stored_crc) {
    return Status::Corruption("manifest checksum mismatch: " + path);
  }

  ByteReader r(body);
  if (!ManifestFields(r, *out, *chunks) || !r.empty()) {
    return Status::Corruption("manifest malformed: " + path);
  }
  out->sections.clear();
  for (const ManifestChunk& chunk : *chunks) {
    out->sections.push_back({chunk.name, std::string()});
  }
  return Status::OK();
}

Status CheckpointReader::Read(uint64_t seq, CheckpointData* out) {
  std::vector<ManifestChunk> chunks;
  Status status = ReadManifest(seq, out, &chunks);
  if (!status.ok()) return status;

  const std::string dir = JoinPath(root_, CheckpointDirName(seq));
  // Chunk-parallel restore: workers claim chunk indices off a shared
  // counter; each chunk's frame checksum AND its manifest-recorded
  // size/crc must match before the payload is accepted.
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> retry_count{0};
  std::mutex error_mutex;
  Status first_error;
  const auto worker = [&]() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= out->sections.size()) return;
      {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error.ok()) return;
      }
      CheckpointSection& section = out->sections[i];
      const std::string path = JoinPath(dir, chunks[i].name + ".chunk");
      std::string frame;
      uint64_t local_retries = 0;
      Status s = RetryOp(retry_, &local_retries, [&]() {
        return storage_->ReadFile(path, &frame);
      });
      retry_count.fetch_add(local_retries, std::memory_order_relaxed);
      if (s.ok()) {
        s = DecodeChunkFrame(frame, path, chunks[i], &section.payload);
      }
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error.ok()) first_error = s;
        return;
      }
    }
  };

  const int threads = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(num_threads_),
                       std::max<size_t>(1, out->sections.size())));
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  retries_ += retry_count.load(std::memory_order_relaxed);
  if (!first_error.ok()) return first_error;
  last_restore_chunks_ = out->sections.size();
  return Status::OK();
}

Status CheckpointReader::ListValid(std::vector<uint64_t>* seqs) {
  seqs->clear();
  std::vector<std::string> names;
  Status status = RetryOp(retry_, &retries_, [&]() {
    return storage_->ListDirectory(root_, &names);
  });
  if (status.code() == StatusCode::kNotFound) return Status::OK();
  if (!status.ok()) return status;
  for (const std::string& name : names) {
    if (name.rfind(kDirPrefix, 0) != 0) continue;
    const uint64_t seq =
        std::strtoull(name.c_str() + sizeof(kDirPrefix) - 1, nullptr, 10);
    CheckpointData manifest_only;
    std::vector<ManifestChunk> chunks;
    if (ReadManifest(seq, &manifest_only, &chunks).ok()) {
      seqs->push_back(seq);
    }
  }
  std::sort(seqs->begin(), seqs->end());
  return Status::OK();
}

Status CheckpointReader::ReadLatest(CheckpointData* out) {
  std::vector<uint64_t> seqs;
  Status status = ListValid(&seqs);
  if (!status.ok()) return status;
  // Newest first; fall back to older checkpoints when a newer one turns
  // out to be damaged at chunk depth (its manifest validated, a chunk did
  // not) — graceful degradation over hard failure.
  for (auto it = seqs.rbegin(); it != seqs.rend(); ++it) {
    status = Read(*it, out);
    if (status.ok()) return status;
    if (status.IsTransient()) return status;  // Storage down, not damage.
    CORRTRACK_LOG(kWarn, "checkpoint",
                  "seq %llu damaged (%s); falling back to an older checkpoint",
                  static_cast<unsigned long long>(*it),
                  status.ToString().c_str());
  }
  return seqs.empty()
             ? Status::NotFound("no valid checkpoint under " + root_)
             : status;
}

}  // namespace corrtrack::storage
