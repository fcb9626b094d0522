#ifndef CORRTRACK_STORAGE_CHECKPOINT_H_
#define CORRTRACK_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/retry.h"
#include "storage/status.h"
#include "storage/storage.h"

namespace corrtrack::storage {

/// One named section of a checkpoint — a chunk file on storage. The
/// pipeline capture layer (ops/pipeline_checkpoint.h) makes one section
/// per component instance, which is the unit of restore parallelism.
struct CheckpointSection {
  std::string name;
  std::string payload;
};

/// A complete checkpoint in memory: the epoch-cut header plus the
/// sections. The header fields travel in the manifest, so discovery can
/// pick a checkpoint without touching any chunk.
struct CheckpointData {
  uint64_t seq = 0;             ///< Monotone checkpoint number.
  uint64_t docs_ingested = 0;   ///< Spout position of the cut.
  int64_t last_time = 0;        ///< Newest virtual timestamp emitted.
  uint32_t epoch = 0;           ///< Partition epoch at the cut.
  int32_t live_calculators = 0;
  int32_t max_calculators = 0;
  uint64_t config_fingerprint = 0;  ///< Restore refuses a mismatch.
  /// False when the barrier cut caught protocol state still in flight
  /// (e.g. an unfinished repartition round); the checkpoint is still
  /// written (durability first) but flagged for observability.
  bool clean_cut = true;
  std::vector<CheckpointSection> sections;
};

/// One entry of a manifest's chunk table: a section's name (its chunk file
/// is <name>.chunk) and its payload's size and CRC-32C.
struct ManifestChunk {
  std::string name;
  uint64_t size = 0;
  uint32_t crc = 0;
};

/// On-disk layout, all frames CRC-32C checksummed:
///
///   <root>/checkpoint_<seq>/<section>.chunk   one frame per section
///   <root>/checkpoint_<seq>/MANIFEST          commit point (renamed last)
///
/// Chunk frame:    [magic "CTC1"][u32 crc(payload)][u64 size][payload]
/// Manifest:       [magic "CTM1"][header][chunk table][u32 crc(all prior)]
///
/// Commit discipline: every chunk is written and fsynced before the
/// manifest; the manifest is written to MANIFEST.tmp, fsynced, then
/// atomically renamed to MANIFEST. A reader only trusts a directory with a
/// valid manifest, so a torn checkpoint — crash or injected fault at any
/// point before the rename — is simply invisible, and the previous
/// checkpoint remains the latest.
class CheckpointWriter {
 public:
  /// `keep` >= 1: checkpoints retained after a successful write (older
  /// ones are garbage-collected; GC failures are ignored — the next
  /// write retries them).
  CheckpointWriter(std::shared_ptr<Storage> storage, std::string root,
                   RetryPolicy retry = RetryPolicy(), int keep = 2);

  /// Writes one checkpoint. On failure the partial directory is scrubbed
  /// (best effort) and any previously committed checkpoint is untouched.
  /// A section name outside [a-z0-9_]+ is refused (kInvalidArgument)
  /// before storage is touched; the reader refuses it too.
  /// `bytes_written`/`chunks_written` (optional) report the payload volume.
  Status Write(const CheckpointData& data, uint64_t* bytes_written = nullptr,
               uint64_t* chunks_written = nullptr);

  /// Transient-error retries performed so far (cumulative).
  uint64_t retries() const { return retries_; }

 private:
  Status WriteFileDurably(const std::string& path, const std::string& frame);

  std::shared_ptr<Storage> storage_;
  std::string root_;
  RetryPolicy retry_;
  int keep_;
  uint64_t retries_ = 0;
};

/// Reads checkpoints back, chunk-parallel: the manifest names every chunk,
/// so `num_threads` workers fan out over the chunk table, each validating
/// its frames' checksums before the payload is accepted. Any mismatch
/// fails the restore with kCorruption — a damaged chunk is never silently
/// loaded.
class CheckpointReader {
 public:
  CheckpointReader(std::shared_ptr<Storage> storage, std::string root,
                   RetryPolicy retry = RetryPolicy(), int num_threads = 4);

  /// Sequence numbers of every *valid* checkpoint under the root
  /// (manifest present and self-consistent), ascending. An empty list with
  /// OK means the root exists but holds no usable checkpoint.
  Status ListValid(std::vector<uint64_t>* seqs);

  /// Loads checkpoint `seq` (manifest + all chunks, checksum-verified).
  Status Read(uint64_t seq, CheckpointData* out);

  /// Loads the newest valid checkpoint; kNotFound when none exists.
  Status ReadLatest(CheckpointData* out);

  uint64_t retries() const { return retries_; }
  /// Chunks loaded by the last successful Read (restore_chunks metric).
  uint64_t last_restore_chunks() const { return last_restore_chunks_; }

 private:
  Status ReadManifest(uint64_t seq, CheckpointData* out,
                      std::vector<ManifestChunk>* chunks);

  std::shared_ptr<Storage> storage_;
  std::string root_;
  RetryPolicy retry_;
  int num_threads_;
  uint64_t retries_ = 0;
  uint64_t last_restore_chunks_ = 0;
};

/// Directory name for checkpoint `seq` ("checkpoint_0000000042").
std::string CheckpointDirName(uint64_t seq);

}  // namespace corrtrack::storage

#endif  // CORRTRACK_STORAGE_CHECKPOINT_H_
