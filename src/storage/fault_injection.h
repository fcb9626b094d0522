#ifndef CORRTRACK_STORAGE_FAULT_INJECTION_H_
#define CORRTRACK_STORAGE_FAULT_INJECTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fault_schedule.h"
#include "storage/storage.h"

namespace corrtrack::storage {

/// The fault classes the decorator can inject. Two families:
///  * silent data damage (kShortWrite, kReadCorruption) — the operation
///    *succeeds*; only the checkpoint frame CRCs can catch it, which is
///    what the corruption-detection tests pin.
///  * reported errors (kNoSpace, kFsyncFail, kTornRename, kTransient) —
///    the operation returns a Status; kTransient is the only retryable one.
enum class FaultKind : uint8_t {
  kNone = 0,
  kShortWrite,      ///< Append silently drops a suffix of the data.
  kNoSpace,         ///< Append fails with kNoSpace (ENOSPC mid-write).
  kFsyncFail,       ///< Sync fails with kIOError; durability unknown.
  kReadCorruption,  ///< ReadFile succeeds but one bit is flipped.
  kTornRename,      ///< RenameFile fails; the destination never appears.
  kTransient,       ///< Any operation fails once with kUnavailable.
};

inline constexpr int kNumFaultKinds = 7;

inline const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kShortWrite:
      return "short_write";
    case FaultKind::kNoSpace:
      return "no_space";
    case FaultKind::kFsyncFail:
      return "fsync_fail";
    case FaultKind::kReadCorruption:
      return "read_corruption";
    case FaultKind::kTornRename:
      return "torn_rename";
    case FaultKind::kTransient:
      return "transient";
  }
  return "unknown";
}

/// The seeded storage fault schedule (core/fault_schedule.h). The
/// decorator numbers every call, including WritableFile ops; the
/// fault-matrix tests aim rules at exact protocol steps.
using FaultRule = corrtrack::FaultRule<FaultKind>;
using FaultPlan = FaultSchedule<FaultKind, kNumFaultKinds>;
using FaultStats = corrtrack::FaultStats<FaultKind, kNumFaultKinds>;

/// Decorator that wraps any backend in the seeded fault schedule. All
/// checkpoint I/O in this repo goes through a Storage*, so wrapping here
/// exercises every path the real backends have.
class FaultInjectingStorage : public Storage {
 public:
  FaultInjectingStorage(std::shared_ptr<Storage> inner, FaultPlan plan);

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* file) override;
  Status ReadFile(const std::string& path, std::string* out) override;
  Status FileExists(const std::string& path) override;
  Status CreateDirs(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status ListDirectory(const std::string& path,
                       std::vector<std::string>* names) override;
  Status DeleteDirRecursive(const std::string& path) override;
  const char* name() const override { return "fault-injecting"; }

  FaultStats stats() const { return faults_.stats(); }
  uint64_t ops() const { return faults_.ops(); }

 private:
  friend class FaultWritableFile;

  /// Draws the fault (if any) for the next operation, restricted to the
  /// kinds in `applicable`. Returns kNone when the op proceeds cleanly.
  FaultKind Draw(std::initializer_list<FaultKind> applicable);

  std::shared_ptr<Storage> inner_;
  FaultInjector<FaultKind, kNumFaultKinds> faults_;
};

}  // namespace corrtrack::storage

#endif  // CORRTRACK_STORAGE_FAULT_INJECTION_H_
