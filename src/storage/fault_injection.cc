#include "storage/fault_injection.h"

#include <algorithm>
#include <utility>

namespace corrtrack::storage {

/// Wraps a writable file; write-side faults are drawn per operation from
/// the owning storage's shared schedule, so one op counter covers the
/// whole backend surface. Namespace scope (not anonymous) so it matches
/// the friend declaration in the header.
class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(FaultInjectingStorage* owner,
                    std::unique_ptr<WritableFile> inner)
      : owner_(owner), inner_(std::move(inner)) {}

  Status Append(std::string_view data) override;
  Status Sync() override;
  Status Close() override;

 private:
  FaultInjectingStorage* owner_;
  std::unique_ptr<WritableFile> inner_;
};

FaultInjectingStorage::FaultInjectingStorage(std::shared_ptr<Storage> inner,
                                             FaultPlan plan)
    : inner_(std::move(inner)), faults_(std::move(plan)) {}

FaultKind FaultInjectingStorage::Draw(
    std::initializer_list<FaultKind> applicable) {
  return faults_.Next([applicable](FaultKind kind) {
    return std::find(applicable.begin(), applicable.end(), kind) !=
           applicable.end();
  });
}

namespace {

Status FaultStatus(FaultKind kind, const std::string& what) {
  switch (kind) {
    case FaultKind::kNoSpace:
      return Status::NoSpace("injected ENOSPC: " + what);
    case FaultKind::kFsyncFail:
      return Status::IOError("injected fsync failure: " + what);
    case FaultKind::kTornRename:
      return Status::IOError("injected torn rename: " + what);
    case FaultKind::kTransient:
      return Status::Unavailable("injected transient fault: " + what);
    default:
      return Status::IOError("injected fault: " + what);
  }
}

}  // namespace

Status FaultWritableFile::Append(std::string_view data) {
  const FaultKind fault = owner_->Draw(
      {FaultKind::kShortWrite, FaultKind::kNoSpace, FaultKind::kTransient});
  if (fault == FaultKind::kShortWrite) {
    // Silent damage: half the bytes land, the call reports success — only
    // a read-time checksum can catch this.
    return inner_->Append(data.substr(0, data.size() / 2));
  }
  if (fault != FaultKind::kNone) return FaultStatus(fault, "append");
  return inner_->Append(data);
}

Status FaultWritableFile::Sync() {
  const FaultKind fault =
      owner_->Draw({FaultKind::kFsyncFail, FaultKind::kTransient});
  if (fault == FaultKind::kFsyncFail) return FaultStatus(fault, "sync");
  if (fault != FaultKind::kNone) return FaultStatus(fault, "sync");
  return inner_->Sync();
}

Status FaultWritableFile::Close() {
  // Close is not a fault point: the durability decision already happened
  // at Sync, and a close failure after a successful fsync is benign.
  return inner_->Close();
}

Status FaultInjectingStorage::NewWritableFile(
    const std::string& path, std::unique_ptr<WritableFile>* file) {
  const FaultKind fault = Draw({FaultKind::kTransient});
  if (fault != FaultKind::kNone) return FaultStatus(fault, "open " + path);
  std::unique_ptr<WritableFile> inner;
  const Status status = inner_->NewWritableFile(path, &inner);
  if (!status.ok()) return status;
  *file = std::make_unique<FaultWritableFile>(this, std::move(inner));
  return Status::OK();
}

Status FaultInjectingStorage::ReadFile(const std::string& path,
                                       std::string* out) {
  const FaultKind fault =
      Draw({FaultKind::kReadCorruption, FaultKind::kTransient});
  if (fault == FaultKind::kTransient) {
    return FaultStatus(fault, "read " + path);
  }
  const Status status = inner_->ReadFile(path, out);
  if (!status.ok()) return status;
  if (fault == FaultKind::kReadCorruption && !out->empty()) {
    const uint64_t roll = SplitMix64(faults_.schedule().seed ^ ops());
    const size_t pos = static_cast<size_t>(roll % out->size());
    (*out)[pos] = static_cast<char>((*out)[pos] ^ (1u << (roll % 8)));
  }
  return Status::OK();
}

Status FaultInjectingStorage::FileExists(const std::string& path) {
  const FaultKind fault = Draw({FaultKind::kTransient});
  if (fault != FaultKind::kNone) return FaultStatus(fault, "stat " + path);
  return inner_->FileExists(path);
}

Status FaultInjectingStorage::CreateDirs(const std::string& path) {
  const FaultKind fault = Draw({FaultKind::kTransient});
  if (fault != FaultKind::kNone) return FaultStatus(fault, "mkdir " + path);
  return inner_->CreateDirs(path);
}

Status FaultInjectingStorage::DeleteFile(const std::string& path) {
  const FaultKind fault = Draw({FaultKind::kTransient});
  if (fault != FaultKind::kNone) return FaultStatus(fault, "unlink " + path);
  return inner_->DeleteFile(path);
}

Status FaultInjectingStorage::RenameFile(const std::string& from,
                                         const std::string& to) {
  const FaultKind fault =
      Draw({FaultKind::kTornRename, FaultKind::kTransient});
  if (fault != FaultKind::kNone) {
    return FaultStatus(fault, "rename " + from + " -> " + to);
  }
  return inner_->RenameFile(from, to);
}

Status FaultInjectingStorage::ListDirectory(const std::string& path,
                                            std::vector<std::string>* names) {
  const FaultKind fault = Draw({FaultKind::kTransient});
  if (fault != FaultKind::kNone) return FaultStatus(fault, "list " + path);
  return inner_->ListDirectory(path, names);
}

Status FaultInjectingStorage::DeleteDirRecursive(const std::string& path) {
  // Cleanup path: never fault-injected, so a failed checkpoint can always
  // scrub its partial directory (matching real deployments, where cleanup
  // failures are retried by the next checkpoint's scrub anyway).
  return inner_->DeleteDirRecursive(path);
}

}  // namespace corrtrack::storage
