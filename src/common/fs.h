// Injectable filesystem and clock seams for the durable serving state
// (serve/durability.h), in the same failpoint philosophy as
// common/governor.h: production code talks to an abstract FileSystem /
// Clock, tests wrap the real one in a FaultyFs that fails or short-writes
// the Nth write / fsync / rename deterministically. I/O failures are the
// one fault class kill -9 chaos testing cannot produce on demand — the
// seam makes "the disk said no, exactly here" a unit-test input.
//
// The surface is the minimal set the write-ahead log and snapshots need:
// append-handle writes with explicit Sync(), whole-file reads, atomic
// Rename (the snapshot commit point), Truncate (torn-tail repair), and
// directory listing/fsync (so a rename is durable, not just atomic).
//
// Everything returns Status/Result — a durability layer that aborts on I/O
// errors would defeat its purpose.

#ifndef CQCS_COMMON_FS_H_
#define CQCS_COMMON_FS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace cqcs {

/// An open file being appended to. Append() adds bytes at the end; Sync()
/// is fsync — bytes are only durable across kill -9 after it returns OK.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(std::string_view data) = 0;
  virtual Status Sync() = 0;
  /// Close is idempotent; the destructor closes without reporting errors.
  virtual Status Close() = 0;
};

/// The filesystem operations durability needs. Paths are plain strings;
/// implementations do not interpret them beyond passing them to the OS.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Opens `path` for appending, creating it if absent.
  virtual Result<std::unique_ptr<WritableFile>> OpenAppend(
      const std::string& path) = 0;
  /// Opens `path` truncated to empty, creating it if absent.
  virtual Result<std::unique_ptr<WritableFile>> OpenTrunc(
      const std::string& path) = 0;

  virtual Result<std::string> ReadFile(const std::string& path) = 0;
  virtual Result<std::vector<std::string>> ListDir(const std::string& dir) = 0;
  /// OK if the directory exists afterwards (EEXIST is success).
  virtual Status CreateDir(const std::string& dir) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  /// Atomic replace (POSIX rename). The snapshot commit point.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  /// Cuts `path` down to `size` bytes. Torn-tail repair.
  virtual Status Truncate(const std::string& path, uint64_t size) = 0;
  /// fsyncs the directory itself so completed renames/creates survive a
  /// crash of the metadata journal.
  virtual Status SyncDir(const std::string& dir) = 0;
  virtual bool Exists(const std::string& path) = 0;
  virtual Result<uint64_t> FileSize(const std::string& path) = 0;
};

/// The process-wide POSIX filesystem (never deleted).
FileSystem* RealFileSystem();

/// Monotonic time source for the interval fsync policy.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual uint64_t NowMs() = 0;
};

/// The process-wide steady-clock implementation (never deleted).
Clock* RealClock();

/// A Clock tests advance by hand.
class ManualClock : public Clock {
 public:
  uint64_t NowMs() override { return now_ms_; }
  void Advance(uint64_t ms) { now_ms_ += ms; }

 private:
  uint64_t now_ms_ = 0;
};

/// Fault injection for FileSystem. Counters are 1-based and shared across
/// all files opened through this wrapper: with fail_write_n = 3, the third
/// Append() observed anywhere fails (after short-writing
/// short_write_bytes of its payload to the underlying file, so tests can
/// manufacture torn records exactly); later writes succeed again. Zero
/// disables a failpoint. The same scheme covers Sync and Rename.
///
/// stall_write_n counts on the same Append counter: the Nth Append blocks,
/// before writing a byte, until FaultyFs::ReleaseStall() — so a test can
/// hold a writer inside its WAL append and probe what else still runs.
struct FsFailpoints {
  uint64_t fail_write_n = 0;
  size_t short_write_bytes = 0;  ///< bytes the failing write still lands
  uint64_t fail_sync_n = 0;
  uint64_t fail_rename_n = 0;
  uint64_t stall_write_n = 0;
};

/// A FileSystem decorator that injects the configured faults and forwards
/// everything else to the base filesystem. Thread-safe: a snapshot write
/// and a WAL append may run through one FaultyFs at once, so the counters
/// are atomic and the failpoints sit under a mutex.
class FaultyFs : public FileSystem {
 public:
  explicit FaultyFs(FileSystem* base, FsFailpoints failpoints = {})
      : base_(base), failpoints_(failpoints) {}

  void set_failpoints(const FsFailpoints& fp) CQCS_EXCLUDES(mu_);
  uint64_t writes() const { return writes_.load(); }
  uint64_t syncs() const { return syncs_.load(); }
  uint64_t renames() const { return renames_.load(); }

  /// Blocks until the stall_write_n Append has started stalling.
  void AwaitStall() CQCS_EXCLUDES(mu_);
  /// Lets the stalled Append proceed (and any later one pass the stall).
  void ReleaseStall() CQCS_EXCLUDES(mu_);

  Result<std::unique_ptr<WritableFile>> OpenAppend(
      const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> OpenTrunc(
      const std::string& path) override;
  Result<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }
  Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status Rename(const std::string& from, const std::string& to) override;
  Status Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }
  bool Exists(const std::string& path) override { return base_->Exists(path); }
  Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }

 private:
  friend class FaultyWritableFile;
  FsFailpoints failpoints() const CQCS_EXCLUDES(mu_);
  /// Counts one call; true when it is the Nth — the caller then injects
  /// its fault.
  static bool Hits(std::atomic<uint64_t>* counter, uint64_t n);
  /// The stall_write_n Append's wait for ReleaseStall().
  void Stall() CQCS_EXCLUDES(mu_);

  FileSystem* base_;
  mutable Mutex mu_;
  FsFailpoints failpoints_ CQCS_GUARDED_BY(mu_);
  bool stalled_ CQCS_GUARDED_BY(mu_) = false;
  bool stall_released_ CQCS_GUARDED_BY(mu_) = false;
  CondVar stall_cv_;
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> renames_{0};
};

}  // namespace cqcs

#endif  // CQCS_COMMON_FS_H_
