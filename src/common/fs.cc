#include "common/fs.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace cqcs {

namespace {

Status Errno(const std::string& op, const std::string& path) {
  return Status::Internal("io: " + op + " " + path + ": " +
                          std::strerror(errno));
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    // A destructor cannot propagate the error; callers that care about the
    // close status (the WAL ack path) call Close() explicitly first.
    CQCS_IGNORE_RESULT(Close());
  }

  Status Append(std::string_view data) override {
    if (fd_ < 0) return Status::Internal("io: write on closed " + path_);
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Errno("write", path_);
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::Internal("io: fsync on closed " + path_);
    if (::fsync(fd_) != 0) return Errno("fsync", path_);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return Errno("close", path_);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixFileSystem : public FileSystem {
 public:
  Result<std::unique_ptr<WritableFile>> OpenAppend(
      const std::string& path) override {
    return Open(path, O_WRONLY | O_CREAT | O_APPEND);
  }

  Result<std::unique_ptr<WritableFile>> OpenTrunc(
      const std::string& path) override {
    return Open(path, O_WRONLY | O_CREAT | O_TRUNC);
  }

  Result<std::string> ReadFile(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      if (errno == ENOENT) return Status::NotFound("io: no file " + path);
      return Errno("open", path);
    }
    std::string out;
    char buf[1 << 16];
    for (;;) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        Status s = Errno("read", path);
        ::close(fd);
        return s;
      }
      if (n == 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return out;
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return Errno("opendir", dir);
    std::vector<std::string> names;
    while (struct dirent* entry = ::readdir(d)) {
      std::string name = entry->d_name;
      if (name != "." && name != "..") names.push_back(std::move(name));
    }
    ::closedir(d);
    return names;
  }

  Status CreateDir(const std::string& dir) override {
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return Errno("mkdir", dir);
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return Errno("unlink", path);
    return Status::OK();
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Errno("rename", from + " -> " + to);
    }
    return Status::OK();
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return Errno("truncate", path);
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& dir) override {
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return Errno("open", dir);
    // Some filesystems refuse fsync on directories; that is not a
    // durability hole we can fix from here, so EINVAL passes.
    if (::fsync(fd) != 0 && errno != EINVAL) {
      Status s = Errno("fsync", dir);
      ::close(fd);
      return s;
    }
    ::close(fd);
    return Status::OK();
  }

  bool Exists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      if (errno == ENOENT) return Status::NotFound("io: no file " + path);
      return Errno("stat", path);
    }
    return static_cast<uint64_t>(st.st_size);
  }

 private:
  Result<std::unique_ptr<WritableFile>> Open(const std::string& path,
                                             int flags) {
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return Errno("open", path);
    return std::unique_ptr<WritableFile>(
        std::make_unique<PosixWritableFile>(fd, path));
  }
};

class SteadyClock : public Clock {
 public:
  uint64_t NowMs() override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

}  // namespace

/// Forwards to the base handle, injecting the owner's write/sync faults.
/// Lives outside the anonymous namespace so FaultyFs's friend declaration
/// reaches it.
class FaultyWritableFile : public WritableFile {
 public:
  FaultyWritableFile(FaultyFs* owner, std::unique_ptr<WritableFile> base)
      : owner_(owner), base_(std::move(base)) {}

  Status Append(std::string_view data) override {
    const FsFailpoints fp = owner_->failpoints();
    const uint64_t nth = ++owner_->writes_;
    if (fp.stall_write_n != 0 && nth == fp.stall_write_n) owner_->Stall();
    if (fp.fail_write_n != 0 && nth == fp.fail_write_n) {
      // A short write is a write the kernel acknowledged for fewer bytes
      // than asked: land the configured prefix, then report failure.
      const size_t keep = std::min(fp.short_write_bytes, data.size());
      if (keep > 0) {
        Status s = base_->Append(data.substr(0, keep));
        if (!s.ok()) return s;
      }
      return Status::Internal("io: injected write failure");
    }
    return base_->Append(data);
  }

  Status Sync() override {
    if (FaultyFs::Hits(&owner_->syncs_, owner_->failpoints().fail_sync_n)) {
      return Status::Internal("io: injected fsync failure");
    }
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }

 private:
  FaultyFs* owner_;
  std::unique_ptr<WritableFile> base_;
};

FileSystem* RealFileSystem() {
  static PosixFileSystem* fs = new PosixFileSystem();
  return fs;
}

Clock* RealClock() {
  static SteadyClock* clock = new SteadyClock();
  return clock;
}

bool FaultyFs::Hits(std::atomic<uint64_t>* counter, uint64_t n) {
  const uint64_t nth = ++*counter;
  return n != 0 && nth == n;
}

void FaultyFs::set_failpoints(const FsFailpoints& fp) {
  MutexLock lock(mu_);
  failpoints_ = fp;
}

FsFailpoints FaultyFs::failpoints() const {
  MutexLock lock(mu_);
  return failpoints_;
}

void FaultyFs::Stall() {
  MutexLock lock(mu_);
  stalled_ = true;
  stall_cv_.NotifyAll();
  stall_cv_.Wait(mu_, [&] { return stall_released_; });
}

void FaultyFs::AwaitStall() {
  MutexLock lock(mu_);
  stall_cv_.Wait(mu_, [&] { return stalled_; });
}

void FaultyFs::ReleaseStall() {
  MutexLock lock(mu_);
  stall_released_ = true;
  stall_cv_.NotifyAll();
}

Result<std::unique_ptr<WritableFile>> FaultyFs::OpenAppend(
    const std::string& path) {
  auto base = base_->OpenAppend(path);
  if (!base.ok()) return base.status();
  return std::unique_ptr<WritableFile>(
      std::make_unique<FaultyWritableFile>(this, *std::move(base)));
}

Result<std::unique_ptr<WritableFile>> FaultyFs::OpenTrunc(
    const std::string& path) {
  auto base = base_->OpenTrunc(path);
  if (!base.ok()) return base.status();
  return std::unique_ptr<WritableFile>(
      std::make_unique<FaultyWritableFile>(this, *std::move(base)));
}

Status FaultyFs::Rename(const std::string& from, const std::string& to) {
  if (Hits(&renames_, failpoints().fail_rename_n)) {
    return Status::Internal("io: injected rename failure");
  }
  return base_->Rename(from, to);
}

}  // namespace cqcs
