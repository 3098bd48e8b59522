#include "serve/durability.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/crc32c.h"
#include "common/strings.h"

namespace cqcs::serve {

namespace {

/// A record longer than this is framing corruption, not data: the length
/// word decoded from a damaged header must not drive a giant allocation.
constexpr uint64_t kMaxRecordBytes = 1ull << 30;

constexpr size_t kHeaderBytes = 8;  // u32 length + u32 crc32c, both LE

/// Writes `v` little-endian over the four bytes at `out`.
void PutLe32(uint32_t v, char* out) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

uint32_t GetLe32(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

// A frame is built in one buffer: NewFrame reserves the header's 8 bytes,
// the caller appends the payload behind them, and SealFrame patches in the
// payload's length and CRC32C. No payload is built apart and copied in.

/// An empty record frame: the header's 8 bytes, zero until SealFrame
/// fills them in, with room reserved for `payload_bytes` more.
std::string NewFrame(size_t payload_bytes) {
  std::string frame;
  frame.reserve(kHeaderBytes + payload_bytes);
  frame.append(kHeaderBytes, '\0');
  return frame;
}

/// Fills in the header of a frame whose payload is complete.
void SealFrame(std::string* frame) {
  const std::string_view payload =
      std::string_view(*frame).substr(kHeaderBytes);
  PutLe32(static_cast<uint32_t>(payload.size()), frame->data());
  PutLe32(Crc32c(payload), frame->data() + 4);
}

/// The catalog-name constraint, for names arriving from a possibly-corrupt
/// log record AND for names being acknowledged into one — the same
/// predicate on both sides, or an acknowledged record would be truncated
/// as corruption on replay.
bool ValidRecordName(std::string_view name) { return IsCatalogName(name); }

/// The snapshot file is PrintCatalog output plus this whole-file CRC
/// footer; a snapshot without a matching footer is invalid, never "mostly
/// loaded".
constexpr size_t kSnapshotFooterBytes = 13;  // "crc " + 8 hex + "\n"

std::string SnapshotFooter(std::string_view payload) {
  static const char* kHex = "0123456789abcdef";
  uint32_t crc = Crc32c(payload);
  std::string footer = "crc ";
  for (int shift = 28; shift >= 0; shift -= 4) {
    footer.push_back(kHex[(crc >> shift) & 0xF]);
  }
  footer.push_back('\n');
  return footer;
}

Result<std::vector<CatalogEntry>> LoadSnapshot(const std::string& content) {
  if (content.size() < kSnapshotFooterBytes) {
    return Status::ParseError("snapshot too short for its CRC footer");
  }
  const std::string_view payload(content.data(),
                                 content.size() - kSnapshotFooterBytes);
  const std::string_view footer(content.data() + payload.size(),
                                kSnapshotFooterBytes);
  if (footer != SnapshotFooter(payload)) {
    return Status::ParseError("snapshot CRC footer mismatch");
  }
  return ParseCatalog(payload);
}

/// Parses a gen-numbered file name ("wal-12" with prefix "wal-").
std::optional<uint64_t> ParseGen(std::string_view name,
                                 std::string_view prefix) {
  if (!StartsWith(name, prefix)) return std::nullopt;
  uint64_t gen = 0;
  if (!ParseUint64(name.substr(prefix.size()), &gen)) return std::nullopt;
  return gen;
}

void ApplyUpsert(std::vector<CatalogEntry>* catalog, std::string name,
                 uint64_t version, Structure db) {
  for (CatalogEntry& entry : *catalog) {
    if (entry.name == name) {
      entry.version = version;
      entry.db = std::move(db);
      return;
    }
  }
  catalog->push_back(CatalogEntry{std::move(name), version, std::move(db)});
}

void ApplyDrop(std::vector<CatalogEntry>* catalog, std::string_view name) {
  catalog->erase(std::remove_if(catalog->begin(), catalog->end(),
                                [&](const CatalogEntry& e) {
                                  return e.name == name;
                                }),
                 catalog->end());
}

/// Decodes and applies one record payload. A false return means the
/// payload is not a well-formed command — framing said the bytes were
/// intact (CRC matched), but the content is garbage, so recovery treats it
/// exactly like a torn record: truncate from here.
bool ApplyRecord(std::string_view payload,
                 std::vector<CatalogEntry>* catalog) {
  const size_t eol = payload.find('\n');
  if (eol == std::string_view::npos) return false;
  auto tokens = SplitWhitespace(payload.substr(0, eol));
  if (tokens.size() == 3 && tokens[0] == "U") {
    if (!ValidRecordName(tokens[1])) return false;
    uint64_t version = 0;
    if (!ParseUint64(tokens[2], &version)) return false;
    auto db = ParseStructure(payload.substr(eol + 1));
    if (!db.ok() || !db->Validate().ok()) return false;
    ApplyUpsert(catalog, std::string(tokens[1]), version, *std::move(db));
    return true;
  }
  if (tokens.size() == 2 && tokens[0] == "D") {
    if (!ValidRecordName(tokens[1])) return false;
    ApplyDrop(catalog, tokens[1]);
    return true;
  }
  return false;
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "unknown";
}

std::optional<FsyncPolicy> ParseFsyncPolicyName(std::string_view name) {
  if (name == "always") return FsyncPolicy::kAlways;
  if (name == "interval") return FsyncPolicy::kInterval;
  if (name == "never") return FsyncPolicy::kNever;
  return std::nullopt;
}

std::string EncodeUpsertRecord(std::string_view name, uint64_t version,
                               const Structure& db) {
  std::string frame = NewFrame(name.size() + 24 + StructureTextHint(db));
  frame += "U ";
  frame += name;
  frame += ' ';
  AppendUint64(version, &frame);
  frame += '\n';
  AppendStructure(db, &frame);
  SealFrame(&frame);
  return frame;
}

DurabilityManager::DurabilityManager(DurabilityOptions options,
                                     FileSystem* fs, Clock* clock)
    : options_(std::move(options)), fs_(fs), clock_(clock) {}

DurabilityManager::~DurabilityManager() {
  MutexLock lock(mu_);
  if (wal_ != nullptr && dirty_since_sync_) {
    // Clean shutdown closes the interval policy's loss window: an idle
    // writer's dirty tail would otherwise stay unsynced indefinitely.
    // Destructors cannot propagate; a failed final sync is the same loss
    // window the interval policy already accepts.
    CQCS_IGNORE_RESULT(wal_->Sync());
  }
}

std::string DurabilityManager::WalPath(uint64_t gen) const {
  return options_.data_dir + "/wal-" + std::to_string(gen);
}

std::string DurabilityManager::SnapshotPath(uint64_t gen) const {
  return options_.data_dir + "/snapshot-" + std::to_string(gen);
}

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    const DurabilityOptions& options, std::vector<CatalogEntry>* recovered,
    RecoveryInfo* info) {
  FileSystem* fs = options.fs != nullptr ? options.fs : RealFileSystem();
  Clock* clock = options.clock != nullptr ? options.clock : RealClock();
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("durability requires a data_dir");
  }
  auto manager = std::unique_ptr<DurabilityManager>(
      new DurabilityManager(options, fs, clock));
  CQCS_RETURN_IF_ERROR(fs->CreateDir(options.data_dir));

  RecoveryInfo local_info;
  RecoveryInfo& rec = info != nullptr ? *info : local_info;
  rec = RecoveryInfo{};
  recovered->clear();

  auto listed = fs->ListDir(options.data_dir);
  if (!listed.ok()) return listed.status();
  std::vector<uint64_t> snapshot_gens;
  std::vector<uint64_t> wal_gens;
  for (const std::string& name : *listed) {
    if (auto g = ParseGen(name, "snapshot-")) snapshot_gens.push_back(*g);
    if (auto g = ParseGen(name, "wal-")) wal_gens.push_back(*g);
  }
  std::sort(snapshot_gens.rbegin(), snapshot_gens.rend());

  // ---- Newest valid snapshot wins. ----------------------------------------
  uint64_t gen = 0;
  if (!snapshot_gens.empty()) {
    bool loaded = false;
    for (uint64_t g : snapshot_gens) {
      auto content = fs->ReadFile(manager->SnapshotPath(g));
      if (!content.ok()) {
        rec.warnings.push_back("snapshot-" + std::to_string(g) +
                               " unreadable: " + content.status().ToString());
        continue;
      }
      auto catalog = LoadSnapshot(*content);
      if (!catalog.ok()) {
        rec.warnings.push_back("snapshot-" + std::to_string(g) +
                               " invalid: " + catalog.status().ToString());
        continue;
      }
      *recovered = *std::move(catalog);
      gen = g;
      rec.snapshot_loaded = true;
      loaded = true;
      break;
    }
    if (!loaded) {
      // Guessing here could silently serve an old catalog as current;
      // refusing is the only honest move.
      return Status::Internal(
          "recovery: snapshots exist in " + options.data_dir +
          " but none is valid — refusing to guess at the catalog");
    }
  } else if (!wal_gens.empty()) {
    gen = *std::min_element(wal_gens.begin(), wal_gens.end());
    if (gen > 0) {
      rec.warnings.push_back(
          "log generations from " + std::to_string(gen) +
          " have no snapshot; replaying them over an empty catalog");
    }
  }
  const uint64_t max_wal_gen =
      wal_gens.empty() ? gen
                       : *std::max_element(wal_gens.begin(), wal_gens.end());

  // ---- Replay the chain of logs starting at `gen`. ------------------------
  // A snapshot write can fail (or a crash can land) between a rotation and
  // the snapshot landing, so any number of consecutive generations may
  // follow the newest valid snapshot; all of them hold acknowledged records
  // and all must replay, in order. A torn tail is truncated only on the
  // FINAL log (dying mid-append is normal); damage earlier in the chain, or
  // a hole in it, is external corruption — stop there, serve the prefix,
  // and poison the log so nothing dropped can be resurrected or reordered
  // by a later generation.
  size_t off = 0;
  for (;;) {
    const std::string wal_path = manager->WalPath(gen);
    if (!fs->Exists(wal_path)) {
      // Legitimate for the latest generation (crash before the rotated
      // log's first byte, or a fresh directory); a hole with logs beyond
      // it means generations were deleted out from under us.
      if (max_wal_gen > gen) {
        manager->poisoned_ = true;
        rec.warnings.push_back(
            "wal-" + std::to_string(gen) + " is missing but wal-" +
            std::to_string(max_wal_gen) +
            " exists; refusing to jump the hole — log poisoned, updates "
            "will be refused");
      }
      off = 0;
      break;
    }
    auto content = fs->ReadFile(wal_path);
    if (!content.ok()) return content.status();
    const std::string log = *std::move(content);
    const bool final_log = !fs->Exists(manager->WalPath(gen + 1));
    off = 0;
    while (off + kHeaderBytes <= log.size()) {
      const uint64_t len = GetLe32(log.data() + off);
      const uint32_t want_crc = GetLe32(log.data() + off + 4);
      if (len > kMaxRecordBytes || off + kHeaderBytes + len > log.size()) {
        break;  // torn mid-record (the normal kill -9 signature)
      }
      const std::string_view payload(log.data() + off + kHeaderBytes,
                                     static_cast<size_t>(len));
      if (Crc32c(payload) != want_crc) break;
      if (!ApplyRecord(payload, recovered)) break;
      off += kHeaderBytes + static_cast<size_t>(len);
      ++rec.records_replayed;
    }
    if (off < log.size()) {
      if (final_log) {
        rec.tail_truncated = true;
        rec.tail_bytes_dropped = log.size() - off;
        rec.warnings.push_back(
            "truncated torn/corrupt log tail: dropped " +
            std::to_string(rec.tail_bytes_dropped) + " byte(s) of wal-" +
            std::to_string(gen) + " at offset " + std::to_string(off));
        Status cut = fs->Truncate(wal_path, off);
        if (!cut.ok()) {
          // Can't repair the tail: appending after garbage would bury
          // future records behind it, so the log is poisoned (reads still
          // serve).
          manager->poisoned_ = true;
          rec.warnings.push_back("tail truncation failed (" + cut.ToString() +
                                 "); log poisoned — updates will be refused");
        }
      } else {
        // Not truncated: the bytes (and the later logs) stay on disk as
        // evidence; poisoning keeps this recovery idempotent.
        manager->poisoned_ = true;
        rec.warnings.push_back(
            "wal-" + std::to_string(gen) + " is corrupt at offset " +
            std::to_string(off) +
            " but later log generations exist; stopping replay here — log "
            "poisoned, updates will be refused");
      }
      break;
    }
    if (final_log) break;
    ++gen;
  }
  rec.generation = gen;
  manager->generation_ = gen;
  manager->good_offset_ = off;

  if (!manager->poisoned_) {
    auto wal = fs->OpenAppend(manager->WalPath(gen));
    if (!wal.ok()) {
      manager->poisoned_ = true;
      rec.warnings.push_back("cannot open log for append (" +
                             wal.status().ToString() +
                             "); updates will be refused");
    } else {
      manager->wal_ = *std::move(wal);
    }
  }
  manager->last_sync_ms_ = clock->NowMs();
  manager->counters_.poisoned = manager->poisoned_;
  manager->counters_.wal_bytes = manager->good_offset_;
  return manager;
}

Status DurabilityManager::AppendUpsert(const std::string& name,
                                       uint64_t version,
                                       const Structure& db) {
  if (!ValidRecordName(name)) {
    return Status::InvalidArgument(
        "database name \"" + name +
        "\" contains whitespace or control bytes; recovery would reject "
        "its record, so it must not be acknowledged");
  }
  return AppendRecord(EncodeUpsertRecord(name, version, db));
}

Status DurabilityManager::AppendDrop(const std::string& name) {
  if (!ValidRecordName(name)) {
    return Status::InvalidArgument(
        "database name \"" + name +
        "\" contains whitespace or control bytes; recovery would reject "
        "its record, so it must not be acknowledged");
  }
  std::string frame = NewFrame(name.size() + 3);
  frame += "D ";
  frame += name;
  frame += '\n';
  SealFrame(&frame);
  return AppendRecord(frame);
}

Status DurabilityManager::AppendRecord(const std::string& frame) {
  MutexLock lock(mu_);
  if (poisoned_ || wal_ == nullptr) {
    ++counters_.wal_append_failures;
    return Status::Unavailable(
        "write-ahead log is poisoned; updates are refused (reads keep "
        "serving from memory)");
  }
  // Recovery treats a length word past the ceiling as framing corruption
  // and truncates the record AND everything after it — so an oversized
  // payload must be refused here, before any byte is written, never
  // acknowledged. (The ceiling also keeps the u32 length word exact: a
  // payload too long for it was sealed with a wrapped length, and is
  // refused here.)
  const uint64_t limit =
      options_.max_record_bytes == 0
          ? kMaxRecordBytes
          : std::min<uint64_t>(options_.max_record_bytes, kMaxRecordBytes);
  const size_t payload_bytes = frame.size() - kHeaderBytes;
  if (payload_bytes > limit) {
    return Status::InvalidArgument(
        "record payload of " + std::to_string(payload_bytes) +
        " bytes exceeds the write-ahead log record limit of " +
        std::to_string(limit) + " bytes; the update is refused");
  }
  Status written = wal_->Append(frame);
  if (!written.ok()) {
    ++counters_.wal_append_failures;
    RewindLog();
    return Status::Unavailable("write-ahead log append failed: " +
                               written.ToString());
  }
  bool synced = false;
  switch (options_.fsync) {
    case FsyncPolicy::kAlways:
      synced = true;
      break;
    case FsyncPolicy::kInterval: {
      const uint64_t now = clock_->NowMs();
      if (now - last_sync_ms_ >= options_.fsync_interval_ms) {
        synced = true;
      } else {
        dirty_since_sync_ = true;
      }
      break;
    }
    case FsyncPolicy::kNever:
      break;
  }
  if (synced) {
    Status s = wal_->Sync();
    if (!s.ok()) {
      // The bytes may or may not be durable; refusing AND rewinding keeps
      // the ack set and the log in agreement either way.
      ++counters_.wal_append_failures;
      RewindLog();
      return Status::Unavailable("write-ahead log fsync failed: " +
                                 s.ToString());
    }
    ++counters_.wal_syncs;
    last_sync_ms_ = clock_->NowMs();
    dirty_since_sync_ = false;
  }
  good_offset_ += frame.size();
  counters_.wal_bytes = good_offset_;
  ++counters_.wal_appends;
  ++records_since_snapshot_;
  return Status::OK();
}

void DurabilityManager::RewindLog() {
  // Called with mu_ held, after a failed append/fsync: the log may hold a
  // partial frame past good_offset_. Cut it back and reopen; if either
  // step fails the log stays poisoned so no future record lands after
  // garbage (recovery would truncate that garbage AND everything behind
  // it).
  wal_.reset();  // close (flushes the fd; content past good_offset_ is junk)
  Status cut = fs_->Truncate(WalPath(generation_), good_offset_);
  if (!cut.ok()) {
    poisoned_ = true;
    counters_.poisoned = true;
    return;
  }
  auto reopened = fs_->OpenAppend(WalPath(generation_));
  if (!reopened.ok()) {
    poisoned_ = true;
    counters_.poisoned = true;
    return;
  }
  wal_ = *std::move(reopened);
}

bool DurabilityManager::SnapshotDue() const {
  MutexLock lock(mu_);
  return options_.snapshot_every_records > 0 &&
         records_since_snapshot_ >= options_.snapshot_every_records;
}

Status DurabilityManager::RotateLog(uint64_t* new_gen) {
  MutexLock lock(mu_);
  if (poisoned_ || wal_ == nullptr) {
    ++counters_.snapshot_failures;
    return Status::Unavailable(
        "write-ahead log is poisoned; cannot rotate to a new generation");
  }
  if (dirty_since_sync_) {
    // The old log is never touched again after rotation, but its records
    // are acknowledged: close the interval policy's window before
    // abandoning the handle.
    Status s = wal_->Sync();
    if (!s.ok()) {
      ++counters_.snapshot_failures;
      return Status::Unavailable("log rotation: fsync of current log: " +
                                 s.ToString());
    }
    ++counters_.wal_syncs;
    dirty_since_sync_ = false;
  }
  const uint64_t next_gen = generation_ + 1;
  auto fresh = fs_->OpenTrunc(WalPath(next_gen));
  if (!fresh.ok()) {
    // Non-fatal: the current generation keeps accepting appends and the
    // rotation is retried by the next SnapshotDue() trigger.
    ++counters_.snapshot_failures;
    return Status::Internal("log rotation: new log open failed: " +
                            fresh.status().ToString());
  }
  wal_ = *std::move(fresh);
  generation_ = next_gen;
  good_offset_ = 0;
  records_since_snapshot_ = 0;
  counters_.wal_bytes = 0;
  if (new_gen != nullptr) *new_gen = next_gen;
  return Status::OK();
}

Status DurabilityManager::WriteSnapshot(
    uint64_t gen, const std::vector<CatalogEntry>& catalog) {
  // Deliberately does NOT hold mu_ across the serialization and file I/O:
  // appends (which went to wal-<gen> or later at rotation time) proceed
  // concurrently; this path only touches snapshot files and stale
  // generations.
  const std::string payload = PrintCatalog(catalog);
  const std::string snap_path = SnapshotPath(gen);
  const std::string tmp_path = snap_path + ".tmp";

  auto fail = [&](const std::string& what, const Status& cause) {
    // Best-effort cleanup: the primary error is `cause`; a stale .tmp file
    // is invisible to recovery.
    CQCS_IGNORE_RESULT(fs_->RemoveFile(tmp_path));
    ++counters_.snapshot_failures;
    return Status::Internal("snapshot: " + what + ": " + cause.ToString());
  };

  // Write-temp-then-rename: a crash at any point before the rename leaves
  // only a .tmp file recovery ignores.
  auto tmp = fs_->OpenTrunc(tmp_path);
  if (!tmp.ok()) return fail("open temp", tmp.status());
  Status s = (*tmp)->Append(payload);
  if (s.ok()) s = (*tmp)->Append(SnapshotFooter(payload));
  if (s.ok()) s = (*tmp)->Sync();
  if (s.ok()) s = (*tmp)->Close();
  if (!s.ok()) return fail("write temp", s);
  s = fs_->Rename(tmp_path, snap_path);
  if (!s.ok()) return fail("rename", s);

  // -- Commit point: the snapshot exists under its final name and recovery
  // will prefer it over everything below `gen`.
  // Best effort: the rename is already atomic, and recovery replays the
  // log chain if the directory entry is lost to a crash.
  CQCS_IGNORE_RESULT(fs_->SyncDir(options_.data_dir));
  ++counters_.snapshots;

  // Generations below the snapshot are now dead weight; removal is pure
  // cleanup and recovery ignores them either way.
  auto listed = fs_->ListDir(options_.data_dir);
  if (listed.ok()) {
    for (const std::string& name : *listed) {
      auto sg = ParseGen(name, "snapshot-");
      auto wg = ParseGen(name, "wal-");
      if ((sg.has_value() && *sg < gen) || (wg.has_value() && *wg < gen)) {
        // Best-effort prune: a generation that survives removal is ignored
        // by recovery (the newer snapshot shadows it).
        CQCS_IGNORE_RESULT(fs_->RemoveFile(options_.data_dir + "/" + name));
      }
    }
  }
  return Status::OK();
}

Status DurabilityManager::Snapshot(const std::vector<CatalogEntry>& catalog) {
  uint64_t gen = 0;
  CQCS_RETURN_IF_ERROR(RotateLog(&gen));
  return WriteSnapshot(gen, catalog);
}

DurabilityStats DurabilityManager::stats() const {
  DurabilityStats stats;
  stats.wal_appends = counters_.wal_appends.load();
  stats.wal_append_failures = counters_.wal_append_failures.load();
  stats.wal_syncs = counters_.wal_syncs.load();
  stats.snapshots = counters_.snapshots.load();
  stats.snapshot_failures = counters_.snapshot_failures.load();
  stats.wal_bytes = counters_.wal_bytes.load();
  stats.poisoned = counters_.poisoned.load();
  return stats;
}

uint64_t DurabilityManager::generation() const {
  MutexLock lock(mu_);
  return generation_;
}

}  // namespace cqcs::serve
