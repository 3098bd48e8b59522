// Durable serving state: a write-ahead command log plus periodic snapshots,
// so a ServingEngine restart (or kill -9) recovers every acknowledged
// UpsertDatabase / DropDatabase instead of silently serving an empty
// catalog.
//
// Layout under DurabilityOptions::data_dir (generation g is a counter that
// advances once per snapshot):
//
//   wal-<g>        append-only command log: length-prefixed, CRC32C-framed
//                  records, one per acknowledged update
//   snapshot-<g>   the full catalog at the moment wal-<g> was started
//                  (core/io PrintCatalog + a whole-file CRC footer),
//                  written temp-then-rename so it is atomic
//
// Record framing: [u32 LE payload length][u32 LE CRC32C of payload][payload].
// The payload is a text command — "U <name> <version>\n<structure text>" or
// "D <name>\n" — reusing the core/io structure format so a WAL is
// inspectable with `xxd | less` when something goes wrong at 3am.
//
// Anything recovery would reject is refused at acknowledgment time, never
// written: names must satisfy core/io's IsCatalogName (the rule the WAL
// replay and the snapshot parser both enforce), and a record payload must
// fit under the format's 1 GiB framing ceiling. Both refusals are
// InvalidArgument — a caller error, not a log failure.
//
// The contract, in order of importance:
//
//  1. An acknowledged update survives kill -9 (with FsyncPolicy::kAlways;
//     the interval/never policies trade the tail for throughput and say so).
//  2. Recovery NEVER crashes on a torn or corrupt log tail: the tail is
//     truncated at the first bad record, with a warning in RecoveryInfo —
//     a torn record is the normal signature of dying mid-append.
//  3. An update that was REFUSED (its append failed, possibly after a short
//     write) is never resurrected: the failed append rewinds the log to the
//     last known-good offset, and if even the rewind fails the log is
//     poisoned — every later append refuses — rather than appending after
//     garbage that a future recovery would truncate along with good
//     records behind it.
//
// Snapshots bound recovery time and log growth, and are two-phase so the
// expensive half never blocks serving:
//
//   RotateLog()      cheap (one file open): switches appends to an empty
//                    wal-<g+1>. Called with updates blocked, so the caller's
//                    catalog capture taken right after covers every record
//                    in generations <= g.
//   WriteSnapshot()  slow (serialize + fsync): writes snapshot-<g+1>
//                    (temp + fsync + rename + directory fsync), then prunes
//                    older generations. Runs with no caller lock held;
//                    replay is idempotent over absolute commands, so a
//                    catalog that is NEWER than the rotation point (updates
//                    raced in before the write) is also correct — wal-<g+1>
//                    replays those commands back on top.
//
// Recovery replays the CHAIN of logs: newest valid snapshot s, then
// wal-<s>, wal-<s+1>, ... while consecutive generations exist — so a crash
// (or a failed snapshot write) between rotation and the snapshot landing
// loses nothing; the un-snapshotted generations are simply replayed. A
// torn tail is truncated only on the FINAL log of the chain (the normal
// kill -9 signature); damage earlier in the chain, or a hole in it, means
// external corruption — recovery stops there, serves what it has, and
// poisons the log (updates refuse) rather than resurrect or reorder. A
// failed WriteSnapshot is retried only after another snapshot_every_records
// appends trigger the next rotation, never per update.
//
// All I/O goes through the common/fs.h seams, so tests inject failures at
// the Nth write/fsync/rename (FaultyFs) and drive the interval fsync clock
// by hand — the same failpoint philosophy as GovernorFailpoints, now
// covering the disk.
//
// Thread safety: Open() is a constructor; the instance methods take an
// internal mutex, held across the write and fsync of an append, but
// callers that need append order to match their own state order must
// serialize Append*/RotateLog against their state mutations themselves.
// The ServingEngine does so with its writer lock (writer_mu_), which it
// holds across every append and rotation; its registry lock is never held
// across a call into this class. stats() reads atomic counters and never
// waits on the internal mutex, so a stats probe does not queue behind an
// append's I/O.

#ifndef CQCS_SERVE_DURABILITY_H_
#define CQCS_SERVE_DURABILITY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/fs.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/io.h"

namespace cqcs::serve {

/// When an acknowledged WAL record is durable.
enum class FsyncPolicy {
  kAlways,  ///< fsync before every acknowledgment (crash loses nothing)
  /// fsync once fsync_interval_ms have passed since the last sync — checked
  /// on each append, so the bound only holds while appends keep arriving.
  /// An idle writer's dirty tail stays unsynced until the next append, a
  /// log rotation, or clean shutdown (the destructor syncs it); only
  /// kill -9 while idle can exceed the interval's loss window.
  kInterval,
  kNever,  ///< leave it to the OS (crash may lose the whole unsynced tail)
};

/// "always" / "interval" / "never".
const char* FsyncPolicyName(FsyncPolicy policy);
std::optional<FsyncPolicy> ParseFsyncPolicyName(std::string_view name);

/// The framed WAL record of an upsert, header included: exactly the bytes
/// DurabilityManager::AppendUpsert appends for it. The name is not
/// checked here; AppendUpsert checks it before encoding.
std::string EncodeUpsertRecord(std::string_view name, uint64_t version,
                               const Structure& db);

struct DurabilityOptions {
  /// Directory for the WAL and snapshots; created if absent. Empty means
  /// durability is disabled (the ServingEngine then never constructs a
  /// DurabilityManager).
  std::string data_dir;
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  /// For FsyncPolicy::kInterval: maximum milliseconds between fsyncs.
  uint64_t fsync_interval_ms = 100;
  /// Snapshot (and truncate the log) every this many records; 0 disables
  /// automatic snapshots (the log grows until Snapshot() is called).
  uint64_t snapshot_every_records = 1024;
  /// Writer-side record payload bound; 0 means the format's 1 GiB framing
  /// ceiling. Values above the ceiling are clamped to it (recovery treats
  /// larger length words as corruption, so acknowledging one would truncate
  /// it — and everything after it — on replay). A testing seam: lowering it
  /// never loosens the recovery contract.
  uint64_t max_record_bytes = 0;
  /// Injection seams; nullptr selects the real filesystem / steady clock.
  FileSystem* fs = nullptr;
  Clock* clock = nullptr;
};

/// What recovery found. `warnings` is non-empty exactly when something was
/// wrong but survivable (a torn tail, an invalid snapshot that an older
/// generation covered).
struct RecoveryInfo {
  bool snapshot_loaded = false;
  uint64_t generation = 0;
  uint64_t records_replayed = 0;
  bool tail_truncated = false;      ///< a torn/corrupt tail was cut off
  uint64_t tail_bytes_dropped = 0;  ///< bytes removed by that truncation
  std::vector<std::string> warnings;
};

/// Monotonic counters; snapshot via stats().
struct DurabilityStats {
  uint64_t wal_appends = 0;          ///< records durably acknowledged
  uint64_t wal_append_failures = 0;  ///< appends refused (I/O error)
  uint64_t wal_syncs = 0;            ///< fsyncs issued on the log
  uint64_t snapshots = 0;
  uint64_t snapshot_failures = 0;
  uint64_t wal_bytes = 0;  ///< current generation's log size (snapshot)
  bool poisoned = false;   ///< log rewind failed; all appends refuse
};

class DurabilityManager {
 public:
  /// Opens (creating if needed) `options.data_dir`, recovers the catalog —
  /// newest valid snapshot, then its generation's log tail, truncating a
  /// torn final record — and leaves the log open for appending.
  /// `recovered` receives the catalog in application order; `info` (may be
  /// nullptr) the recovery trace. Fails only when the state is
  /// unrecoverable without guessing: an unreadable directory, or snapshots
  /// present but none valid.
  static Result<std::unique_ptr<DurabilityManager>> Open(
      const DurabilityOptions& options, std::vector<CatalogEntry>* recovered,
      RecoveryInfo* info);

  ~DurabilityManager();

  /// Appends one durable record; OK means the update may be acknowledged
  /// and applied. A non-OK return means the update must NOT be applied:
  /// the record is not durably in the log (contract point 3 above).
  /// InvalidArgument (a caller error, the log stays healthy) when the name
  /// fails IsCatalogName or the record would not fit the framing ceiling —
  /// recovery could not replay either, so neither may be acknowledged.
  Status AppendUpsert(const std::string& name, uint64_t version,
                      const Structure& db);
  Status AppendDrop(const std::string& name);

  /// True when snapshot_every_records have been appended since the last
  /// rotation — the caller should rotate and snapshot.
  bool SnapshotDue() const;

  /// Snapshot phase 1 (cheap): switches appends to an empty next-generation
  /// log and resets the SnapshotDue() counter. Call with updates blocked,
  /// then capture the catalog before unblocking — the capture must cover
  /// every record appended before the rotation. On success `*new_gen` receives
  /// the new generation, which the caller passes to WriteSnapshot().
  /// Failure (counted in snapshot_failures) leaves the current generation
  /// accepting appends.
  Status RotateLog(uint64_t* new_gen);

  /// Snapshot phase 2 (slow, no caller lock needed): writes snapshot-<gen>
  /// temp-then-rename, then prunes generations below it. The catalog must
  /// be at least as new as the RotateLog() point that produced `gen`
  /// (newer is fine — replay is idempotent). Failure is non-fatal: the
  /// log chain keeps growing and recovery replays it; the write is retried
  /// at the next rotation.
  Status WriteSnapshot(uint64_t gen, const std::vector<CatalogEntry>& catalog);

  /// Both phases back to back, for single-threaded callers and tests: the
  /// catalog must reflect every append made so far, with none racing in.
  Status Snapshot(const std::vector<CatalogEntry>& catalog);

  /// Lock-free: each counter is exact, the set is not one atomic
  /// snapshot.
  DurabilityStats stats() const;
  uint64_t generation() const;
  const std::string& data_dir() const { return options_.data_dir; }

 private:
  DurabilityManager(DurabilityOptions options, FileSystem* fs, Clock* clock);

  std::string WalPath(uint64_t gen) const;
  std::string SnapshotPath(uint64_t gen) const;
  /// Appends one sealed frame (header, then payload).
  Status AppendRecord(const std::string& frame) CQCS_EXCLUDES(mu_);
  /// Post-failure repair: cut the log back to the last known-good offset
  /// and reopen it. Sets poisoned_ when the log cannot be made clean.
  void RewindLog() CQCS_REQUIRES(mu_);

  const DurabilityOptions options_;
  FileSystem* const fs_;
  Clock* const clock_;

  mutable Mutex mu_;
  uint64_t generation_ CQCS_GUARDED_BY(mu_) = 0;
  std::unique_ptr<WritableFile> wal_ CQCS_GUARDED_BY(mu_);
  /// Log bytes known durable-framed.
  uint64_t good_offset_ CQCS_GUARDED_BY(mu_) = 0;
  uint64_t records_since_snapshot_ CQCS_GUARDED_BY(mu_) = 0;
  uint64_t last_sync_ms_ CQCS_GUARDED_BY(mu_) = 0;
  bool dirty_since_sync_ CQCS_GUARDED_BY(mu_) = false;
  bool poisoned_ CQCS_GUARDED_BY(mu_) = false;

  /// The counters behind stats(), written under mu_ (WriteSnapshot's
  /// outside it) and read without it.
  struct Counters {
    std::atomic<uint64_t> wal_appends{0};
    std::atomic<uint64_t> wal_append_failures{0};
    std::atomic<uint64_t> wal_syncs{0};
    std::atomic<uint64_t> snapshots{0};
    std::atomic<uint64_t> snapshot_failures{0};
    std::atomic<uint64_t> wal_bytes{0};
    std::atomic<bool> poisoned{false};
  };
  Counters counters_;
};

}  // namespace cqcs::serve

#endif  // CQCS_SERVE_DURABILITY_H_
