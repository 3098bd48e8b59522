// ServingEngine: a long-lived front end over one shared HomEngine for
// repeated queries against slowly changing databases.
//
// The engine-per-call API (api/engine.h) recompiles everything per request;
// production traffic is millions of *repeated* queries over a pool of
// databases that change rarely. The serving layer adds exactly the three
// pieces that monetize that shape:
//
//   Plan cache    bounded LRU of compiled source sides, keyed by
//                 (vocabulary, canonical query text) — full content,
//                 collision-safe (serve/cache.h). An entry is the
//                 HomProblem compiled from the query alone: canonical
//                 query, GYO join forest, decomposition. No plan names a
//                 database: every miss, cold or warm, binds the registered
//                 structure for that request only with the zero-copy
//                 WithTarget, so only target tables build.
//   Result cache  bounded LRU keyed by (target key = database name #
//                 registration number, task, canonical query text). Every
//                 registration gets a number unique in this engine, so a
//                 replaced or dropped database's results are unreachable;
//                 each update also sweeps them out, which bounds the
//                 cache's memory under churn. Unknown results (governor
//                 trips, node limits) are never cached. A bounded memo
//                 from (schema, raw query text) to the canonical text lets
//                 a repeated text reach its result entry without a parse,
//                 so a hit costs a registry lookup, two cache probes, and
//                 the answer copy (docs/serving.md, "Hit path").
//   Admission     queue-level load shedding on top of the per-request
//                 ResourceGovernor budgets: a global in-flight request
//                 bound (queue depth) and an in-flight bytes bound fed by
//                 the same size-bound estimates the engine's pre-flight
//                 admission uses (EstimateAcyclicBytes). A request over
//                 either bound is shed with kResourceExhausted immediately
//                 — the policy sheds, it never stalls.
//   Durability    optional (ServeOptions::durability.data_dir non-empty):
//                 every acknowledged UpsertDatabase / DropDatabase is
//                 WAL-logged before it is applied, and Open() recovers the
//                 registry after a restart (serve/durability.h). When the
//                 log stops accepting writes the engine enters DEGRADED
//                 mode: updates are refused with kUnavailable — never
//                 acknowledged-but-lost — while reads keep serving from
//                 memory.
//   Quarantine    a poison-query negative cache: a query text whose runs
//                 trip the deadline / memory / failpoint budget
//                 `poison_strikes` times in a row is refused up front with
//                 kResourceExhausted instead of burning a full budget every
//                 time it is retried. A budget-clean completion or any
//                 database update clears it.
//
// Thread safety: Serve(), UpsertDatabase(), and stats() may be called from
// concurrent threads. Updates serialize on a writer lock that is held across
// their WAL append; reads never wait on it, only on the registry lock, which
// guards lookup and swap and is never held across log I/O. Per-request
// parallelism (SolveOptions::num_threads) rides the shared MorselPool
// (common/work_pool.h) in two places: the solver's work-stealing search on
// the uniform route and the bag joins on the treewidth route. The acyclic
// route runs on the request's thread.
// Every route answers exactly as a 1-thread run does, so cached results are
// thread-count-agnostic and num_threads stays out of the cache keys.
//
// Every served EngineResult carries stats.serve (plan/result hit flags plus
// an engine-wide snapshot), so `hom_tool --explain`-style consumers see the
// cache behavior inline; the aggregate ServeStats snapshot has its own
// ToJson for the `stats` protocol command.

#ifndef CQCS_SERVE_SERVING_H_
#define CQCS_SERVE_SERVING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/structure.h"
#include "serve/cache.h"
#include "serve/durability.h"

namespace cqcs::serve {

/// Serving configuration. The engine options apply per request (including
/// the per-request governor knobs: deadline_ms, memory_budget_bytes).
struct ServeOptions {
  EngineOptions engine;
  /// Entry bounds for the two caches; 0 disables a cache outright.
  size_t plan_cache_entries = 512;
  size_t result_cache_entries = 4096;
  /// Queue-level admission. 0 = unbounded. A request arriving when
  /// `max_queue_depth` requests are already in flight — or whose size-bound
  /// byte estimate does not fit under `max_inflight_bytes` next to the
  /// in-flight estimates — is shed with kResourceExhausted.
  size_t max_queue_depth = 0;
  size_t max_inflight_bytes = 0;
  /// Durable state. An empty durability.data_dir means the registry is
  /// memory-only (the pre-durability behavior); otherwise call Open() once
  /// before serving to recover and arm the WAL.
  DurabilityOptions durability;
  /// Poison-query quarantine: refuse a query text after this many
  /// consecutive budget trips (deadline / memory / failpoint). 0 disables.
  uint32_t poison_strikes = 3;
};

/// Aggregate serving counters. Hit rates are derived, not stored.
struct ServeStats {
  uint64_t requests = 0;       ///< Serve() calls, including shed ones
  uint64_t served = 0;         ///< requests that produced an EngineResult
  uint64_t errors = 0;         ///< parse / unknown-name / engine errors
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t result_hits = 0;
  uint64_t result_misses = 0;  ///< result-cache lookups that missed
  uint64_t shed_queue = 0;     ///< shed: queue depth bound
  uint64_t shed_bytes = 0;     ///< shed: in-flight bytes bound
  uint64_t updates = 0;        ///< UpsertDatabase calls
  uint64_t invalidated_entries = 0;  ///< result entries swept by updates
  uint64_t update_refusals = 0;  ///< updates refused (degraded / WAL failure)
  uint64_t quarantined = 0;    ///< requests refused by the poison quarantine
  bool degraded = false;       ///< WAL cannot accept writes; updates refuse
  uint64_t recovered_dbs = 0;      ///< databases restored by Open()
  uint64_t records_replayed = 0;   ///< WAL records replayed by Open()
  uint64_t wal_appends = 0;
  uint64_t wal_append_failures = 0;
  uint64_t snapshots = 0;
  uint64_t snapshot_failures = 0;
  size_t poisoned_queries = 0;  ///< query texts currently quarantined
  size_t queue_depth = 0;       ///< in-flight requests (snapshot)
  size_t queue_depth_peak = 0;
  size_t inflight_bytes = 0;    ///< reserved byte estimates (snapshot)
  size_t plan_cache_entries = 0;
  size_t result_cache_entries = 0;

  double PlanHitRate() const {
    const uint64_t total = plan_hits + plan_misses;
    return total == 0 ? 0.0 : static_cast<double>(plan_hits) / total;
  }
  double ResultHitRate() const {
    const uint64_t total = result_hits + result_misses;
    return total == 0 ? 0.0 : static_cast<double>(result_hits) / total;
  }
  std::string ToJson() const;
};

/// One serving request: a conjunctive query (text) against a registered
/// database, for a task. Projection tasks use the query's head.
struct ServeRequest {
  std::string query;     ///< CQ text, e.g. "Q(X) :- E(X, Y), E(Y, X)."
  std::string database;  ///< a name registered via UpsertDatabase
  HomTask task = HomTask::kDecide;
};

class ServingEngine {
 public:
  explicit ServingEngine(ServeOptions options = {});

  /// Arms durability: recovers the registry from
  /// options.durability.data_dir (newest valid snapshot + WAL replay, torn
  /// tail truncated with a warning in `info`) and opens the log for
  /// appending. Call once, before serving. A no-op returning OK when
  /// durability is disabled. Failure means the on-disk state is
  /// unrecoverable without guessing — the caller should stop, not serve.
  Status Open(RecoveryInfo* info = nullptr);

  /// Registers `db` under `name`, replacing any previous registration.
  /// Replacement bumps the name's version and invalidates every cached
  /// result that was computed against the old content.
  /// InvalidArgument if the database fails Validate(), or if the name
  /// breaks the durable-name rule (core/io IsCatalogName: no bytes <= 0x20,
  /// no DEL) or contains the cache-key separators '|' / '#' — a name the
  /// WAL replay or snapshot parser would reject must never be acknowledged.
  Status UpsertDatabase(const std::string& name, Structure db);

  /// Unregisters `name`, invalidating its cached results. NotFound if the
  /// name was never registered.
  Status DropDatabase(const std::string& name);

  /// Serves one request. Errors: ParseError for unparsable queries,
  /// NotFound for unknown database names or relation symbols the
  /// database's vocabulary lacks, ResourceExhausted when admission
  /// sheds the request (stats.shed_* tells which bound) or the per-request
  /// governor would not admit it. A successful result carries
  /// stats.serve.{plan_cache_hit, result_cache_hit} and the usual engine
  /// explain/stats record.
  Result<EngineResult> Serve(const ServeRequest& request);

  /// The registered (name, version) pairs, sorted by name — the `catalog`
  /// protocol command, and the chaos harness's oracle probe. A version
  /// counts a name's registrations since it was last dropped: after a drop,
  /// re-registering the name reports version 1 again, so (name, version)
  /// does not identify content across a drop.
  std::vector<std::pair<std::string, uint64_t>> ListDatabases() const;

  /// The current registration of `name`; NotFound when absent.
  Result<std::shared_ptr<const Structure>> GetDatabase(
      const std::string& name) const;

  /// True when updates are being refused (WAL append/rewind failure).
  /// Reads keep serving; recovery is a restart over the intact on-disk
  /// state.
  bool degraded() const;

  ServeStats stats() const;

  const ServeOptions& options() const { return options_; }

 private:
  /// One registration, immutable once published: the key segments every
  /// request needs are computed here once, not per request.
  struct DbEntry {
    DbEntry(const std::string& name, uint64_t registered_version,
            uint64_t registration, std::shared_ptr<const Structure> db);

    std::shared_ptr<const Structure> structure;
    uint64_t version = 0;     ///< the WAL and catalog version
    /// "name#registration|", the result-key prefix. Not the version: that
    /// restarts at 1 after a drop, and a result computed against the
    /// dropped incarnation must never be reachable from the new one.
    std::string target_key;
    /// The vocabulary, every symbol length-framed: equal prefixes mean
    /// equal vocabularies. The prefix of memo and plan keys.
    std::string vocab_prefix;
  };

  /// The live counters behind ServeStats, lock-free. Each counter is exact.
  /// Request outcomes (served, errors, shed_*, quarantined) are counted
  /// with release after the request's `requests` bump, and stats() loads
  /// them with acquire before loading `requests`, so no snapshot shows
  /// more outcomes than requests.
  struct Counters {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> served{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> plan_hits{0};
    std::atomic<uint64_t> plan_misses{0};
    std::atomic<uint64_t> result_hits{0};
    std::atomic<uint64_t> result_misses{0};
    std::atomic<uint64_t> shed_queue{0};
    std::atomic<uint64_t> shed_bytes{0};
    std::atomic<uint64_t> updates{0};
    std::atomic<uint64_t> invalidated_entries{0};
    std::atomic<uint64_t> update_refusals{0};
    std::atomic<uint64_t> quarantined{0};
    std::atomic<uint64_t> recovered_dbs{0};
    std::atomic<uint64_t> records_replayed{0};
    std::atomic<size_t> queue_depth_peak{0};
  };

  /// The current registration of `name`: one map probe and one refcount
  /// bump under registry_mu_.
  Result<std::shared_ptr<const DbEntry>> ResolveDatabase(
      const std::string& name) const;
  void FillServeSnapshot(EngineResult* result, bool plan_hit,
                         bool result_hit) const;
  /// Sweeps the result cache of entries computed against `name` and clears
  /// the quarantine (the data changed; prior budget trips are stale
  /// evidence).
  size_t InvalidateFor(const std::string& name);
  /// The registry as a catalog sorted by name. The entries share the
  /// registered structures (shared_ptr copies, no Structure copy), so the
  /// capture is cheap and the snapshot serialization can run outside
  /// registry_mu_ (the structures are immutable).
  std::vector<CatalogEntry> CatalogLocked() const
      CQCS_REQUIRES(registry_mu_);
  /// Logs one update before it is applied: an upsert of `db` at `version`,
  /// or a drop when `db` is null. Refuses while degraded. A refusal leaves
  /// the registry untouched; an I/O failure (anything but InvalidArgument)
  /// also enters degraded mode. The CQCS_EXCLUDES makes "no WAL I/O under
  /// the registry lock" a compile-time fact: every read probes that lock.
  Status LogUpdate(const std::string& name, uint64_t version,
                   const Structure* db) CQCS_REQUIRES(writer_mu_)
      CQCS_EXCLUDES(registry_mu_);
  /// If a snapshot is due, rotates the log (cheap) and captures the
  /// catalog, taking registry_mu_ only for the capture. The returned
  /// catalog feeds FinishSnapshot() AFTER writer_mu_ is released.
  std::optional<std::pair<uint64_t, std::vector<CatalogEntry>>>
  MaybeRotateForSnapshot() CQCS_REQUIRES(writer_mu_)
      CQCS_EXCLUDES(registry_mu_);
  /// Serializes and writes the snapshot — the slow half. The CQCS_EXCLUDES
  /// is the PR 8 review rule as a compile-time fact: snapshot I/O never
  /// runs under the registry lock, nor under the writer lock.
  void FinishSnapshot(uint64_t gen, const std::vector<CatalogEntry>& catalog)
      CQCS_EXCLUDES(registry_mu_, writer_mu_);

  const ServeOptions options_;

  /// Orders the log: UpsertDatabase, DropDatabase and log rotation run
  /// under it, so WAL append order equals registry apply order and a
  /// snapshot's catalog is captured with no update in flight. Taken
  /// before registry_mu_, never after it.
  Mutex writer_mu_;
  /// Lookup and swap only: a reader's one probe, a writer's version read
  /// and entry swap. Never held across log I/O (LogUpdate,
  /// MaybeRotateForSnapshot and FinishSnapshot exclude it). Only writers
  /// change registry_, and they hold writer_mu_, so a writer's version read
  /// stays current across its append.
  mutable Mutex registry_mu_;
  std::unordered_map<std::string, std::shared_ptr<const DbEntry>> registry_
      CQCS_GUARDED_BY(registry_mu_);
  /// Registrations made so far; numbers every DbEntry's target key.
  uint64_t registrations_ CQCS_GUARDED_BY(writer_mu_) = 0;
  /// Written once by Open() before serving starts, then only read; the
  /// manager carries its own internal lock. Not guarded: FinishSnapshot()
  /// must reach it with no engine lock held. Append/apply ordering is
  /// preserved because every Append* and RotateLog call happens under
  /// writer_mu_.
  std::unique_ptr<DurabilityManager> durability_;
  /// Sticky; set by a writer (under writer_mu_) when an append fails on
  /// I/O, read by degraded() and stats() with no lock.
  std::atomic<bool> degraded_{false};

  /// Poison-query quarantine: consecutive budget-trip strikes per raw
  /// query text, bounded.
  mutable Mutex quarantine_mu_;
  std::unordered_map<std::string, uint32_t> strikes_
      CQCS_GUARDED_BY(quarantine_mu_);
  /// strikes_.size(), stored under quarantine_mu_; while it reads 0 a
  /// request skips the quarantine lock altogether.
  std::atomic<size_t> strike_entries_{0};

  /// Source plans only: each entry's target is an empty structure.
  LruCache<HomProblem> plan_cache_;
  LruCache<EngineResult> result_cache_;
  /// (vocab_prefix + raw query text) -> canonical query text, sized like the
  /// result cache. Only parsable texts are entered.
  LruCache<std::string> canonical_memo_;

  std::atomic<size_t> in_flight_{0};
  std::atomic<size_t> in_flight_bytes_{0};

  Counters counters_;
};

}  // namespace cqcs::serve

#endif  // CQCS_SERVE_SERVING_H_
