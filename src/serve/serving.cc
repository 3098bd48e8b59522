#include "serve/serving.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "api/profile.h"
#include "common/json.h"
#include "common/saturating.h"
#include "core/io.h"
#include "cq/parser.h"
#include "cq/query.h"

namespace cqcs::serve {

namespace {

/// Decrements the in-flight request/byte counters when a request leaves the
/// engine, whatever path it took out.
class AdmissionGuard {
 public:
  AdmissionGuard(std::atomic<size_t>* in_flight,
                 std::atomic<size_t>* in_flight_bytes)
      : in_flight_(in_flight), in_flight_bytes_(in_flight_bytes) {}
  ~AdmissionGuard() {
    if (in_flight_ != nullptr) {
      in_flight_->fetch_sub(1, std::memory_order_relaxed);
    }
    if (bytes_reserved_ > 0) {
      in_flight_bytes_->fetch_sub(bytes_reserved_, std::memory_order_relaxed);
    }
  }
  void set_bytes_reserved(size_t bytes) { bytes_reserved_ = bytes; }

 private:
  std::atomic<size_t>* in_flight_;
  std::atomic<size_t>* in_flight_bytes_;
  size_t bytes_reserved_ = 0;
};

/// "unknown" results must never be cached: a governor trip or a node-limit
/// stop reflects this request's budget, not the instance's answer.
bool IsCacheable(const EngineResult& r) {
  return !r.stats.governor.tripped && !r.stats.search.limit_hit;
}

/// Trip causes that count as a quarantine strike: the query exhausted a
/// budget. A cancellation is the caller's doing, not the query's.
bool IsPoisonTrip(const GovernorRunStats& g) {
  return g.tripped && (g.cause == TripCause::kDeadline ||
                       g.cause == TripCause::kMemory ||
                       g.cause == TripCause::kFailpoint);
}

/// Quarantine map bound: past this many distinct texts, make room by
/// evicting an arbitrary entry (losing a strike count is harmless — the
/// query just gets fresh strikes).
constexpr size_t kMaxQuarantineEntries = 4096;

/// Ack-time name rule: exactly the bytes the WAL replay and the snapshot
/// parser accept (IsCatalogName), minus the cache-key separators. Anything
/// looser would acknowledge updates that recovery must then truncate as
/// corruption.
bool ValidDatabaseName(const std::string& name) {
  return IsCatalogName(name) && name.find_first_of("|#") == std::string::npos;
}

/// Builds every relation's lazily built indexes — the sorted index behind
/// Contains (it also records which relations are duplicate-free, so the
/// acyclic route skips their dedup) and the position index the CSP
/// propagator walks (sized by the universe, as solver/csp.cc asks for it). Relation builds them on first
/// use without synchronization, and one registered structure feeds
/// concurrent WithTarget / CSP builds, so they must exist before the
/// structure is published.
void BuildIndexes(const Structure& db) {
  const auto num_values = static_cast<Element>(db.universe_size());
  for (RelId id = 0; id < db.vocabulary()->size(); ++id) {
    const Relation& relation = db.relation(id);
    relation.EnsureIndex();
    relation.EnsurePositionIndex(num_values);
  }
}

/// Counts one event; each counter is exact on its own.
void Count(std::atomic<uint64_t>& counter, uint64_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

/// Counts a request's outcome. Release pairs with the acquire loads in
/// stats(): a snapshot that sees this outcome also sees its request.
void CountOutcome(std::atomic<uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_release);
}

std::string LimitsKey(const EngineOptions& engine) {
  std::string key = "|cl=";
  key += std::to_string(engine.count_limit);
  key += "|mr=";
  key += std::to_string(engine.max_results);
  key += engine.project_count_only ? "|pc=1|" : "|pc=0|";
  return key;
}

}  // namespace

std::string ServeStats::ToJson() const {
  JsonWriter out;
  out.BeginObject()
      .Key("requests").Uint(requests)
      .Key("served").Uint(served)
      .Key("errors").Uint(errors)
      .Key("plan_hits").Uint(plan_hits)
      .Key("plan_misses").Uint(plan_misses)
      .Key("plan_hit_rate").Double(PlanHitRate())
      .Key("result_hits").Uint(result_hits)
      .Key("result_misses").Uint(result_misses)
      .Key("result_hit_rate").Double(ResultHitRate())
      .Key("shed_queue").Uint(shed_queue)
      .Key("shed_bytes").Uint(shed_bytes)
      .Key("updates").Uint(updates)
      .Key("invalidated_entries").Uint(invalidated_entries)
      .Key("update_refusals").Uint(update_refusals)
      .Key("quarantined").Uint(quarantined)
      .Key("degraded").Bool(degraded)
      .Key("recovered_dbs").Uint(recovered_dbs)
      .Key("records_replayed").Uint(records_replayed)
      .Key("wal_appends").Uint(wal_appends)
      .Key("wal_append_failures").Uint(wal_append_failures)
      .Key("snapshots").Uint(snapshots)
      .Key("snapshot_failures").Uint(snapshot_failures)
      .Key("poisoned_queries").Uint(poisoned_queries)
      .Key("queue_depth").Uint(queue_depth)
      .Key("queue_depth_peak").Uint(queue_depth_peak)
      .Key("inflight_bytes").Uint(inflight_bytes)
      .Key("plan_cache_entries").Uint(plan_cache_entries)
      .Key("result_cache_entries").Uint(result_cache_entries)
      .EndObject();
  return out.str();
}

ServingEngine::DbEntry::DbEntry(const std::string& name,
                                uint64_t registered_version,
                                std::shared_ptr<const Structure> db)
    : structure(std::move(db)),
      version(registered_version),
      target_key(name + "#" + std::to_string(version)),
      vocab_key(structure->vocabulary()->ToString()),
      memo_prefix(std::to_string(vocab_key.size()) + "|" + vocab_key + "|") {}

ServingEngine::ServingEngine(ServeOptions options)
    : options_(options),
      plan_cache_(options.plan_cache_entries),
      result_cache_(options.result_cache_entries),
      canonical_memo_(options.result_cache_entries),
      limits_key_(LimitsKey(options.engine)) {}

Status ServingEngine::Open(RecoveryInfo* info) {
  if (options_.durability.data_dir.empty()) return Status::OK();
  std::vector<CatalogEntry> recovered;
  auto manager = DurabilityManager::Open(options_.durability, &recovered, info);
  if (!manager.ok()) return manager.status();
  std::vector<std::pair<std::string, std::shared_ptr<const DbEntry>>> entries;
  entries.reserve(recovered.size());
  for (CatalogEntry& entry : recovered) {
    BuildIndexes(entry.db);
    entries.emplace_back(
        entry.name,
        std::make_shared<const DbEntry>(
            entry.name, entry.version,
            std::make_shared<const Structure>(std::move(entry.db))));
  }
  MutexLock lock(registry_mu_);
  durability_ = *std::move(manager);
  registry_.clear();
  for (auto& [name, entry] : entries) registry_[name] = std::move(entry);
  counters_.recovered_dbs.store(registry_.size(), std::memory_order_relaxed);
  counters_.records_replayed.store(
      info != nullptr ? info->records_replayed : 0, std::memory_order_relaxed);
  return Status::OK();
}

size_t ServingEngine::InvalidateFor(const std::string& name) {
  // Invalidation sweep: every cached result (and warm pair plan) computed
  // against any older version of this name. The version bump already made
  // those keys unreachable; the sweep frees them eagerly so a stale answer
  // cannot outlive the data it was computed from even via a key bug.
  const std::string segment = "|" + name + "#";
  size_t dropped = result_cache_.EraseIf([&](const CacheKey& key) {
    return key.canonical.find(segment) != std::string::npos;
  });
  dropped += plan_cache_.EraseIf([&](const CacheKey& key) {
    return key.canonical.find(segment) != std::string::npos;
  });
  // The data changed, so prior budget trips are stale evidence: a
  // quarantined query may be cheap against the new contents.
  MutexLock lock(quarantine_mu_);
  strikes_.clear();
  strike_entries_.store(0, std::memory_order_relaxed);
  return dropped;
}

std::vector<ServingEngine::CatalogRef> ServingEngine::CatalogRefsLocked()
    const {
  std::vector<CatalogRef> catalog;
  catalog.reserve(registry_.size());
  for (const auto& [name, entry] : registry_) {
    catalog.push_back(CatalogRef{name, entry->version, entry->structure});
  }
  std::sort(catalog.begin(), catalog.end(),
            [](const CatalogRef& a, const CatalogRef& b) {
              return a.name < b.name;
            });
  return catalog;
}

std::optional<std::pair<uint64_t, std::vector<ServingEngine::CatalogRef>>>
ServingEngine::MaybeRotateForSnapshotLocked() {
  if (durability_ == nullptr || !durability_->SnapshotDue()) {
    return std::nullopt;
  }
  uint64_t gen = 0;
  // Rotation failure is non-fatal (counted in stats): the log keeps
  // growing until a later rotation succeeds.
  if (!durability_->RotateLog(&gen).ok()) return std::nullopt;
  // The catalog handle is captured under registry_mu_, so it covers every
  // record appended before the rotation — the consistency point the
  // snapshot needs. The expensive serialization runs after the lock drops.
  return std::make_pair(gen, CatalogRefsLocked());
}

void ServingEngine::FinishSnapshot(uint64_t gen,
                                   const std::vector<CatalogRef>& refs) {
  std::vector<CatalogEntry> catalog;
  catalog.reserve(refs.size());
  for (const CatalogRef& ref : refs) {
    catalog.push_back(CatalogEntry{ref.name, ref.version, *ref.db});
  }
  // Failure is non-fatal (counted in the manager's snapshot_failures):
  // recovery replays the whole log chain, and the write is retried at the
  // next rotation.
  CQCS_IGNORE_RESULT(durability_->WriteSnapshot(gen, catalog));
}

Status ServingEngine::UpsertDatabase(const std::string& name, Structure db) {
  if (!ValidDatabaseName(name)) {
    return Status::InvalidArgument(
        "database names must be nonempty and free of '|', '#', "
        "whitespace, and control bytes (got \"" + name + "\")");
  }
  CQCS_RETURN_IF_ERROR(db.Validate());
  BuildIndexes(db);
  auto shared = std::make_shared<const Structure>(std::move(db));
  std::optional<std::pair<uint64_t, std::vector<CatalogRef>>> snapshot;
  {
    MutexLock lock(registry_mu_);
    if (degraded_) {
      Count(counters_.update_refusals);
      return Status::Unavailable(
          "serving is degraded (the write-ahead log stopped accepting "
          "writes); updates are refused, reads keep serving");
    }
    auto it = registry_.find(name);
    const uint64_t next_version =
        it != registry_.end() ? it->second->version + 1 : 1;
    if (durability_ != nullptr) {
      // Log BEFORE apply: an update is acknowledged only once it is
      // durably in the WAL, and a refused append must leave the registry
      // untouched (never-resurrect contract).
      Status logged = durability_->AppendUpsert(name, next_version, *shared);
      if (!logged.ok()) {
        // A caller error (oversized record) refuses just this update; an
        // I/O failure means the log can no longer be trusted to
        // acknowledge anything — sticky degraded mode.
        if (logged.code() != StatusCode::kInvalidArgument) degraded_ = true;
        Count(counters_.update_refusals);
        return logged;
      }
    }
    registry_[name] =
        std::make_shared<const DbEntry>(name, next_version, std::move(shared));
    snapshot = MaybeRotateForSnapshotLocked();
  }
  if (snapshot.has_value()) FinishSnapshot(snapshot->first, snapshot->second);
  const size_t dropped = InvalidateFor(name);
  Count(counters_.updates);
  Count(counters_.invalidated_entries, dropped);
  return Status::OK();
}

Status ServingEngine::DropDatabase(const std::string& name) {
  std::optional<std::pair<uint64_t, std::vector<CatalogRef>>> snapshot;
  {
    MutexLock lock(registry_mu_);
    auto it = registry_.find(name);
    if (it == registry_.end()) {
      return Status::NotFound("no database named \"" + name + "\"");
    }
    if (degraded_) {
      Count(counters_.update_refusals);
      return Status::Unavailable(
          "serving is degraded (the write-ahead log stopped accepting "
          "writes); updates are refused, reads keep serving");
    }
    if (durability_ != nullptr) {
      Status logged = durability_->AppendDrop(name);
      if (!logged.ok()) {
        if (logged.code() != StatusCode::kInvalidArgument) degraded_ = true;
        Count(counters_.update_refusals);
        return logged;
      }
    }
    registry_.erase(it);
    snapshot = MaybeRotateForSnapshotLocked();
  }
  if (snapshot.has_value()) FinishSnapshot(snapshot->first, snapshot->second);
  Count(counters_.invalidated_entries, InvalidateFor(name));
  return Status::OK();
}

std::vector<std::pair<std::string, uint64_t>> ServingEngine::ListDatabases()
    const {
  std::vector<std::pair<std::string, uint64_t>> out;
  {
    MutexLock lock(registry_mu_);
    out.reserve(registry_.size());
    for (const auto& [name, entry] : registry_) {
      out.emplace_back(name, entry->version);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::shared_ptr<const Structure>> ServingEngine::GetDatabase(
    const std::string& name) const {
  MutexLock lock(registry_mu_);
  auto it = registry_.find(name);
  if (it == registry_.end()) {
    return Status::NotFound("no database named \"" + name + "\"");
  }
  return it->second->structure;
}

bool ServingEngine::degraded() const {
  MutexLock lock(registry_mu_);
  return degraded_ ||
         (durability_ != nullptr && durability_->stats().poisoned);
}

Result<std::shared_ptr<const ServingEngine::DbEntry>>
ServingEngine::ResolveDatabase(const std::string& name) const {
  MutexLock lock(registry_mu_);
  auto it = registry_.find(name);
  if (it == registry_.end()) {
    return Status::NotFound("no database named \"" + name + "\"");
  }
  return it->second;
}

void ServingEngine::FillServeSnapshot(EngineResult* result, bool plan_hit,
                                      bool result_hit) const {
  ServeRequestStats& s = result->stats.serve;
  s.enabled = true;
  s.plan_cache_hit = plan_hit;
  s.result_cache_hit = result_hit;
  s.shed_total = counters_.shed_queue.load(std::memory_order_relaxed) +
                 counters_.shed_bytes.load(std::memory_order_relaxed);
  s.queue_depth = in_flight_.load(std::memory_order_relaxed);
  auto rate = [](const std::atomic<uint64_t>& hits,
                 const std::atomic<uint64_t>& misses) {
    const uint64_t h = hits.load(std::memory_order_relaxed);
    const uint64_t total = h + misses.load(std::memory_order_relaxed);
    return total == 0 ? 0.0 : static_cast<double>(h) / total;
  };
  s.plan_hit_rate = rate(counters_.plan_hits, counters_.plan_misses);
  s.result_hit_rate = rate(counters_.result_hits, counters_.result_misses);
}

Result<EngineResult> ServingEngine::Serve(const ServeRequest& request) {
  Count(counters_.requests);

  // ---- Queue-depth admission: shed, never stall. -------------------------
  const size_t depth = in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
  AdmissionGuard guard(&in_flight_, &in_flight_bytes_);
  // The peak counts arrivals, shed or served: a shed request did occupy
  // this depth for the instant the bound was evaluated against it.
  size_t peak = counters_.queue_depth_peak.load(std::memory_order_relaxed);
  while (depth > peak && !counters_.queue_depth_peak.compare_exchange_weak(
                             peak, depth, std::memory_order_relaxed)) {
  }
  if (options_.max_queue_depth > 0 && depth > options_.max_queue_depth) {
    CountOutcome(counters_.shed_queue);
    return Status::ResourceExhausted(
        "request shed: queue depth " + std::to_string(depth) +
        " exceeds the admission bound " +
        std::to_string(options_.max_queue_depth));
  }

  // ---- Poison-query quarantine: refuse known budget-burners up front. ----
  // The lock is skipped while no text has a strike (the common case).
  if (options_.poison_strikes > 0 &&
      strike_entries_.load(std::memory_order_relaxed) > 0) {
    MutexLock lock(quarantine_mu_);
    auto it = strikes_.find(request.query);
    if (it != strikes_.end() && it->second >= options_.poison_strikes) {
      CountOutcome(counters_.quarantined);
      return Status::ResourceExhausted(
          "query quarantined: it tripped the resource budget " +
          std::to_string(it->second) +
          " times in a row; it will be retried after the next database "
          "update");
    }
  }

  // ---- Resolve the database and canonicalize the query. ------------------
  auto resolved = ResolveDatabase(request.database);
  if (!resolved.ok()) {
    CountOutcome(counters_.errors);
    return resolved.status();
  }
  const DbEntry& db = **resolved;
  // The canonical text (parse -> print) makes whitespace/naming variants of
  // one query share a plan and a result; the vocabulary string keeps equal
  // texts over different schemas apart. The memo skips the parse for a
  // text seen before over this schema; the query itself is parsed only if
  // a plan has to be compiled from it.
  std::optional<ConjunctiveQuery> query;
  std::shared_ptr<const std::string> canonical;
  const bool memoize = options_.result_cache_entries > 0;
  std::optional<CacheKey> memo_key;
  if (memoize) {
    memo_key = CacheKey::FromCanonical(db.memo_prefix + request.query);
    canonical = canonical_memo_.Get(*memo_key);
  }
  if (canonical == nullptr) {
    auto parsed = ParseQuery(request.query, db.structure->vocabulary());
    if (!parsed.ok()) {
      CountOutcome(counters_.errors);
      return parsed.status();
    }
    canonical = std::make_shared<const std::string>(ToString(*parsed));
    query.emplace(*std::move(parsed));
    if (memoize) canonical_memo_.Put(*memo_key, canonical);
  }

  // ---- Result cache. -----------------------------------------------------
  const char* task_name = HomTaskName(request.task);
  std::string result_key_text;
  result_key_text.reserve(4 + std::strlen(task_name) + limits_key_.size() +
                          db.target_key.size() + 1 + canonical->size());
  result_key_text += "res|";
  result_key_text += task_name;
  result_key_text += limits_key_;
  result_key_text += db.target_key;
  result_key_text += '|';
  result_key_text += *canonical;
  const CacheKey result_key =
      CacheKey::FromCanonical(std::move(result_key_text));
  if (options_.result_cache_entries > 0) {
    if (std::shared_ptr<const EngineResult> hit = result_cache_.Get(result_key)) {
      EngineResult copy = *hit;
      Count(counters_.result_hits);
      CountOutcome(counters_.served);
      FillServeSnapshot(&copy, /*plan_hit=*/false, /*result_hit=*/true);
      return copy;
    }
    Count(counters_.result_misses);
  }

  // ---- Plan cache: pair level first, then source level + rebind. ---------
  const CacheKey pair_key =
      CacheKey::FromCanonical("pair|" + db.target_key + "|" + *canonical);
  const CacheKey src_key =
      CacheKey::FromCanonical("src|" + db.vocab_key + "|" + *canonical);
  std::shared_ptr<const HomProblem> problem;
  bool plan_hit = false;
  if (options_.plan_cache_entries > 0) {
    problem = plan_cache_.Get(pair_key);
    if (problem != nullptr) {
      plan_hit = true;  // target-side artifacts warm too
    } else if (std::shared_ptr<const HomProblem> src = plan_cache_.Get(src_key)) {
      // Same query, new database (or new version): share every source-side
      // artifact, rebuild only the target side.
      auto rebound = src->WithTarget(db.structure);
      if (rebound.ok()) {
        plan_hit = true;
        auto shared = std::make_shared<const HomProblem>(*std::move(rebound));
        plan_cache_.Put(pair_key, shared);
        problem = std::move(shared);
      }
      // A vocabulary mismatch here means the src entry belongs to another
      // schema despite the vocab key — fall through to a cold compile.
    }
  }
  if (problem == nullptr) {
    if (!query.has_value()) {
      auto parsed = ParseQuery(request.query, db.structure->vocabulary());
      if (!parsed.ok()) {
        CountOutcome(counters_.errors);
        return parsed.status();
      }
      query.emplace(*std::move(parsed));
    }
    // Compile the source side against an empty database over the same
    // vocabulary, then bind the registered structure zero-copy — the path
    // a source-level hit takes — so no plan owns a copy of the data.
    auto compiled = HomProblem::FromQuery(
        *query, Structure(db.structure->vocabulary(), 0));
    Result<HomProblem> bound =
        compiled.ok() ? compiled->WithTarget(db.structure) : compiled.status();
    if (!bound.ok()) {
      CountOutcome(counters_.errors);
      return bound.status();
    }
    auto shared = std::make_shared<const HomProblem>(*std::move(bound));
    if (options_.plan_cache_entries > 0) {
      plan_cache_.Put(src_key, std::make_shared<const HomProblem>(
                                   *std::move(compiled)));
      plan_cache_.Put(pair_key, shared);
    }
    problem = std::move(shared);
  }
  Count(plan_hit ? counters_.plan_hits : counters_.plan_misses);

  // ---- In-flight bytes admission. ----------------------------------------
  // The same size-bound estimate the engine's pre-flight admission uses
  // (worst-case bytes of the per-atom Yannakakis materialization) doubles
  // as the queue policy's in-flight weight: cheap, monotone in the real
  // footprint, and already validated against the governor's accounting.
  if (options_.max_inflight_bytes > 0) {
    const size_t estimate =
        EstimateAcyclicBytes(problem->source(), *db.structure);
    size_t current = in_flight_bytes_.load(std::memory_order_relaxed);
    for (;;) {
      if (SatAdd(current, estimate, SIZE_MAX) > options_.max_inflight_bytes) {
        CountOutcome(counters_.shed_bytes);
        return Status::ResourceExhausted(
            "request shed: size-bound estimate " + std::to_string(estimate) +
            " bytes does not fit under the in-flight admission budget (" +
            std::to_string(options_.max_inflight_bytes) + " bytes, " +
            std::to_string(current) + " in flight)");
      }
      if (in_flight_bytes_.compare_exchange_weak(current, current + estimate,
                                                 std::memory_order_relaxed)) {
        break;
      }
    }
    guard.set_bytes_reserved(estimate);
  }

  // ---- Execute on the shared engine configuration. -----------------------
  HomEngine engine(options_.engine);
  auto result = engine.Run(*problem, request.task);
  if (!result.ok()) {
    CountOutcome(counters_.errors);
    return result.status();
  }
  const bool poison_trip = IsPoisonTrip(result->stats.governor);
  if (options_.poison_strikes > 0 &&
      (poison_trip || strike_entries_.load(std::memory_order_relaxed) > 0)) {
    MutexLock lock(quarantine_mu_);
    if (poison_trip) {
      if (strikes_.count(request.query) == 0 &&
          strikes_.size() >= kMaxQuarantineEntries) {
        strikes_.erase(strikes_.begin());
      }
      ++strikes_[request.query];
    } else {
      strikes_.erase(request.query);  // a clean run resets the count
    }
    strike_entries_.store(strikes_.size(), std::memory_order_relaxed);
  }
  if (options_.result_cache_entries > 0 && IsCacheable(*result)) {
    auto cached = std::make_shared<EngineResult>(*result);
    cached->stats.serve = ServeRequestStats{};  // hits refill it per request
    result_cache_.Put(result_key, std::move(cached));
  }
  CountOutcome(counters_.served);
  FillServeSnapshot(&*result, plan_hit, /*result_hit=*/false);
  return result;
}

ServeStats ServingEngine::stats() const {
  ServeStats snapshot;
  // Outcomes before requests, with acquire: see Counters.
  snapshot.served = counters_.served.load(std::memory_order_acquire);
  snapshot.errors = counters_.errors.load(std::memory_order_acquire);
  snapshot.shed_queue = counters_.shed_queue.load(std::memory_order_acquire);
  snapshot.shed_bytes = counters_.shed_bytes.load(std::memory_order_acquire);
  snapshot.quarantined = counters_.quarantined.load(std::memory_order_acquire);
  snapshot.requests = counters_.requests.load(std::memory_order_relaxed);
  snapshot.plan_hits = counters_.plan_hits.load(std::memory_order_relaxed);
  snapshot.plan_misses = counters_.plan_misses.load(std::memory_order_relaxed);
  snapshot.result_hits = counters_.result_hits.load(std::memory_order_relaxed);
  snapshot.result_misses =
      counters_.result_misses.load(std::memory_order_relaxed);
  snapshot.updates = counters_.updates.load(std::memory_order_relaxed);
  snapshot.invalidated_entries =
      counters_.invalidated_entries.load(std::memory_order_relaxed);
  snapshot.update_refusals =
      counters_.update_refusals.load(std::memory_order_relaxed);
  snapshot.recovered_dbs =
      counters_.recovered_dbs.load(std::memory_order_relaxed);
  snapshot.records_replayed =
      counters_.records_replayed.load(std::memory_order_relaxed);
  snapshot.queue_depth_peak =
      counters_.queue_depth_peak.load(std::memory_order_relaxed);
  snapshot.queue_depth = in_flight_.load(std::memory_order_relaxed);
  snapshot.inflight_bytes = in_flight_bytes_.load(std::memory_order_relaxed);
  snapshot.plan_cache_entries = plan_cache_.size();
  snapshot.result_cache_entries = result_cache_.size();
  {
    MutexLock lock(quarantine_mu_);
    snapshot.poisoned_queries = 0;
    for (const auto& [text, count] : strikes_) {
      if (count >= options_.poison_strikes) ++snapshot.poisoned_queries;
    }
  }
  {
    MutexLock lock(registry_mu_);
    snapshot.degraded = degraded_;
    if (durability_ != nullptr) {
      const DurabilityStats d = durability_->stats();
      snapshot.degraded = snapshot.degraded || d.poisoned;
      snapshot.wal_appends = d.wal_appends;
      snapshot.wal_append_failures = d.wal_append_failures;
      snapshot.snapshots = d.snapshots;
      snapshot.snapshot_failures = d.snapshot_failures;
    }
  }
  return snapshot;
}

}  // namespace cqcs::serve
