// Serving-layer benchmarks (recorded in BENCH_serving.json by
// bench/run_bench.sh): the ServingEngine's caches and admission under
// YCSB-style traffic — a small pool of repeated queries over a few slowly
// changing databases, with controllable skew (uniform / zipfian 0.5 and
// 0.99 / self-similar) and read vs update mix.
//
// Each benchmark iteration is ONE workload op, timed individually, so the
// counters can report real latency percentiles (p50/p95/p99) next to the
// throughput — google-benchmark's built-in aggregate is a mean, which hides
// exactly the tail the admission policy exists to protect.
//
// Arms (Arg 0 = cache mode, Arg 1 = distribution):
//   cache mode    0 = caches disabled, 1 = plan cache only, 2 = plan +
//                 result caches (the production configuration)
//   distribution  0 = uniform, 1 = zipfian theta 0.5, 2 = zipfian theta
//                 0.99 (the YCSB default), 3 = self-similar 80/20
//
// The headline claims live in the zipfian-0.99 read-heavy series: the
// plan-only arm's plan_hit_rate counter (>= 0.90 after warmup — the result
// cache is off, so every request consults the plan cache) and the full-cache
// arm's ops_per_sec against the disabled arm (>= 5x).
//
// BM_ServingHitPathClients is the scaling arm: 1/2/4/8 client threads
// sharing one engine whose answers are all cached, swept over zipfian
// theta 0.5 and 0.99 (Arg 0 = theta x 100). Its ops_per_sec is the
// clients' combined throughput over wall time.
//
// BM_ServingDurableReadsDuringUpdates is the read-path-under-writes arm:
// one writer thread upserts G(512, deg 6) databases through the WAL
// (fsync never) without pause while three reader threads serve cached
// answers from the other databases. Its p50/p90/p99_us are the readers'
// latencies, so they show whether a read waits behind an update's log
// append.
//
// BM_WalEncodeUpsert is the log append's CPU cost on its own: it encodes
// and frames one G(512, deg 6) upsert record (structure text plus CRC32C)
// and writes nothing.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cq/query.h"
#include "gen/generators.h"
#include "serve/durability.h"
#include "serve/serving.h"
#include "serve/workload.h"

namespace cqcs {
namespace {

constexpr uint32_t kQueryPool = 16;
constexpr uint32_t kDbPool = 4;
constexpr size_t kDbUniverse = 48;
constexpr double kDbEdgeProb = 0.15;

// Distinct chain/star queries: the pool the plan cache amortizes over.
std::vector<std::string> MakeQueryPool(const VocabularyPtr& vocab,
                                       uint32_t n) {
  std::vector<std::string> pool;
  pool.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ConjunctiveQuery q = (i % 2 == 0) ? ChainQuery(vocab, 2 + i / 2)
                                      : StarQuery(vocab, 2 + i / 2);
    pool.push_back(ToString(q));
  }
  return pool;
}

Structure MakeDb(const VocabularyPtr& vocab, uint32_t index,
                 uint64_t version) {
  // Version enters the seed: an update genuinely changes the content, so a
  // stale cached answer would be observably wrong.
  Rng rng(0xdb0 + index * 1315423911ull + version * 2654435761ull);
  return RandomGraphStructure(vocab, kDbUniverse, kDbEdgeProb, rng,
                              /*symmetric=*/true);
}

std::string DbName(uint32_t index) { return "db" + std::to_string(index); }

// fsync_mode: -1 = no durability (in-memory registry only), otherwise a
// serve::FsyncPolicy for a WAL-backed engine over a scratch data dir.
void RunServingMix(benchmark::State& state, double update_fraction,
                   int cache_mode, int dist_code, int fsync_mode = -1) {
  serve::Distribution dist = serve::Distribution::kUniform;
  double param = 0.0;
  switch (dist_code) {
    case 0: dist = serve::Distribution::kUniform; break;
    case 1: dist = serve::Distribution::kZipfian; param = 0.5; break;
    case 2: dist = serve::Distribution::kZipfian; param = 0.99; break;
    case 3: dist = serve::Distribution::kSelfSimilar; param = 0.2; break;
  }

  auto vocab = MakeGraphVocabulary();
  serve::ServeOptions options;
  options.plan_cache_entries = cache_mode >= 1 ? 512 : 0;
  options.result_cache_entries = cache_mode >= 2 ? 4096 : 0;
  std::filesystem::path data_dir;
  if (fsync_mode >= 0) {
    data_dir = std::filesystem::temp_directory_path() /
               ("cqcs_bench_durable_" + std::to_string(::getpid()) + "_" +
                std::to_string(state.range(0)));
    std::filesystem::remove_all(data_dir);
    options.durability.data_dir = data_dir.string();
    options.durability.fsync = static_cast<serve::FsyncPolicy>(fsync_mode);
    // High threshold: the series measures per-record WAL cost, not
    // snapshot cost (snapshots are amortized and policy-independent).
    options.durability.snapshot_every_records = 1 << 20;
  }
  serve::ServingEngine engine(options);
  if (fsync_mode >= 0 && !engine.Open().ok()) {
    state.SkipWithError("durable engine failed to open its data dir");
    return;
  }
  const std::vector<std::string> queries = MakeQueryPool(vocab, kQueryPool);
  std::vector<uint64_t> versions(kDbPool, 0);
  for (uint32_t i = 0; i < kDbPool; ++i) {
    // A silently failed upsert would make the bench serve NotFound errors
    // and measure the error path instead of the workload.
    if (!engine.UpsertDatabase(DbName(i), MakeDb(vocab, i, 0)).ok()) {
      state.SkipWithError("database registration failed during setup");
      return;
    }
  }

  serve::WorkloadSpec spec;
  spec.num_queries = kQueryPool;
  spec.num_databases = kDbPool;
  spec.query_dist = dist;
  spec.query_skew = param;
  spec.update_fraction = update_fraction;
  serve::Workload workload(spec);

  std::vector<double> lat_us;
  lat_us.reserve(1 << 16);
  for (auto _ : state) {
    const serve::Op op = workload.Next();
    const auto start = std::chrono::steady_clock::now();
    if (op.type == serve::OpType::kUpdate) {
      // A refused update (e.g. the durable engine went DEGRADED mid-run)
      // would quietly turn the update-heavy mix into a read-only one.
      Status update = engine.UpsertDatabase(
          DbName(op.database),
          MakeDb(vocab, op.database, ++versions[op.database]));
      if (!update.ok()) {
        state.SkipWithError(("update refused mid-run: " + update.ToString())
                                .c_str());
        break;
      }
    } else {
      serve::ServeRequest request;
      request.query = queries[op.query];
      request.database = DbName(op.database);
      request.task = HomTask::kDecide;
      auto result = engine.Serve(request);
      benchmark::DoNotOptimize(result);
    }
    const auto stop = std::chrono::steady_clock::now();
    lat_us.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }

  std::sort(lat_us.begin(), lat_us.end());
  auto pct = [&](double p) {
    if (lat_us.empty()) return 0.0;
    const size_t idx = static_cast<size_t>(p * (lat_us.size() - 1));
    return lat_us[idx];
  };
  const double total_us =
      std::accumulate(lat_us.begin(), lat_us.end(), 0.0);
  const serve::ServeStats stats = engine.stats();
  state.counters["p50_us"] = pct(0.50);
  state.counters["p95_us"] = pct(0.95);
  state.counters["p99_us"] = pct(0.99);
  state.counters["ops_per_sec"] =
      total_us > 0 ? static_cast<double>(lat_us.size()) / (total_us * 1e-6)
                   : 0.0;
  state.counters["plan_hit_rate"] = stats.PlanHitRate();
  state.counters["result_hit_rate"] = stats.ResultHitRate();
  state.counters["updates"] = static_cast<double>(stats.updates);
  state.counters["invalidated"] =
      static_cast<double>(stats.invalidated_entries);
  if (fsync_mode >= 0) {
    state.counters["wal_appends"] = static_cast<double>(stats.wal_appends);
    state.counters["snapshots"] = static_cast<double>(stats.snapshots);
    std::filesystem::remove_all(data_dir);
  }
}

void BM_ServingReadHeavy(benchmark::State& state) {
  RunServingMix(state, /*update_fraction=*/0.0,
                static_cast<int>(state.range(0)),
                static_cast<int>(state.range(1)));
}
// Cache-mode sweep at zipfian 0.99 (the headline series), then the
// distribution sweep at the full-cache configuration.
BENCHMARK(BM_ServingReadHeavy)
    ->Args({0, 2})->Args({1, 2})->Args({2, 2})
    ->Args({2, 0})->Args({2, 1})->Args({2, 3})
    ->Unit(benchmark::kMicrosecond);

void BM_ServingUpdateHeavy(benchmark::State& state) {
  RunServingMix(state, /*update_fraction=*/0.3,
                static_cast<int>(state.range(0)),
                static_cast<int>(state.range(1)));
}
// Updates regenerate the database (new version), so every third op pays
// generation + registration + the invalidation sweep; the result-cache hit
// rate shows what skewed reads still salvage between updates.
BENCHMARK(BM_ServingUpdateHeavy)
    ->Args({0, 2})->Args({2, 2})
    ->Unit(benchmark::kMicrosecond);

void BM_ServingDurableUpdateHeavy(benchmark::State& state) {
  // Arg 0 = fsync policy: 0 = always (sync per WAL record), 1 = interval
  // (100ms group sync), 2 = never (OS page cache only). Full caches,
  // zipfian 0.99 — the durable delta rides on the same mix as the
  // in-memory update-heavy arm, so (always - never) is the headline
  // per-update fsync cost and (BM_ServingUpdateHeavy/2/2 - never) the WAL
  // encoding overhead.
  RunServingMix(state, /*update_fraction=*/0.3, /*cache_mode=*/2,
                /*dist_code=*/2, /*fsync_mode=*/static_cast<int>(state.range(0)));
}
BENCHMARK(BM_ServingDurableUpdateHeavy)
    ->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMicrosecond);

// ---- Concurrent clients on the result-hit path. ---------------------------

constexpr uint32_t kHitVariants = 3;

/// Whitespace variant v of a query text: the variants share one canonical
/// form, so they share one result entry but are three distinct raw texts.
std::string WhitespaceVariant(const std::string& text, uint32_t v) {
  std::string out;
  for (char c : text) {
    if (v == 1 && c == ' ') continue;  // compact
    if (v == 2 && c == ',') {
      out += " ,";  // padded
      continue;
    }
    out += c;
  }
  return out;
}

/// One engine shared by every client thread, every (query, variant, db)
/// answer cached before timing starts.
struct HitPathFixture {
  serve::ServingEngine engine;
  std::vector<serve::ServeRequest> requests;  ///< [query][variant][db]

  static size_t Index(uint32_t q, uint32_t v, uint32_t d) {
    return (static_cast<size_t>(q) * kHitVariants + v) * kDbPool + d;
  }
};

std::unique_ptr<HitPathFixture> MakeHitPathFixture() {
  auto fixture = std::make_unique<HitPathFixture>();
  auto vocab = MakeGraphVocabulary();
  for (uint32_t d = 0; d < kDbPool; ++d) {
    if (!fixture->engine.UpsertDatabase(DbName(d), MakeDb(vocab, d, 0)).ok()) {
      return nullptr;
    }
  }
  const std::vector<std::string> queries = MakeQueryPool(vocab, kQueryPool);
  fixture->requests.resize(static_cast<size_t>(kQueryPool) * kHitVariants *
                           kDbPool);
  for (uint32_t q = 0; q < kQueryPool; ++q) {
    for (uint32_t v = 0; v < kHitVariants; ++v) {
      for (uint32_t d = 0; d < kDbPool; ++d) {
        serve::ServeRequest& request =
            fixture->requests[HitPathFixture::Index(q, v, d)];
        request.query = WhitespaceVariant(queries[q], v);
        request.database = DbName(d);
        request.task = HomTask::kDecide;
        if (!fixture->engine.Serve(request).ok()) return nullptr;
      }
    }
  }
  return fixture;
}

// Set up by thread 0 before the timed loop and torn down by it after;
// google-benchmark holds every thread at the loop's start and end.
std::unique_ptr<HitPathFixture> hit_path_fixture;

void BM_ServingHitPathClients(benchmark::State& state) {
  if (state.thread_index() == 0) hit_path_fixture = MakeHitPathFixture();
  const double theta = static_cast<double>(state.range(0)) / 100.0;
  auto chooser = serve::MakeKeyChooser(serve::Distribution::kZipfian,
                                       kQueryPool, theta);
  Rng rng(0x417 + static_cast<uint64_t>(state.thread_index()) * 7919);
  std::vector<double> lat_us;
  lat_us.reserve(1 << 16);
  uint64_t misses = 0;
  for (auto _ : state) {
    if (hit_path_fixture == nullptr) {
      state.SkipWithError("hit-path fixture set-up failed");
      break;
    }
    const uint32_t q = chooser->Next(rng);
    const auto v = static_cast<uint32_t>(rng.Below(kHitVariants));
    const auto d = static_cast<uint32_t>(rng.Below(kDbPool));
    const serve::ServeRequest& request =
        hit_path_fixture->requests[HitPathFixture::Index(q, v, d)];
    const auto start = std::chrono::steady_clock::now();
    auto result = hit_path_fixture->engine.Serve(request);
    const auto stop = std::chrono::steady_clock::now();
    if (!result.ok() || !result->stats.serve.result_cache_hit) ++misses;
    benchmark::DoNotOptimize(result);
    lat_us.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }

  std::sort(lat_us.begin(), lat_us.end());
  auto pct = [&](double p) {
    if (lat_us.empty()) return 0.0;
    return lat_us[static_cast<size_t>(p * (lat_us.size() - 1))];
  };
  using benchmark::Counter;
  // Percentiles are per client, averaged over clients; ops_per_sec sums
  // the clients' requests over the wall time.
  state.counters["p50_us"] = Counter(pct(0.50), Counter::kAvgThreads);
  state.counters["p95_us"] = Counter(pct(0.95), Counter::kAvgThreads);
  state.counters["p99_us"] = Counter(pct(0.99), Counter::kAvgThreads);
  state.counters["ops_per_sec"] =
      Counter(static_cast<double>(lat_us.size()), Counter::kIsRate);
  state.counters["non_hits"] = static_cast<double>(misses);
  if (state.thread_index() == 0) hit_path_fixture.reset();
}
// The skew sweep (theta 0.5, 0.99) times the client sweep (1, 2, 4, 8).
void HitPathSweep(benchmark::internal::Benchmark* b) {
  for (int theta_x100 : {50, 99}) b->Arg(theta_x100);
  b->ThreadRange(1, 8);
}
BENCHMARK(BM_ServingHitPathClients)
    ->Apply(HitPathSweep)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

constexpr size_t kChurnUniverse = 512;
constexpr double kChurnDegree = 6.0;
constexpr uint32_t kReadDbs = 3;

/// The G(512, deg 6) random graphs the durable arms upsert.
Structure MakeChurnDb(const VocabularyPtr& vocab, Rng& rng) {
  return RandomGraphStructure(vocab, kChurnUniverse,
                              kChurnDegree / (kChurnUniverse - 1), rng,
                              /*symmetric=*/true);
}

// ---- One WAL record, encoded and framed. -----------------------------------

/// The CPU half of a durable update's log append: the structure text, the
/// record line and the CRC32C of one G(512, deg 6) upsert, with no file
/// write. bytes_per_record is the frame's size.
void BM_WalEncodeUpsert(benchmark::State& state) {
  auto vocab = MakeGraphVocabulary();
  Rng rng(0xd0ab1e);
  const Structure db = MakeChurnDb(vocab, rng);
  size_t bytes = 0;
  for (auto _ : state) {
    std::string frame = serve::EncodeUpsertRecord("db0", 1, db);
    bytes = frame.size();
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  state.counters["bytes_per_record"] = static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_WalEncodeUpsert)->Unit(benchmark::kMicrosecond);

// ---- Readers while a writer updates through the WAL. -----------------------

/// A durable engine (fsync never) whose kReadDbs read databases have every
/// query's answer cached, plus a writer thread that upserts a fourth
/// database, alternating two pre-built G(512, deg 6) payloads, until the
/// fixture is destroyed.
struct DurableReadsFixture {
  std::filesystem::path data_dir;
  std::unique_ptr<serve::ServingEngine> engine;
  std::vector<serve::ServeRequest> requests;
  std::vector<Structure> payloads;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> updates{0};
  std::atomic<bool> update_failed{false};
  std::thread writer;

  DurableReadsFixture() = default;
  DurableReadsFixture(const DurableReadsFixture&) = delete;
  DurableReadsFixture& operator=(const DurableReadsFixture&) = delete;
  ~DurableReadsFixture() {
    stop.store(true);
    if (writer.joinable()) writer.join();
    engine.reset();
    std::filesystem::remove_all(data_dir);
  }
};

std::unique_ptr<DurableReadsFixture> MakeDurableReadsFixture() {
  auto fixture = std::make_unique<DurableReadsFixture>();
  fixture->data_dir = std::filesystem::temp_directory_path() /
                      ("cqcs_bench_durable_reads_" +
                       std::to_string(::getpid()));
  std::filesystem::remove_all(fixture->data_dir);
  serve::ServeOptions options;
  options.durability.data_dir = fixture->data_dir.string();
  options.durability.fsync = serve::FsyncPolicy::kNever;
  // Per-record cost only: no snapshot lands in the timed window.
  options.durability.snapshot_every_records = 1 << 20;
  fixture->engine = std::make_unique<serve::ServingEngine>(options);
  if (!fixture->engine->Open().ok()) return nullptr;

  auto vocab = MakeGraphVocabulary();
  Rng rng(0xd0ab1e);
  auto make_db = [&] { return MakeChurnDb(vocab, rng); };
  const std::vector<std::string> queries = MakeQueryPool(vocab, kQueryPool);
  for (uint32_t d = 0; d < kReadDbs; ++d) {
    if (!fixture->engine->UpsertDatabase(DbName(d), make_db()).ok()) {
      return nullptr;
    }
    for (const std::string& query : queries) {
      serve::ServeRequest request;
      request.query = query;
      request.database = DbName(d);
      request.task = HomTask::kDecide;
      if (!fixture->engine->Serve(request).ok()) return nullptr;
      fixture->requests.push_back(std::move(request));
    }
  }
  fixture->payloads.push_back(make_db());
  fixture->payloads.push_back(make_db());
  DurableReadsFixture* f = fixture.get();
  f->writer = std::thread([f] {
    for (uint64_t i = 0; !f->stop.load(std::memory_order_relaxed); ++i) {
      if (!f->engine->UpsertDatabase(DbName(kReadDbs), f->payloads[i % 2])
               .ok()) {
        f->update_failed.store(true);
        return;
      }
      f->updates.fetch_add(1, std::memory_order_relaxed);
    }
  });
  return fixture;
}

// Set up (and its writer started) by thread 0 before the timed loop, torn
// down by it after; google-benchmark holds every thread at the loop's start
// and end.
std::unique_ptr<DurableReadsFixture> durable_reads_fixture;

void BM_ServingDurableReadsDuringUpdates(benchmark::State& state) {
  if (state.thread_index() == 0) {
    durable_reads_fixture = MakeDurableReadsFixture();
  }
  Rng rng(0x5ead + static_cast<uint64_t>(state.thread_index()) * 7919);
  std::vector<double> lat_us;
  lat_us.reserve(1 << 16);
  uint64_t misses = 0;
  for (auto _ : state) {
    if (durable_reads_fixture == nullptr) {
      state.SkipWithError("durable-reads fixture set-up failed");
      break;
    }
    const std::vector<serve::ServeRequest>& requests =
        durable_reads_fixture->requests;
    const serve::ServeRequest& request =
        requests[rng.Below(requests.size())];
    const auto start = std::chrono::steady_clock::now();
    auto result = durable_reads_fixture->engine->Serve(request);
    const auto stop = std::chrono::steady_clock::now();
    if (!result.ok() || !result->stats.serve.result_cache_hit) ++misses;
    benchmark::DoNotOptimize(result);
    lat_us.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }

  std::sort(lat_us.begin(), lat_us.end());
  auto pct = [&](double p) {
    if (lat_us.empty()) return 0.0;
    return lat_us[static_cast<size_t>(p * (lat_us.size() - 1))];
  };
  using benchmark::Counter;
  // Percentiles are per reader, averaged over the readers; ops_per_sec
  // sums the readers' requests over the wall time.
  state.counters["p50_us"] = Counter(pct(0.50), Counter::kAvgThreads);
  state.counters["p90_us"] = Counter(pct(0.90), Counter::kAvgThreads);
  state.counters["p99_us"] = Counter(pct(0.99), Counter::kAvgThreads);
  state.counters["ops_per_sec"] =
      Counter(static_cast<double>(lat_us.size()), Counter::kIsRate);
  state.counters["non_hits"] = static_cast<double>(misses);
  if (state.thread_index() == 0 && durable_reads_fixture != nullptr) {
    durable_reads_fixture->stop.store(true);
    durable_reads_fixture->writer.join();
    // A writer that stopped early would leave the readers measuring an
    // idle log.
    if (durable_reads_fixture->update_failed.load()) {
      state.SkipWithError("writer's update refused mid-run");
    }
    state.counters["updates_per_sec"] = Counter(
        static_cast<double>(durable_reads_fixture->updates.load()),
        Counter::kIsRate);
    durable_reads_fixture.reset();
  }
}
BENCHMARK(BM_ServingDurableReadsDuringUpdates)
    ->Threads(kReadDbs)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cqcs
