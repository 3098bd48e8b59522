// Concurrency stress for the serving path (`ctest -L serve`; run under
// -DCQCS_SANITIZE=thread for the race check).
//
// Two nets:
//   - N threads hammer ONE shared HomProblem through mixed tasks and
//     WithTarget rebinds. The problem's lazy caches (canonical query, GYO
//     verdict, decomposition, CSP) are mutex-guarded and built at most
//     once; every concurrent answer must equal the sequentially computed
//     oracle for its (target, task) cell.
//   - N threads drive one ServingEngine with mixed reads and updates: the
//     reads hit databases that are never updated (so every answer is
//     oracle-checkable even mid-race) while a writer thread churns a
//     separate database, racing the invalidation sweeps against the
//     readers' cache probes.
//   - The same shape over a DURABLE engine with an aggressive snapshot
//     threshold: writers keep forcing log rotations (under the registry
//     lock) while snapshot serialization and pruning run outside it, and
//     readers keep serving throughout. A reopen afterwards must recover
//     the exact final catalog.
//   - The write path off the read lock: while an upsert is stalled inside
//     its WAL append (a FaultyFs stall failpoint), a cold miss, a result
//     hit, ListDatabases() and stats() on the engine must all complete.
//   - The log-order contracts under races: writers upsert ONE name while
//     another drops and re-registers it, and (second arm) an append fails
//     mid-race. The log is read back record by record: versions are
//     distinct and in append order, the registry matches the last
//     acknowledged record, and a reopen reproduces it byte for byte.
//   - A drop and a re-registration of one name while a slow count on it
//     is in flight: the count's result, put after both, must never answer
//     the new incarnation (its WAL version restarts at 1).
//   - Cold queries from several threads against a freshly registered
//     database that was never indexed: every request rebinds a cached
//     source plan onto the same shared structure (WithTarget shares it,
//     no copy) and builds its target side (CSP network or treewidth
//     tables) over it, so the relations' lazily built indexes must
//     already exist when the structure is published.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/fs.h"
#include "common/rng.h"
#include "core/io.h"
#include "cq/parser.h"
#include "cq/query.h"
#include "gen/generators.h"
#include "serve/serving.h"

namespace cqcs {
namespace {

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 40;

/// A scratch data directory, unique per process and test, removed on exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("cqcs_serve_stress_" + tag + "_" +
                std::to_string(::getpid())))
                  .string()) {
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A durable engine's options: one log generation (no snapshots), so the
/// whole update history stays readable in wal-0.
serve::ServeOptions OneLogOptions(const std::string& dir, FileSystem* fs) {
  serve::ServeOptions options;
  options.engine.count_limit = 1u << 20;
  options.durability.data_dir = dir;
  options.durability.fsync = serve::FsyncPolicy::kNever;
  options.durability.snapshot_every_records = 0;
  options.durability.fs = fs;
  return options;
}

/// One WAL record: 'U' (upsert, with version and structure text) or 'D'.
struct WalRecord {
  char op = 0;
  std::string name;
  uint64_t version = 0;
  std::string structure;
};

/// Reads a log back in append order ([u32 LE length][u32 LE CRC][payload],
/// payload "U <name> <version>\n<structure>" or "D <name>\n").
std::vector<WalRecord> ReadLog(const std::string& path) {
  auto content = RealFileSystem()->ReadFile(path);
  EXPECT_TRUE(content.ok()) << path;
  std::vector<WalRecord> records;
  if (!content.ok()) return records;
  const std::string& log = *content;
  size_t off = 0;
  while (off + 8 <= log.size()) {
    const auto* u = reinterpret_cast<const unsigned char*>(log.data() + off);
    const size_t len = u[0] | (u[1] << 8) | (u[2] << 16) |
                       (static_cast<size_t>(u[3]) << 24);
    const std::string payload = log.substr(off + 8, len);
    off += 8 + len;
    const size_t eol = payload.find('\n');
    const std::string header = payload.substr(0, eol);
    WalRecord record;
    record.op = header[0];
    const size_t name_end = header.find(' ', 2);
    record.name = header.substr(2, name_end - 2);
    if (record.op == 'U') {
      record.version = std::stoull(header.substr(name_end + 1));
      record.structure = payload.substr(eol + 1);
    }
    records.push_back(std::move(record));
  }
  EXPECT_EQ(off, log.size()) << "torn log " << path;
  return records;
}

/// Readers for the race arms: count queries on a database nobody updates
/// (oracle-checked) and on the contended name (which may be mid-drop).
class ReaderPool {
 public:
  ReaderPool(serve::ServingEngine* serving, const std::string& stable,
             const std::string& contended, size_t expected_count) {
    for (int r = 0; r < 2; ++r) {
      threads_.emplace_back([this, serving, stable, contended,
                             expected_count] {
        serve::ServeRequest request;
        request.query = "Q(X) :- E(X, Y), E(Y, Z).";
        request.task = HomTask::kCount;
        while (!stop_.load()) {
          request.database = stable;
          auto r1 = serving->Serve(request);
          if (!r1.ok() || r1->count != expected_count) ++failures_;
          request.database = contended;
          auto r2 = serving->Serve(request);
          if (!r2.ok() && r2.status().code() != StatusCode::kNotFound) {
            ++failures_;
          }
        }
      });
    }
  }
  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;

  /// Stops and joins the readers; returns how many reads went wrong.
  int Finish() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
    threads_.clear();
    return failures_.load();
  }
  ~ReaderPool() { Finish(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> failures_{0};
  std::vector<std::thread> threads_;
};

/// The count of `query` on `db`, computed off the serving path.
size_t OracleCount(const std::string& query, const Structure& db) {
  auto q = ParseQuery(query, db.vocabulary());
  EXPECT_TRUE(q.ok());
  auto problem = HomProblem::FromQuery(*q, db);
  EXPECT_TRUE(problem.ok());
  auto r = HomEngine().Run(*problem, HomTask::kCount);
  EXPECT_TRUE(r.ok());
  return r->count;
}

/// A reopen of `dir` must reproduce `serving`'s catalog: names, versions,
/// and every structure byte for byte.
void ExpectReopenMatches(const serve::ServingEngine& serving,
                         const std::string& dir) {
  const auto expected = serving.ListDatabases();
  serve::ServingEngine reopened(OneLogOptions(dir, nullptr));
  ASSERT_TRUE(reopened.Open(nullptr).ok());
  EXPECT_EQ(reopened.ListDatabases(), expected);
  for (const auto& [name, version] : expected) {
    auto ours = serving.GetDatabase(name);
    auto theirs = reopened.GetDatabase(name);
    ASSERT_TRUE(ours.ok() && theirs.ok()) << name;
    EXPECT_EQ(PrintStructure(**ours), PrintStructure(**theirs)) << name;
  }
}

TEST(ServeStressTest, SharedProblemMixedTasksAndRebindsMatchOracle) {
  auto vocab = MakeGraphVocabulary();
  Rng rng(0x57a6);
  Structure source = StructureFromGraph(vocab, RandomTree(10, rng));
  std::vector<Structure> targets;
  for (int t = 0; t < 4; ++t) {
    Rng target_rng(100 + t);
    targets.push_back(
        RandomGraphStructure(vocab, 12, 0.25, target_rng, /*symmetric=*/true));
  }

  EngineOptions options;
  options.count_limit = 1u << 20;
  options.max_results = 256;

  // Sequential oracle per (target, task) cell, computed on throwaway
  // problems before any concurrency starts.
  struct Cell {
    bool decided = false;
    size_t count = 0;
    size_t rows = 0;
  };
  std::vector<Cell> oracle(targets.size());
  for (size_t t = 0; t < targets.size(); ++t) {
    auto problem = HomProblem::FromStructures(source, targets[t]);
    ASSERT_TRUE(problem.ok());
    HomEngine engine(options);
    auto decide = engine.Run(*problem, HomTask::kDecide);
    auto count = engine.Run(*problem, HomTask::kCount);
    auto enumerate = engine.Run(*problem, HomTask::kEnumerate);
    ASSERT_TRUE(decide.ok() && count.ok() && enumerate.ok());
    oracle[t] = Cell{decide->decided, count->count, enumerate->rows.size()};
  }

  // The single shared problem every thread runs against; rebinds share its
  // source cache by construction.
  auto base = HomProblem::FromStructures(source, targets[0]);
  ASSERT_TRUE(base.ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int worker = 0; worker < kThreads; ++worker) {
    threads.emplace_back([&, worker] {
      HomEngine engine(options);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const size_t t = (worker + i) % targets.size();
        const int task_code = (worker * 7 + i) % 3;
        // Every iteration rebinds (including back to targets[0]): the
        // rebind path itself is part of what must be race-free.
        auto bound = base->WithTarget(targets[t]);
        if (!bound.ok()) {
          ++failures;
          continue;
        }
        const HomTask task = task_code == 0   ? HomTask::kDecide
                             : task_code == 1 ? HomTask::kCount
                                              : HomTask::kEnumerate;
        auto r = engine.Run(*bound, task);
        if (!r.ok()) {
          ++failures;
          continue;
        }
        const Cell& expected = oracle[t];
        const bool match =
            task == HomTask::kDecide  ? r->decided == expected.decided
            : task == HomTask::kCount ? r->count == expected.count
                                      : r->rows.size() == expected.rows;
        if (!match) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServeStressTest, ConcurrentServeAndUpdateStayCoherent) {
  auto vocab = MakeGraphVocabulary();
  serve::ServeOptions options;
  options.engine.count_limit = 1u << 20;
  serve::ServingEngine serving(options);

  // Stable databases: read by every thread, never updated, so the answers
  // are oracle-checkable even while the writer churns "hot".
  std::vector<Structure> stable;
  std::vector<std::string> queries;
  for (int d = 0; d < 2; ++d) {
    Rng rng(200 + d);
    stable.push_back(
        RandomGraphStructure(vocab, 16, 0.25, rng, /*symmetric=*/true));
    ASSERT_TRUE(
        serving.UpsertDatabase("stable" + std::to_string(d), stable[d]).ok());
  }
  for (size_t len = 2; len <= 4; ++len) {
    queries.push_back(ToString(ChainQuery(vocab, len)));
    queries.push_back(ToString(StarQuery(vocab, len)));
  }
  std::vector<std::vector<size_t>> oracle_counts(stable.size());
  for (size_t d = 0; d < stable.size(); ++d) {
    for (const std::string& q_text : queries) {
      auto q = ParseQuery(q_text, stable[d].vocabulary());
      ASSERT_TRUE(q.ok());
      auto problem = HomProblem::FromQuery(*q, stable[d]);
      ASSERT_TRUE(problem.ok());
      HomEngine engine(options.engine);
      auto r = engine.Run(*problem, HomTask::kCount);
      ASSERT_TRUE(r.ok());
      oracle_counts[d].push_back(r->count);
    }
  }

  Rng hot_rng(0x407);
  ASSERT_TRUE(serving
                  .UpsertDatabase("hot", RandomGraphStructure(
                                             vocab, 16, 0.25, hot_rng,
                                             /*symmetric=*/true))
                  .ok());

  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // Churn the hot database: each upsert bumps its version and races the
    // invalidation sweep against the readers below.
    uint64_t version = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Rng rng(0x407 + ++version);
      Structure db =
          RandomGraphStructure(vocab, 16, 0.25, rng, /*symmetric=*/true);
      if (!serving.UpsertDatabase("hot", std::move(db)).ok()) ++failures;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int worker = 0; worker < kThreads; ++worker) {
    readers.emplace_back([&, worker] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const size_t q = (worker * 5 + i) % queries.size();
        serve::ServeRequest request;
        request.query = queries[q];
        request.task = HomTask::kCount;
        if (i % 4 == 3) {
          // Reads of the churning database exercise the registry/cache
          // races; any registered version's answer is acceptable, but the
          // serve itself must succeed.
          request.database = "hot";
          if (!serving.Serve(request).ok()) ++failures;
          continue;
        }
        const size_t d = (worker + i) % stable.size();
        request.database = "stable" + std::to_string(d);
        auto r = serving.Serve(request);
        if (!r.ok() || r->count != oracle_counts[d][q]) ++failures;
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(failures.load(), 0);

  const serve::ServeStats stats = serving.stats();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.served, stats.requests);  // no admission bounds set
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GT(stats.updates, 2u);
}

TEST(ServeStressTest, DurableConcurrentUpdatesSnapshotWithoutBlockingReads) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "cqcs_serve_stress_durable")
          .string();
  std::filesystem::remove_all(dir);
  auto vocab = MakeGraphVocabulary();
  serve::ServeOptions options;
  options.durability.data_dir = dir;
  // Every few updates crosses the threshold: rotations (under the writer
  // lock) constantly interleave with snapshot writes (outside it) while
  // readers and other writers keep going.
  options.durability.snapshot_every_records = 4;
  options.durability.fsync = serve::FsyncPolicy::kNever;  // speed, not loss
  {
    serve::ServingEngine serving(options);
    ASSERT_TRUE(serving.Open(nullptr).ok());
    Rng seed_rng(0xd0c);
    ASSERT_TRUE(
        serving
            .UpsertDatabase("read0", RandomGraphStructure(vocab, 12, 0.3,
                                                          seed_rng,
                                                          /*symmetric=*/true))
            .ok());
    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
      writers.emplace_back([&, w] {
        // Each writer owns its names: per-name versions stay deterministic
        // while rotations and snapshot writes race across writers.
        for (int i = 0; i < kOpsPerThread; ++i) {
          Rng rng(w * 1000 + i);
          Structure db =
              RandomGraphStructure(vocab, 10, 0.3, rng, /*symmetric=*/true);
          const std::string name =
              "w" + std::to_string(w) + "-" + std::to_string(i % 3);
          if (!serving.UpsertDatabase(name, std::move(db)).ok()) ++failures;
        }
      });
    }
    std::vector<std::thread> readers;
    for (int r = 0; r < 4; ++r) {
      readers.emplace_back([&] {
        serve::ServeRequest request;
        request.query = "Q() :- E(X, Y), E(Y, Z).";
        request.database = "read0";
        request.task = HomTask::kDecide;
        for (int i = 0; i < kOpsPerThread; ++i) {
          if (!serving.Serve(request).ok()) ++failures;
        }
      });
    }
    for (auto& t : writers) t.join();
    for (auto& t : readers) t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_FALSE(serving.degraded());
    const serve::ServeStats stats = serving.stats();
    EXPECT_GT(stats.snapshots, 0u);
    EXPECT_EQ(stats.snapshot_failures, 0u);
    // Recovery must reproduce the final catalog exactly: names, versions,
    // and contents.
    auto expected = serving.ListDatabases();
    serve::ServingEngine reopened(options);
    ASSERT_TRUE(reopened.Open(nullptr).ok());
    EXPECT_EQ(reopened.ListDatabases(), expected);
    for (const auto& [name, version] : expected) {
      auto ours = serving.GetDatabase(name);
      auto theirs = reopened.GetDatabase(name);
      ASSERT_TRUE(ours.ok() && theirs.ok()) << name;
      EXPECT_EQ(PrintStructure(**ours), PrintStructure(**theirs)) << name;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ServeStressTest, ReadsAndHitsCompleteWhileAWalAppendStalls) {
  ScratchDir dir("stall");
  auto vocab = MakeGraphVocabulary();
  FaultyFs faulty(RealFileSystem());
  serve::ServingEngine serving(OneLogOptions(dir.path(), &faulty));
  ASSERT_TRUE(serving.Open(nullptr).ok());
  Rng rng(0x57a11);
  const Structure b =
      RandomGraphStructure(vocab, 14, 0.3, rng, /*symmetric=*/true);
  ASSERT_TRUE(serving
                  .UpsertDatabase("A", RandomGraphStructure(
                                           vocab, 10, 0.3, rng,
                                           /*symmetric=*/true))
                  .ok());
  ASSERT_TRUE(serving.UpsertDatabase("B", b).ok());
  const std::string hit_query = "Q(X) :- E(X, Y), E(Y, Z).";
  const std::string cold_query = "Q(X) :- E(X, Y), E(Y, Z), E(Z, W).";
  serve::ServeRequest warm{hit_query, "B", HomTask::kCount};
  ASSERT_TRUE(serving.Serve(warm).ok());
  const size_t hit_count = OracleCount(hit_query, b);
  const size_t cold_count = OracleCount(cold_query, b);

  // The next Append anywhere is A's WAL record: it blocks until released.
  FsFailpoints stall;
  stall.stall_write_n = faulty.writes() + 1;
  faulty.set_failpoints(stall);
  Rng a2_rng(0xa2);
  const Structure a2 =
      RandomGraphStructure(vocab, 10, 0.3, a2_rng, /*symmetric=*/true);
  Status upsert = Status::Internal("not run");
  std::thread writer([&] { upsert = serving.UpsertDatabase("A", a2); });
  faulty.AwaitStall();

  // Every probe runs while the append is stalled; an empty string is a pass.
  auto probes = std::async(std::launch::async, [&]() -> std::string {
    auto cold = serving.Serve({cold_query, "B", HomTask::kCount});
    if (!cold.ok() || cold->stats.serve.result_cache_hit ||
        cold->count != cold_count) {
      return "cold miss on B";
    }
    auto hit = serving.Serve(warm);
    if (!hit.ok() || !hit->stats.serve.result_cache_hit ||
        hit->count != hit_count) {
      return "result hit on B";
    }
    // Log before apply: A is still at its old version mid-append.
    const auto listed = serving.ListDatabases();
    if (listed.size() != 2 || listed[0] != std::make_pair(std::string("A"),
                                                          uint64_t{1})) {
      return "ListDatabases";
    }
    const serve::ServeStats stats = serving.stats();
    if (stats.wal_appends != 2 || stats.degraded || serving.degraded()) {
      return "stats";
    }
    return "";
  });
  const bool completed =
      probes.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
  faulty.ReleaseStall();
  writer.join();
  EXPECT_TRUE(completed) << "reads waited on the stalled WAL append";
  EXPECT_EQ(probes.get(), "");
  ASSERT_TRUE(upsert.ok()) << upsert.ToString();
  const auto listed = serving.ListDatabases();
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0], std::make_pair(std::string("A"), uint64_t{2}));
  auto stored = serving.GetDatabase("A");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(PrintStructure(**stored), PrintStructure(a2));
}

TEST(ServeStressTest, SameNameWritersGetDistinctVersionsInLogOrder) {
  ScratchDir dir("samename");
  auto vocab = MakeGraphVocabulary();
  serve::ServingEngine serving(OneLogOptions(dir.path(), nullptr));
  ASSERT_TRUE(serving.Open(nullptr).ok());
  Rng rng(0x5a3e);
  const Structure stable =
      RandomGraphStructure(vocab, 12, 0.3, rng, /*symmetric=*/true);
  ASSERT_TRUE(serving.UpsertDatabase("stable", stable).ok());
  ASSERT_TRUE(serving
                  .UpsertDatabase("shared", RandomGraphStructure(
                                                vocab, 10, 0.3, rng,
                                                /*symmetric=*/true))
                  .ok());
  ReaderPool readers(&serving, "stable", "shared",
                     OracleCount("Q(X) :- E(X, Y), E(Y, Z).", stable));

  constexpr int kUpserters = 3;
  constexpr int kUpserts = 30;
  constexpr int kDrops = 10;
  std::atomic<int> acked_upserts{2};  // the two registrations above
  std::atomic<int> acked_drops{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kUpserters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kUpserts; ++i) {
        Rng db_rng(w * 1000 + i);
        Status s = serving.UpsertDatabase(
            "shared",
            RandomGraphStructure(vocab, 10, 0.3, db_rng, /*symmetric=*/true));
        s.ok() ? ++acked_upserts : ++failures;
      }
    });
  }
  writers.emplace_back([&] {
    for (int i = 0; i < kDrops; ++i) {
      Status dropped = serving.DropDatabase("shared");
      if (dropped.ok()) {
        ++acked_drops;
      } else if (dropped.code() != StatusCode::kNotFound) {
        ++failures;
      }
      Rng db_rng(0xd0 + i);
      Status s = serving.UpsertDatabase(
          "shared",
          RandomGraphStructure(vocab, 10, 0.3, db_rng, /*symmetric=*/true));
      s.ok() ? ++acked_upserts : ++failures;
      std::this_thread::yield();
    }
  });
  for (auto& t : writers) t.join();
  EXPECT_EQ(readers.Finish(), 0);
  EXPECT_EQ(failures.load(), 0);

  // Append order is apply order: in the log, "shared"'s versions count up
  // by one from each drop, so no two acknowledged upserts share a version.
  const std::vector<WalRecord> log = ReadLog(dir.path() + "/wal-0");
  int upserts = 0;
  int drops = 0;
  uint64_t expected_version = 1;
  const WalRecord* last = nullptr;
  for (const WalRecord& record : log) {
    if (record.name != "shared") continue;
    if (record.op == 'D') {
      ++drops;
      expected_version = 1;
      last = nullptr;
      continue;
    }
    ++upserts;
    EXPECT_EQ(record.version, expected_version) << "upsert #" << upserts;
    ++expected_version;
    last = &record;
  }
  EXPECT_EQ(upserts + 1, acked_upserts.load());  // + "stable"
  EXPECT_EQ(drops, acked_drops.load());
  // The final version counts the acknowledged upserts since the last drop,
  // and the registry holds the last one's contents.
  ASSERT_NE(last, nullptr);
  auto stored = serving.GetDatabase("shared");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(PrintStructure(**stored), last->structure);
  const auto listed = serving.ListDatabases();
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].second, last->version);
  ExpectReopenMatches(serving, dir.path());
}

TEST(ServeStressTest, RefusedAppendAmidRacingWritersLeavesTheRegistryAlone) {
  ScratchDir dir("refused");
  auto vocab = MakeGraphVocabulary();
  FaultyFs faulty(RealFileSystem());
  serve::ServingEngine serving(OneLogOptions(dir.path(), &faulty));
  ASSERT_TRUE(serving.Open(nullptr).ok());
  Rng rng(0x4ef);
  const Structure stable =
      RandomGraphStructure(vocab, 12, 0.3, rng, /*symmetric=*/true);
  ASSERT_TRUE(serving.UpsertDatabase("stable", stable).ok());
  ASSERT_TRUE(serving
                  .UpsertDatabase("shared", RandomGraphStructure(
                                                vocab, 10, 0.3, rng,
                                                /*symmetric=*/true))
                  .ok());
  ReaderPool readers(&serving, "stable", "shared",
                     OracleCount("Q(X) :- E(X, Y), E(Y, Z).", stable));
  // Armed while the readers run: the 49th append from here on fails.
  constexpr int kGoodAppends = 48;
  FsFailpoints fail;
  fail.fail_write_n = faulty.writes() + kGoodAppends + 1;
  faulty.set_failpoints(fail);

  constexpr int kWriters = 3;
  std::atomic<int> acked{0};
  std::atomic<int> refused{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // Upsert until the engine refuses; the cap only bounds a broken run.
      for (int i = 0; i < 200; ++i) {
        Rng db_rng(w * 1000 + i);
        Status s = serving.UpsertDatabase(
            "shared",
            RandomGraphStructure(vocab, 10, 0.3, db_rng, /*symmetric=*/true));
        if (s.ok()) {
          ++acked;
          continue;
        }
        s.code() == StatusCode::kUnavailable ? ++refused : ++failures;
        return;
      }
      ++failures;
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(readers.Finish(), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(refused.load(), kWriters);
  EXPECT_EQ(acked.load(), kGoodAppends);
  EXPECT_TRUE(serving.degraded());
  const serve::ServeStats stats = serving.stats();
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.wal_append_failures, 1u);

  // The refused append changed nothing: "shared" is at the version of the
  // last acknowledged upsert, with its contents, in memory and on reopen.
  const std::vector<WalRecord> log = ReadLog(dir.path() + "/wal-0");
  ASSERT_FALSE(log.empty());
  const WalRecord& last = log.back();
  EXPECT_EQ(last.name, "shared");
  EXPECT_EQ(last.version, 1u + kGoodAppends);
  const auto listed = serving.ListDatabases();
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0], std::make_pair(std::string("shared"),
                                      uint64_t{1} + kGoodAppends));
  auto stored = serving.GetDatabase("shared");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(PrintStructure(**stored), last.structure);
  ExpectReopenMatches(serving, dir.path());
}

TEST(ServeStressTest, ResultOfADroppedIncarnationNeverAnswersTheNext) {
  // A request resolves "g", then "g" is dropped and registered again with
  // other content, and only then does the request put its result. The
  // re-registration's sweep ran before that put, so the entry survives;
  // its key must not be one the new incarnation's requests build.
  auto vocab = MakeGraphVocabulary();
  serve::ServeOptions options;
  options.engine.backend = Backend::kUniform;  // a slow count
  serve::ServingEngine serving(options);
  Rng rng(0xd20b);
  const Structure first =
      RandomGraphStructure(vocab, 72, 0.5, rng, /*symmetric=*/true);
  const Structure second =
      RandomGraphStructure(vocab, 12, 0.5, rng, /*symmetric=*/true);
  const std::string query =
      "Q() :- E(A, B), E(B, C), E(C, D), E(D, A), E(A, C), E(B, D), "
      "E(D, F), E(F, A).";
  const size_t first_count = OracleCount(query, first);
  const size_t second_count = OracleCount(query, second);
  ASSERT_NE(first_count, second_count);
  ASSERT_TRUE(serving.UpsertDatabase("g", first).ok());
  const serve::ServeRequest request{query, "g", HomTask::kCount};
  auto slow = std::async(std::launch::async,
                         [&] { return serving.Serve(request); });
  // A plan is counted after the request has resolved "g"; the count runs
  // after that.
  while (serving.stats().plan_misses == 0 &&
         slow.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(serving.DropDatabase("g").ok());
  ASSERT_TRUE(serving.UpsertDatabase("g", second).ok());
  auto old = slow.get();
  ASSERT_TRUE(old.ok()) << old.status().ToString();
  EXPECT_EQ(old->count, first_count);
  // The slow result is in the cache: the count outlasted the sweep.
  ASSERT_EQ(serving.stats().result_cache_entries, 1u)
      << "the count finished before the re-registration";
  EXPECT_EQ(serving.ListDatabases(),
            (std::vector<std::pair<std::string, uint64_t>>{{"g", 1}}));
  auto fresh = serving.Serve(request);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(fresh->stats.serve.result_cache_hit);
  EXPECT_EQ(fresh->count, second_count);
}

TEST(ServeStressTest, ColdQueriesOnAFreshDatabaseShareItsIndexesSafely) {
  auto vocab = MakeGraphVocabulary();
  // Cyclic queries, all distinct. kUniform builds a CSP network (the
  // position index); kAuto sends cycles to the treewidth DP (Contains on
  // the sorted index).
  std::vector<std::string> queries;
  for (size_t length = 3; length <= 6; ++length) {
    for (size_t chord = 0; chord < 2; ++chord) {
      std::string q = "Q() :- ";
      for (size_t v = 0; v < length; ++v) {
        if (v > 0) q += ", ";
        q += "E(X" + std::to_string(v) + ", X" +
             std::to_string((v + 1) % length) + ")";
      }
      if (chord == 1) q += ", E(X0, X2)";
      queries.push_back(q + ".");
    }
  }
  constexpr int kColdThreads = 4;
  for (Backend backend : {Backend::kUniform, Backend::kAuto}) {
    serve::ServeOptions options;
    options.engine.backend = backend;
    options.engine.count_limit = 1u << 20;
    Rng rng(0xc01d);
    const Structure db =
        RandomGraphStructure(vocab, 14, 0.3, rng, /*symmetric=*/true);
    // The oracle runs on its own copy: the served copy stays unindexed
    // until UpsertDatabase publishes it.
    std::vector<size_t> expected;
    {
      const Structure oracle_db = db;
      for (const std::string& text : queries) {
        auto q = ParseQuery(text, vocab);
        ASSERT_TRUE(q.ok()) << text;
        auto problem = HomProblem::FromQuery(*q, oracle_db);
        ASSERT_TRUE(problem.ok());
        auto r = HomEngine(options.engine).Run(*problem, HomTask::kCount);
        ASSERT_TRUE(r.ok());
        expected.push_back(r->count);
      }
    }
    serve::ServingEngine serving(options);
    // Warm the source plans on another database, so every request below
    // binds a cached plan onto the fresh structure.
    Rng warm_rng(0x3a7);
    ASSERT_TRUE(serving
                    .UpsertDatabase("warm", RandomGraphStructure(
                                                vocab, 8, 0.4, warm_rng,
                                                /*symmetric=*/true))
                    .ok());
    for (const std::string& text : queries) {
      serve::ServeRequest request;
      request.query = text;
      request.database = "warm";
      ASSERT_TRUE(serving.Serve(request).ok()) << text;
    }
    ASSERT_TRUE(serving.UpsertDatabase("fresh", db).ok());
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int worker = 0; worker < kColdThreads; ++worker) {
      threads.emplace_back([&, worker] {
        // Every thread walks the whole pool from a different offset, so
        // the first requests all start cold at the same moment.
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t q = (i + worker * 3) % queries.size();
          serve::ServeRequest request;
          request.query = queries[q];
          request.database = "fresh";
          request.task = HomTask::kCount;
          auto r = serving.Serve(request);
          if (!r.ok() || r->count != expected[q]) ++failures;
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(failures.load(), 0) << "backend " << BackendName(backend);
    const serve::ServeStats stats = serving.stats();
    EXPECT_EQ(stats.errors, 0u);
    // Every fresh-database request took a plan hit: the source plan warmed
    // on "warm", bound to "fresh" for that request alone.
    EXPECT_EQ(stats.plan_misses, queries.size());
  }
}

}  // namespace
}  // namespace cqcs
