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
//   - Cold queries from several threads against a freshly registered
//     database that was never indexed: every request rebinds a cached
//     source plan onto the same shared structure (WithTarget shares it,
//     no copy) and builds its target side (CSP network or treewidth
//     tables) over it, so the relations' lazily built indexes must
//     already exist when the structure is published.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
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
  // Every few updates crosses the threshold: rotations (under the registry
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
    // Warm the source plans on another database: a cold compile copies its
    // target, while the rebind below shares the registered structure.
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
    // Every fresh-database request took a plan hit: a rebind or, for a
    // query another thread rebound first, the shared pair plan.
    EXPECT_EQ(stats.plan_misses, queries.size());
  }
}

}  // namespace
}  // namespace cqcs
