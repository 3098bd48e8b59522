// Serving-layer net (`ctest -L serve`): the collision-safe LRU cache, the
// workload generator, and the ServingEngine's caches / invalidation /
// admission against a fresh-engine oracle.
//
// The two properties the acceptance bar names are pinned here:
//   - a digest collision between distinct keys can cost a miss, never a
//     cross-served value (LruCacheTest.ForcedDigestCollision*);
//   - an update-heavy mix serves zero stale answers — every read is
//     re-checked against an oracle computed from the database content
//     registered at that moment (ServingEngineTest.UpdateHeavyMixServes
//     ZeroStaleAnswers).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "cq/parser.h"
#include "cq/query.h"
#include "gen/generators.h"
#include "serve/cache.h"
#include "serve/serving.h"
#include "serve/workload.h"

namespace cqcs {
namespace {

using serve::CacheKey;
using serve::LruCache;

// ---- LruCache: bounds, ordering, collision safety. ------------------------

TEST(LruCacheTest, PutGetAndLruEviction) {
  LruCache<int> cache(2);
  cache.Put(CacheKey::FromCanonical("a"), std::make_shared<int>(1));
  cache.Put(CacheKey::FromCanonical("b"), std::make_shared<int>(2));
  // Touch "a" so "b" is the cold end, then insert "c" to evict "b".
  ASSERT_NE(cache.Get(CacheKey::FromCanonical("a")), nullptr);
  cache.Put(CacheKey::FromCanonical("c"), std::make_shared<int>(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Get(CacheKey::FromCanonical("a")), nullptr);
  EXPECT_EQ(cache.Get(CacheKey::FromCanonical("b")), nullptr);
  EXPECT_NE(cache.Get(CacheKey::FromCanonical("c")), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LruCacheTest, CapacityZeroDisables) {
  LruCache<int> cache(0);
  cache.Put(CacheKey::FromCanonical("a"), std::make_shared<int>(1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get(CacheKey::FromCanonical("a")), nullptr);
}

// A capacity small enough for one shard (exact LRU order) and one large
// enough to be split; the collision and replacement cases run at both.
constexpr size_t kSingleShardCapacity = 8;
constexpr size_t kShardedCapacity = LruCache<int>::kShardThreshold;

void ExpectPutReplacesExistingKey(size_t capacity) {
  LruCache<int> cache(capacity);
  cache.Put(CacheKey::FromCanonical("a"), std::make_shared<int>(1));
  cache.Put(CacheKey::FromCanonical("a"), std::make_shared<int>(2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.Get(CacheKey::FromCanonical("a")), 2);
}

void ExpectCollisionNeverCrossServes(size_t capacity) {
  // Two DISTINCT canonical keys forced into the same 64-bit bucket (and so
  // the same shard): the cache must keep both and serve each its own value
  // — full-key equality, never digest equality alone.
  LruCache<std::string> cache(capacity);
  const CacheKey k1 = CacheKey::WithDigest("Q1() :- E(X, Y).", 42);
  const CacheKey k2 = CacheKey::WithDigest("Q2() :- E(X, X).", 42);
  ASSERT_EQ(k1.digest, k2.digest);
  ASSERT_FALSE(k1 == k2);
  cache.Put(k1, std::make_shared<std::string>("answer-1"));
  cache.Put(k2, std::make_shared<std::string>("answer-2"));
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_NE(cache.Get(k1), nullptr);
  ASSERT_NE(cache.Get(k2), nullptr);
  EXPECT_EQ(*cache.Get(k1), "answer-1");
  EXPECT_EQ(*cache.Get(k2), "answer-2");
}

void ExpectCollisionEvictsAndErasesTheRightEntry(size_t capacity) {
  LruCache<int> cache(capacity);
  const CacheKey k1 = CacheKey::WithDigest("one", 7);
  const CacheKey k2 = CacheKey::WithDigest("two", 7);
  const CacheKey k3 = CacheKey::WithDigest("three", 7);
  cache.Put(k1, std::make_shared<int>(1));
  cache.Put(k2, std::make_shared<int>(2));
  cache.Put(k3, std::make_shared<int>(3));
  // EraseIf must drop exactly the matching canonical, not the bucket.
  EXPECT_EQ(cache.EraseIf([](const CacheKey& k) {
    return k.canonical == "two";
  }), 1u);
  EXPECT_EQ(cache.Get(k2), nullptr);
  ASSERT_NE(cache.Get(k1), nullptr);
  ASSERT_NE(cache.Get(k3), nullptr);
  EXPECT_EQ(*cache.Get(k1), 1);
  EXPECT_EQ(*cache.Get(k3), 3);
}

TEST(LruCacheTest, PutReplacesExistingKey) {
  ExpectPutReplacesExistingKey(kSingleShardCapacity);
}

TEST(LruCacheTest, PutReplacesExistingKeySharded) {
  ExpectPutReplacesExistingKey(kShardedCapacity);
}

TEST(LruCacheTest, ForcedDigestCollisionNeverCrossServes) {
  ExpectCollisionNeverCrossServes(kSingleShardCapacity);
}

TEST(LruCacheTest, ForcedDigestCollisionNeverCrossServesSharded) {
  ExpectCollisionNeverCrossServes(kShardedCapacity);
}

TEST(LruCacheTest, ForcedDigestCollisionEvictsAndErasesTheRightEntry) {
  ExpectCollisionEvictsAndErasesTheRightEntry(kSingleShardCapacity);
}

TEST(LruCacheTest, ForcedDigestCollisionEvictsAndErasesTheRightEntrySharded) {
  ExpectCollisionEvictsAndErasesTheRightEntry(kShardedCapacity);
}

TEST(LruCacheTest, ShardCountFollowsCapacityAlone) {
  EXPECT_EQ(LruCache<int>(0).shard_count(), 1u);
  EXPECT_EQ(LruCache<int>(kShardedCapacity - 1).shard_count(), 1u);
  EXPECT_EQ(LruCache<int>(kShardedCapacity).shard_count(),
            LruCache<int>::kShards);
  EXPECT_EQ(LruCache<int>(4096).shard_count(), LruCache<int>::kShards);
}

TEST(LruCacheTest, OverfilledShardedCacheStaysWithinCapacity) {
  // Capacity not a multiple of the shard count: the per-shard shares must
  // still sum to exactly the capacity.
  const size_t capacity = kShardedCapacity + 7;
  LruCache<int> cache(capacity);
  ASSERT_EQ(cache.shard_count(), LruCache<int>::kShards);
  const int kKeys = 5000;
  for (int i = 0; i < kKeys; ++i) {
    cache.Put(CacheKey::FromCanonical("key-" + std::to_string(i)),
              std::make_shared<int>(i));
    ASSERT_LE(cache.size(), capacity) << "after " << i + 1 << " puts";
  }
  const serve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, static_cast<uint64_t>(kKeys));
  EXPECT_EQ(stats.evictions + stats.entries, static_cast<uint64_t>(kKeys));
  // The most recent key is always resident: eviction is LRU per shard.
  EXPECT_NE(cache.Get(CacheKey::FromCanonical(
                "key-" + std::to_string(kKeys - 1))),
            nullptr);
}

TEST(LruCacheTest, ShardedCacheKeepsAnEntryHitOftenEnoughResident) {
  // A sharded cache skips promotion while an entry is provably in the
  // front quarter of its shard. An entry hit every few insertions must
  // therefore survive any amount of streaming traffic, and every hit must
  // still be served.
  LruCache<int> cache(kShardedCapacity);
  const CacheKey hot = CacheKey::FromCanonical("hot");
  cache.Put(hot, std::make_shared<int>(-1));
  const int kKeys = 20000;
  uint64_t gets = 0;
  for (int i = 0; i < kKeys; ++i) {
    cache.Put(CacheKey::FromCanonical("key-" + std::to_string(i)),
              std::make_shared<int>(i));
    if (i % 32 == 31) {
      ++gets;
      const std::shared_ptr<const int> value = cache.Get(hot);
      ASSERT_NE(value, nullptr) << "evicted after " << i + 1 << " puts";
      EXPECT_EQ(*value, -1);
    }
  }
  EXPECT_EQ(cache.stats().hits, gets);
  EXPECT_LE(cache.size(), kShardedCapacity);
}

TEST(LruCacheTest, EraseIfSweepsEveryShard) {
  // 1000 keys under a 4096-entry capacity (256 per shard): nothing is
  // evicted, so the sweep must find every key wherever its shard is.
  LruCache<int> cache(4096);
  const int kKeys = 1000;
  for (int i = 0; i < kKeys; ++i) {
    cache.Put(CacheKey::FromCanonical("key-" + std::to_string(i)),
              std::make_shared<int>(i));
  }
  ASSERT_EQ(cache.size(), static_cast<size_t>(kKeys));
  const size_t dropped = cache.EraseIf([](const CacheKey& k) {
    return std::stoi(k.canonical.substr(4)) % 2 == 0;
  });
  EXPECT_EQ(dropped, static_cast<size_t>(kKeys / 2));
  EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys / 2));
  for (int i = 0; i < kKeys; ++i) {
    const bool present =
        cache.Get(CacheKey::FromCanonical("key-" + std::to_string(i))) !=
        nullptr;
    EXPECT_EQ(present, i % 2 == 1) << i;
  }
  EXPECT_EQ(cache.stats().invalidations, static_cast<uint64_t>(kKeys / 2));
}

// ---- Workload generator. --------------------------------------------------

TEST(WorkloadTest, DeterministicFromSeed) {
  serve::WorkloadSpec spec;
  spec.update_fraction = 0.3;
  serve::Workload w1(spec);
  serve::Workload w2(spec);
  for (int i = 0; i < 200; ++i) {
    const serve::Op a = w1.Next();
    const serve::Op b = w2.Next();
    EXPECT_EQ(static_cast<int>(a.type), static_cast<int>(b.type));
    EXPECT_EQ(a.query, b.query);
    EXPECT_EQ(a.database, b.database);
  }
}

TEST(WorkloadTest, ZipfianConcentratesOnHotKeys) {
  // At theta=0.99 over 16 keys, the hottest key draws far more than the
  // uniform 1/16 share; uniform stays near it.
  auto frequency_of_top = [](serve::Distribution d, double param) {
    serve::WorkloadSpec spec;
    spec.query_dist = d;
    spec.query_skew = param;
    serve::Workload w(spec);
    std::vector<int> counts(spec.num_queries, 0);
    const int kOps = 4000;
    for (int i = 0; i < kOps; ++i) ++counts[w.Next().query];
    int top = 0;
    for (int c : counts) top = std::max(top, c);
    return static_cast<double>(top) / kOps;
  };
  const double zipf = frequency_of_top(serve::Distribution::kZipfian, 0.99);
  const double uni = frequency_of_top(serve::Distribution::kUniform, 0.0);
  const double self = frequency_of_top(serve::Distribution::kSelfSimilar, 0.2);
  // Theoretical top-key mass at theta=0.99 over 16 keys is ~0.296.
  EXPECT_GT(zipf, 0.25);
  EXPECT_LT(uni, 0.15);
  EXPECT_GT(self, 0.3);
}

TEST(WorkloadTest, UpdateFractionRoughlyHonored) {
  serve::WorkloadSpec spec;
  spec.update_fraction = 0.3;
  serve::Workload w(spec);
  int updates = 0;
  const int kOps = 4000;
  for (int i = 0; i < kOps; ++i) {
    if (w.Next().type == serve::OpType::kUpdate) ++updates;
  }
  EXPECT_GT(updates, kOps / 5);
  EXPECT_LT(updates, kOps / 2);
}

TEST(WorkloadTest, DistributionNamesRoundTrip) {
  for (serve::Distribution d :
       {serve::Distribution::kUniform, serve::Distribution::kZipfian,
        serve::Distribution::kSelfSimilar}) {
    auto parsed = serve::ParseDistributionName(serve::DistributionName(d));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(static_cast<int>(*parsed), static_cast<int>(d));
  }
  EXPECT_FALSE(serve::ParseDistributionName("gaussian").has_value());
}

// ---- ServingEngine vs a fresh-engine oracle. ------------------------------

struct OracleAnswer {
  bool decided = false;
  size_t count = 0;
  size_t rows = 0;
};

OracleAnswer Oracle(const std::string& query_text, const Structure& db,
                    HomTask task, const EngineOptions& options) {
  auto query = ParseQuery(query_text, db.vocabulary());
  CQCS_CHECK_MSG(query.ok(), query.status().ToString());
  auto problem = HomProblem::FromQuery(*query, db);
  CQCS_CHECK_MSG(problem.ok(), problem.status().ToString());
  HomEngine engine(options);
  auto r = engine.Run(*problem, task);
  CQCS_CHECK_MSG(r.ok(), r.status().ToString());
  return OracleAnswer{r->decided, r->count, r->rows.size()};
}

Structure MakeTestDb(const VocabularyPtr& vocab, uint32_t index,
                     uint64_t version) {
  Rng rng(0x5e12 + index * 977 + version * 7919);
  return RandomGraphStructure(vocab, 24, 0.2, rng, /*symmetric=*/true);
}

std::vector<std::string> MakeTestQueries(const VocabularyPtr& vocab) {
  std::vector<std::string> queries;
  for (size_t i = 2; i <= 5; ++i) {
    queries.push_back(ToString(ChainQuery(vocab, i)));
    queries.push_back(ToString(StarQuery(vocab, i)));
  }
  return queries;
}

TEST(ServingEngineTest, CachedAnswersMatchFreshEngineAcrossTasks) {
  auto vocab = MakeGraphVocabulary();
  serve::ServeOptions options;
  options.engine.count_limit = 10000;
  options.engine.max_results = 512;
  serve::ServingEngine serving(options);
  const auto queries = MakeTestQueries(vocab);
  std::vector<Structure> dbs;
  for (uint32_t d = 0; d < 3; ++d) {
    dbs.push_back(MakeTestDb(vocab, d, 0));
    ASSERT_TRUE(
        serving.UpsertDatabase("db" + std::to_string(d), dbs[d]).ok());
  }
  // Two passes: the second is all-hot (result-cache hits) and must agree
  // with the cold pass's oracle answers.
  for (int pass = 0; pass < 2; ++pass) {
    for (uint32_t d = 0; d < 3; ++d) {
      for (size_t q = 0; q < queries.size(); ++q) {
        for (HomTask task :
             {HomTask::kDecide, HomTask::kCount, HomTask::kEnumerate}) {
          serve::ServeRequest request;
          request.query = queries[q];
          request.database = "db" + std::to_string(d);
          request.task = task;
          auto served = serving.Serve(request);
          ASSERT_TRUE(served.ok()) << served.status().ToString();
          const OracleAnswer expected =
              Oracle(queries[q], dbs[d], task, options.engine);
          EXPECT_EQ(served->decided, expected.decided)
              << "pass " << pass << " q" << q << " db" << d;
          if (task == HomTask::kCount) {
            EXPECT_EQ(served->count, expected.count);
          }
          if (task == HomTask::kEnumerate) {
            EXPECT_EQ(served->rows.size(), expected.rows);
          }
          EXPECT_TRUE(served->stats.serve.enabled);
        }
      }
    }
  }
  const serve::ServeStats stats = serving.stats();
  EXPECT_GT(stats.result_hits, 0u);
  EXPECT_GT(stats.plan_hits, 0u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.served, stats.requests);
}

TEST(ServingEngineTest, RebindAfterUpdateSharesPlanAndAnswersFresh) {
  auto vocab = MakeGraphVocabulary();
  serve::ServingEngine serving;
  const std::string query = ToString(ChainQuery(vocab, 4));
  Structure v0 = MakeTestDb(vocab, 0, 0);
  ASSERT_TRUE(serving.UpsertDatabase("g", v0).ok());
  serve::ServeRequest request;
  request.query = query;
  request.database = "g";
  request.task = HomTask::kCount;
  auto cold = serving.Serve(request);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->stats.serve.plan_cache_hit);

  // Replace the database: the plan cache's SOURCE entry must be reused
  // (plan hit via WithTarget rebind) while the answer reflects v1.
  Structure v1 = MakeTestDb(vocab, 0, 1);
  ASSERT_TRUE(serving.UpsertDatabase("g", v1).ok());
  auto warm = serving.Serve(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->stats.serve.plan_cache_hit);
  EXPECT_FALSE(warm->stats.serve.result_cache_hit);
  const OracleAnswer expected =
      Oracle(query, v1, HomTask::kCount, EngineOptions{});
  EXPECT_EQ(warm->count, expected.count);
}

TEST(ServingEngineTest, ColdCompiledPlanSharesTheRegisteredStructure) {
  // A cold compile binds the registered structure zero-copy, as a plan
  // hit does, and for this request only: the plan cache keeps the source
  // plan alone, so once the request returns no plan holds the registration.
  auto vocab = MakeGraphVocabulary();
  serve::ServingEngine serving;
  const Structure db = MakeTestDb(vocab, 0, 0);
  ASSERT_TRUE(serving.UpsertDatabase("g", db).ok());
  auto registered = serving.GetDatabase("g");
  ASSERT_TRUE(registered.ok());
  const long before = registered->use_count();
  serve::ServeRequest request;
  request.query = ToString(ChainQuery(vocab, 3));
  request.database = "g";
  request.task = HomTask::kCount;
  auto cold = serving.Serve(request);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->stats.serve.plan_cache_hit);
  EXPECT_EQ(serving.stats().plan_misses, 1u);
  EXPECT_EQ(serving.stats().plan_cache_entries, 1u);
  EXPECT_EQ(registered->use_count(), before);
  EXPECT_EQ(cold->count,
            Oracle(request.query, db, HomTask::kCount, EngineOptions{}).count);
}

TEST(ServingEngineTest, VocabulariesThatPrintAlikeKeepTheirPlansApart) {
  // {E/2, "F/2, G"/2} and {E/2, F/2, G/2} print the same ToString() but
  // are different vocabularies. A query over E parses against both, and a
  // plan compiled against one cannot be bound to the other's database.
  auto odd = std::make_shared<Vocabulary>();
  odd->AddRelation("E", 2);
  odd->AddRelation("F/2, G", 2);
  auto plain = std::make_shared<Vocabulary>();
  for (const char* name : {"E", "F", "G"}) plain->AddRelation(name, 2);
  ASSERT_EQ(odd->ToString(), plain->ToString());
  ASSERT_FALSE(odd->Equals(*plain));
  Structure a(odd, 3);
  a.AddTuple(0, {0, 1});
  a.AddTuple(0, {1, 2});
  Structure b(plain, 2);
  b.AddTuple(0, {0, 1});
  serve::ServingEngine serving;
  ASSERT_TRUE(serving.UpsertDatabase("a", a).ok());
  ASSERT_TRUE(serving.UpsertDatabase("b", b).ok());
  const std::string query = "Q(X, Y) :- E(X, Y).";
  for (const auto& [name, db] :
       {std::pair<const char*, const Structure*>{"a", &a}, {"b", &b}}) {
    auto served = serving.Serve({query, name, HomTask::kCount});
    ASSERT_TRUE(served.ok()) << name << ": " << served.status().ToString();
    EXPECT_EQ(served->count,
              Oracle(query, *db, HomTask::kCount, EngineOptions{}).count)
        << name;
  }
}

TEST(ServingEngineTest, UpdateHeavyMixServesZeroStaleAnswers) {
  // The acceptance property: run an update-heavy skewed mix and oracle-
  // re-check EVERY read against the database content registered at that
  // moment. A stale cached answer (served after its database changed)
  // would diverge from the oracle.
  auto vocab = MakeGraphVocabulary();
  serve::ServeOptions options;
  options.engine.count_limit = 10000;
  serve::ServingEngine serving(options);
  const auto queries = MakeTestQueries(vocab);
  serve::WorkloadSpec spec;
  spec.num_queries = static_cast<uint32_t>(queries.size());
  spec.num_databases = 3;
  spec.query_dist = serve::Distribution::kZipfian;
  spec.query_skew = 0.99;
  spec.update_fraction = 0.3;
  serve::Workload workload(spec);

  std::vector<Structure> current;
  std::vector<uint64_t> versions(spec.num_databases, 0);
  for (uint32_t d = 0; d < spec.num_databases; ++d) {
    current.push_back(MakeTestDb(vocab, d, 0));
    ASSERT_TRUE(
        serving.UpsertDatabase("db" + std::to_string(d), current[d]).ok());
  }
  for (int op_index = 0; op_index < 300; ++op_index) {
    const serve::Op op = workload.Next();
    if (op.type == serve::OpType::kUpdate) {
      current[op.database] =
          MakeTestDb(vocab, op.database, ++versions[op.database]);
      ASSERT_TRUE(serving
                      .UpsertDatabase("db" + std::to_string(op.database),
                                      current[op.database])
                      .ok());
      continue;
    }
    serve::ServeRequest request;
    request.query = queries[op.query];
    request.database = "db" + std::to_string(op.database);
    request.task = HomTask::kCount;
    auto served = serving.Serve(request);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    const OracleAnswer expected = Oracle(queries[op.query],
                                         current[op.database],
                                         HomTask::kCount, options.engine);
    ASSERT_EQ(served->count, expected.count)
        << "stale answer at op " << op_index << " (db" << op.database
        << " v" << versions[op.database] << ")";
  }
  const serve::ServeStats stats = serving.stats();
  // The mix must have actually exercised both the cache and invalidation.
  EXPECT_GT(stats.result_hits, 0u);
  EXPECT_GT(stats.updates, spec.num_databases);
  EXPECT_GT(stats.invalidated_entries, 0u);
}

TEST(ServingEngineTest, DropDatabaseInvalidatesAndReturnsNotFound) {
  auto vocab = MakeGraphVocabulary();
  serve::ServingEngine serving;
  ASSERT_TRUE(serving.UpsertDatabase("g", MakeTestDb(vocab, 0, 0)).ok());
  serve::ServeRequest request;
  request.query = ToString(ChainQuery(vocab, 3));
  request.database = "g";
  ASSERT_TRUE(serving.Serve(request).ok());
  ASSERT_TRUE(serving.DropDatabase("g").ok());
  EXPECT_EQ(serving.DropDatabase("g").code(), StatusCode::kNotFound);
  EXPECT_EQ(serving.Serve(request).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(serving.stats().result_cache_entries, 0u);
}

TEST(ServingEngineTest, RejectsDelimiterBearingDatabaseNames) {
  auto vocab = MakeGraphVocabulary();
  serve::ServingEngine serving;
  Structure db = MakeTestDb(vocab, 0, 0);
  // Delimiters, whitespace, and every control byte the durable-name rule
  // (core/io IsCatalogName) rejects — the same set the WAL replay and the
  // snapshot parser refuse, so nothing acknowledgeable is unreplayable.
  for (const char* name : {"a|b", "a#b", "a b", "a\tb", "", "a\x01" "b",
                           "a\rb", "del\x7f", "\x1f"}) {
    EXPECT_EQ(serving.UpsertDatabase(name, db).code(),
              StatusCode::kInvalidArgument)
        << "name \"" << name << "\"";
  }
}

TEST(ServingEngineTest, ByteAdmissionShedsDeterministically) {
  // max_inflight_bytes=1: any request with a nonzero size-bound estimate
  // is shed with kResourceExhausted, before the engine runs.
  auto vocab = MakeGraphVocabulary();
  serve::ServeOptions options;
  options.max_inflight_bytes = 1;
  serve::ServingEngine serving(options);
  ASSERT_TRUE(serving.UpsertDatabase("g", MakeTestDb(vocab, 0, 0)).ok());
  serve::ServeRequest request;
  request.query = ToString(ChainQuery(vocab, 3));
  request.database = "g";
  auto served = serving.Serve(request);
  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), StatusCode::kResourceExhausted);
  const serve::ServeStats stats = serving.stats();
  EXPECT_EQ(stats.shed_bytes, 1u);
  EXPECT_EQ(stats.served, 0u);
  EXPECT_EQ(stats.inflight_bytes, 0u);  // the reservation was rolled back
}

TEST(ServingEngineTest, QueueDepthShedsConcurrentOverload) {
  // One deliberately slow request (a huge count under a deadline) occupies
  // the only admission slot; a second request arriving while it runs must
  // be shed immediately — the policy sheds, it never stalls.
  auto vocab = MakeGraphVocabulary();
  serve::ServeOptions options;
  options.max_queue_depth = 1;
  options.engine.deadline_ms = 2000;
  options.engine.count_limit = static_cast<size_t>(-1);
  // Pin the uniform backend: auto-routing would hand the (acyclic) chain
  // query to Yannakakis, which finishes before the second request arrives.
  options.engine.backend = Backend::kUniform;
  serve::ServingEngine serving(options);
  ASSERT_TRUE(serving.UpsertDatabase("big", CliqueStructure(vocab, 24)).ok());
  serve::ServeRequest heavy;
  heavy.query = ToString(ChainQuery(vocab, 6));  // ~24^7 paths: deadline-bound
  heavy.database = "big";
  heavy.task = HomTask::kCount;
  std::atomic<bool> done{false};
  std::thread slow([&] {
    auto r = serving.Serve(heavy);
    // Served (possibly as an un-cacheable "unknown"), never shed: it held
    // the slot first.
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    done.store(true);
  });
  // Wait until the heavy request is inside the engine. If it finishes
  // first, or never shows up within 30 s, the test fails instead of
  // spinning forever.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool in_flight = false;
  while (!done.load() && std::chrono::steady_clock::now() < give_up) {
    if (serving.stats().queue_depth != 0) {
      in_flight = true;
      break;
    }
    std::this_thread::yield();
  }
  if (!in_flight) {
    slow.join();
    FAIL() << (done.load() ? "the heavy request finished before it was "
                             "seen in flight: shedding was not exercised"
                           : "the heavy request was not seen in flight "
                             "within 30 s");
  }
  serve::ServeRequest cheap;
  cheap.query = ToString(ChainQuery(vocab, 2));
  cheap.database = "big";
  auto shed = serving.Serve(cheap);
  slow.join();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  const serve::ServeStats stats = serving.stats();
  EXPECT_EQ(stats.shed_queue, 1u);
  EXPECT_EQ(stats.queue_depth_peak, 2u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ServingEngineTest, UnknownResultsAreNotCached) {
  // A deadline-tripped ("unknown") answer reflects the request's budget,
  // not the instance: serving it from the result cache to a later request
  // would be wrong. The second serve must re-run, not hit.
  auto vocab = MakeGraphVocabulary();
  serve::ServeOptions options;
  options.engine.deadline_ms = 1;
  options.engine.count_limit = static_cast<size_t>(-1);
  options.engine.backend = Backend::kUniform;  // ~24^7 nodes: deadline-bound
  serve::ServingEngine serving(options);
  ASSERT_TRUE(serving.UpsertDatabase("big", CliqueStructure(vocab, 24)).ok());
  serve::ServeRequest request;
  request.query = ToString(ChainQuery(vocab, 6));
  request.database = "big";
  request.task = HomTask::kCount;
  auto first = serving.Serve(request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->stats.governor.tripped);
  auto second = serving.Serve(request);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->stats.serve.result_cache_hit);
  EXPECT_EQ(serving.stats().result_hits, 0u);
}

TEST(ServingEngineTest, StatsJsonAndEngineStatsCarryServeFields) {
  auto vocab = MakeGraphVocabulary();
  serve::ServingEngine serving;
  ASSERT_TRUE(serving.UpsertDatabase("g", MakeTestDb(vocab, 0, 0)).ok());
  serve::ServeRequest request;
  request.query = ToString(ChainQuery(vocab, 3));
  request.database = "g";
  auto served = serving.Serve(request);
  ASSERT_TRUE(served.ok());
  // The per-request EngineStats JSON must include the serve block...
  const std::string result_json = served->ToJson();
  EXPECT_NE(result_json.find("\"serve\":{"), std::string::npos);
  EXPECT_NE(result_json.find("\"plan_cache_hit\":"), std::string::npos);
  // ...and the aggregate snapshot its counters.
  const std::string agg = serving.stats().ToJson();
  for (const char* field :
       {"\"requests\":", "\"plan_hit_rate\":", "\"result_hit_rate\":",
        "\"shed_queue\":", "\"shed_bytes\":", "\"queue_depth\":",
        "\"invalidated_entries\":"}) {
    EXPECT_NE(agg.find(field), std::string::npos) << field;
  }
  // An engine run outside the serving layer reports serve: null.
  auto query = ParseQuery(request.query, vocab);
  ASSERT_TRUE(query.ok());
  auto problem = HomProblem::FromQuery(*query, MakeTestDb(vocab, 0, 0));
  ASSERT_TRUE(problem.ok());
  HomEngine engine;
  auto direct = engine.Run(*problem, HomTask::kDecide);
  ASSERT_TRUE(direct.ok());
  EXPECT_NE(direct->ToJson().find("\"serve\":null"), std::string::npos);
}

// ---- The hit path: memoized canonical text, shared entries, counters. -----

TEST(ServingEngineTest, WhitespaceVariantsShareOneResultEntry) {
  auto vocab = MakeGraphVocabulary();
  serve::ServingEngine serving;
  ASSERT_TRUE(serving.UpsertDatabase("g", MakeTestDb(vocab, 0, 0)).ok());
  const std::vector<std::string> variants = {
      "Q(X) :- E(X, Y), E(Y, Z).", "Q(X):-E(X,Y),E(Y,Z).",
      "Q( X )  :-  E( X , Y ) , E( Y , Z ) ."};
  serve::ServeRequest request;
  request.database = "g";
  request.task = HomTask::kCount;
  size_t expected_count = 0;
  for (size_t i = 0; i < variants.size(); ++i) {
    request.query = variants[i];
    auto served = serving.Serve(request);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    if (i == 0) {
      EXPECT_FALSE(served->stats.serve.result_cache_hit);
      expected_count = served->count;
    } else {
      EXPECT_TRUE(served->stats.serve.result_cache_hit) << variants[i];
      EXPECT_EQ(served->count, expected_count);
    }
    EXPECT_EQ(serving.stats().result_cache_entries, 1u);
  }
  // Repeats of a memoized variant hit the same entry too.
  request.query = variants[1];
  auto again = serving.Serve(request);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->stats.serve.result_cache_hit);
  const serve::ServeStats stats = serving.stats();
  EXPECT_EQ(stats.result_hits, variants.size());
  EXPECT_EQ(stats.result_misses, 1u);
  EXPECT_EQ(stats.result_cache_entries, 1u);
}

TEST(ServingEngineTest, SameTextOverTwoVocabulariesNeverCrossServes) {
  // Two schemas: the graph vocabulary {E/2} and {E/2, F/2}. The same raw
  // text must be canonicalized per schema: a text parsed (and memoized)
  // over one must not skip the parse over the other.
  auto graph = MakeGraphVocabulary();
  auto wide = std::make_shared<Vocabulary>();
  wide->AddRelation("E", 2);
  wide->AddRelation("F", 2);
  serve::ServingEngine serving;
  ASSERT_TRUE(serving.UpsertDatabase("g", CliqueStructure(graph, 3)).ok());
  Structure w(wide, 3);
  w.AddTuple(1, {0, 1});  // F only: E is empty
  ASSERT_TRUE(serving.UpsertDatabase("w", std::move(w)).ok());

  serve::ServeRequest request;
  request.task = HomTask::kDecide;
  request.query = "Q() :- F(X, Y).";
  request.database = "w";
  auto over_wide = serving.Serve(request);
  ASSERT_TRUE(over_wide.ok()) << over_wide.status().ToString();
  EXPECT_TRUE(over_wide->decided);
  // F does not exist in the graph schema: a memo shared across schemas
  // would have answered from the wide schema's canonical text.
  request.database = "g";
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(serving.Serve(request).status().code(), StatusCode::kNotFound);
  }

  request.query = "Q() :- E(X, Y).";
  for (int pass = 0; pass < 2; ++pass) {
    request.database = "g";
    auto over_graph = serving.Serve(request);
    ASSERT_TRUE(over_graph.ok());
    EXPECT_TRUE(over_graph->decided) << "pass " << pass;
    request.database = "w";
    auto over_w = serving.Serve(request);
    ASSERT_TRUE(over_w.ok());
    EXPECT_FALSE(over_w->decided) << "pass " << pass;
    EXPECT_EQ(over_w->stats.serve.result_cache_hit, pass == 1);
  }
}

TEST(ServingEngineTest, UnparsableTextErrorsOnEveryCall) {
  // Parse errors are never memoized: every call re-parses and fails.
  auto vocab = MakeGraphVocabulary();
  serve::ServingEngine serving;
  ASSERT_TRUE(serving.UpsertDatabase("g", MakeTestDb(vocab, 0, 0)).ok());
  serve::ServeRequest request;
  request.query = "Q(X :- E(X, Y";
  request.database = "g";
  const int kCalls = 4;
  for (int i = 0; i < kCalls; ++i) {
    auto served = serving.Serve(request);
    ASSERT_FALSE(served.ok());
    EXPECT_EQ(served.status().code(), StatusCode::kParseError) << i;
    EXPECT_EQ(serving.stats().errors, static_cast<uint64_t>(i + 1));
  }
  const serve::ServeStats stats = serving.stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kCalls));
  EXPECT_EQ(stats.served, 0u);
  EXPECT_EQ(stats.result_cache_entries, 0u);
}

TEST(ServingEngineTest, QuarantineRefusesByRawTextWhenMemoHits) {
  // A deadline-bound query (the UnknownResultsAreNotCached shape) strikes
  // out; its text is memoized from the first call on, yet the quarantine
  // still refuses it by raw text. A whitespace variant is a different
  // text and still runs.
  auto vocab = MakeGraphVocabulary();
  serve::ServeOptions options;
  options.engine.deadline_ms = 1;
  options.engine.count_limit = static_cast<size_t>(-1);
  options.engine.backend = Backend::kUniform;
  options.poison_strikes = 2;
  serve::ServingEngine serving(options);
  ASSERT_TRUE(serving.UpsertDatabase("big", CliqueStructure(vocab, 24)).ok());
  serve::ServeRequest request;
  request.query = ToString(ChainQuery(vocab, 6));
  request.database = "big";
  request.task = HomTask::kCount;
  for (uint32_t strike = 0; strike < options.poison_strikes; ++strike) {
    auto served = serving.Serve(request);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_TRUE(served->stats.governor.tripped);
  }
  for (int i = 0; i < 2; ++i) {
    auto refused = serving.Serve(request);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(serving.stats().quarantined, 2u);
  EXPECT_EQ(serving.stats().poisoned_queries, 1u);

  serve::ServeRequest variant = request;
  variant.query = " " + request.query;
  auto other = serving.Serve(variant);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_EQ(serving.stats().quarantined, 2u);

  // An update clears the quarantine; the memoized text runs again.
  ASSERT_TRUE(serving.UpsertDatabase("big", CliqueStructure(vocab, 24)).ok());
  EXPECT_TRUE(serving.Serve(request).ok());
}

TEST(ServingEngineTest, MidFlightStatsNeverShowMoreOutcomesThanRequests) {
  // Clients mix hits, misses, parse errors, unknown databases, and (with a
  // queue bound below the client count) sheds, while a poller takes
  // snapshots. A snapshot need not be one instant, but it must never count
  // a request's outcome without the request.
  auto vocab = MakeGraphVocabulary();
  serve::ServeOptions options;
  options.max_queue_depth = 2;
  serve::ServingEngine serving(options);
  ASSERT_TRUE(serving.UpsertDatabase("g", MakeTestDb(vocab, 0, 0)).ok());
  const auto queries = MakeTestQueries(vocab);
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::thread poller([&] {
    while (!done.load()) {
      const serve::ServeStats s = serving.stats();
      if (s.served + s.errors + s.shed_queue + s.shed_bytes + s.quarantined >
          s.requests) {
        ++violations;
      }
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 400; ++i) {
        serve::ServeRequest request;
        request.database = i % 13 == 0 ? "missing" : "g";
        request.query =
            i % 7 == 0 ? "Q( :- E(" : queries[(c + i) % queries.size()];
        CQCS_IGNORE_RESULT(serving.Serve(request));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  done.store(true);
  poller.join();
  EXPECT_EQ(violations.load(), 0);
  const serve::ServeStats s = serving.stats();
  EXPECT_EQ(s.requests, 4u * 400u);
  EXPECT_EQ(s.served + s.errors + s.shed_queue + s.shed_bytes + s.quarantined,
            s.requests);
  EXPECT_GT(s.errors, 0u);
  EXPECT_GT(s.result_hits, 0u);
}

}  // namespace
}  // namespace cqcs
