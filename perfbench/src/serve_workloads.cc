// serve_hot and serve_churn: closed-loop clients calling ServingEngine.
//
// serve_hot   the result-cache hit path: 8 graph databases, 64 queries in
//             whitespace variants, zipfian 0.99, every (query, db, task)
//             answered once during set-up so the timed run only hits.
// serve_churn the miss path with writes: 16 databases, 8192 queries at
//             zipfian 0.5 (the working set exceeds both caches), 5% updates
//             that replace a database with a pre-generated version through
//             the write-ahead log (fsync=never, a snapshot every 64 records).
//
// Both use min(4, nproc) client threads. Answers are checked after the run
// against a fresh HomEngine on the uniform backend.

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unistd.h>

#include "common/rng.h"
#include "cq/parser.h"
#include "cq/query.h"
#include "gen/generators.h"
#include "serve/serving.h"
#include "serve/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cqcs::HomTask;
using cqcs::Rng;
using cqcs::Structure;
using cqcs::serve::ServeOptions;
using cqcs::serve::ServeRequest;
using cqcs::serve::ServeStats;
using cqcs::serve::ServingEngine;

constexpr HomTask kTasks[] = {HomTask::kDecide, HomTask::kCount,
                              HomTask::kProject};
constexpr uint32_t kTaskCount = 3;
/// Counts saturate here on the served path and in the oracle alike, so the
/// uniform-search oracle stays cheap on queries with astronomically many
/// homomorphisms.
constexpr size_t kCountLimit = 10000;
/// Spans kept per client in a traced run.
constexpr size_t kSpansPerClient = 25000;

unsigned ClientCount(unsigned nproc) { return std::min(4u, nproc); }

ServeOptions MakeServeOptions() {
  ServeOptions options;
  options.engine.count_limit = kCountLimit;
  return options;
}

// ---- Query generation --------------------------------------------------------

using Atoms = std::vector<std::pair<uint32_t, uint32_t>>;

std::pair<uint32_t, uint32_t> Oriented(uint32_t a, uint32_t b, Rng& rng) {
  return rng.Chance(0.5) ? std::pair{a, b} : std::pair{b, a};
}

/// A tree query's E-atoms over variables 0..atoms. Shape 0 is a chain, 1 a
/// star, 2 a random attachment tree; every atom is randomly oriented.
Atoms TreeAtoms(uint32_t atoms, int shape, Rng& rng) {
  Atoms out;
  for (uint32_t v = 1; v <= atoms; ++v) {
    const uint32_t parent = shape == 0   ? v - 1
                            : shape == 1 ? 0
                                         : static_cast<uint32_t>(rng.Below(v));
    out.push_back(Oriented(parent, v, rng));
  }
  return out;
}

/// A cycle of `length` atoms with `tail` more atoms hanging off it.
Atoms CyclicAtoms(uint32_t length, uint32_t tail, Rng& rng) {
  Atoms out;
  for (uint32_t v = 0; v < length; ++v) {
    out.push_back(Oriented(v, (v + 1) % length, rng));
  }
  for (uint32_t v = length; v < length + tail; ++v) {
    out.push_back(Oriented(static_cast<uint32_t>(rng.Below(v)), v, rng));
  }
  return out;
}

/// Query text with head X0. The variants differ only in whitespace, so they
/// share one canonical form and one cache entry.
std::string RenderQuery(const Atoms& atoms, int variant) {
  static constexpr const char* kOpen[] = {"(", "(", "( "};
  static constexpr const char* kSep[] = {", ", ",", " , "};
  static constexpr const char* kClose[] = {")", ")", " )"};
  static constexpr const char* kRule[] = {" :- ", ":-", "  :-  "};
  static constexpr const char* kEnd[] = {".", ".", " ."};
  std::string s = "Q";
  s += kOpen[variant];
  s += "X0";
  s += kClose[variant];
  s += kRule[variant];
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) s += kSep[variant];
    s += "E";
    s += kOpen[variant];
    s += 'X';
    s += std::to_string(atoms[i].first);
    s += kSep[variant];
    s += 'X';
    s += std::to_string(atoms[i].second);
    s += kClose[variant];
  }
  s += kEnd[variant];
  return s;
}

std::string DbName(uint32_t d) {
  std::string name = "db";  // appended, not concatenated: GCC 12 -Wrestrict
  name += std::to_string(d);
  return name;
}

// ---- Shared serve measurement pieces -----------------------------------------

/// A client's traced-phase records.
struct TraceSink {
  std::unique_ptr<Tracer> tracer;
  LayerCounters counters;
  LatencyRecorder serve;   ///< every traced Serve call
  LatencyRecorder hit;     ///< result-cache hits
  LatencyRecorder miss;    ///< result-cache misses
  LatencyRecorder update;  ///< UpsertDatabase calls
  std::vector<double> self_us;
  std::vector<double> wal_bytes;
};

/// The replay half of a traced read: parse and print always (a hit
/// re-parses too), and on a miss the engine pipeline on a fresh problem.
void ReplayRead(const ServeRequest& req, const cqcs::VocabularyPtr& vocab,
                const std::shared_ptr<const Structure>& db,
                const cqcs::EngineResult& r, int64_t serve_ns,
                const cqcs::EngineOptions& options, TraceSink* sink) {
  Tracer* tracer = sink->tracer.get();
  ScopedSpan replay(tracer, SpanName::kReplay);
  std::optional<cqcs::ConjunctiveQuery> q;
  const int64_t parse_ns = Timed(tracer, SpanName::kParse, [&] {
    auto parsed = cqcs::ParseQuery(req.query, vocab);
    if (parsed.ok()) q.emplace(*std::move(parsed));
  });
  if (!q.has_value()) {
    ++sink->counters.replay_errors;
    return;
  }
  std::string printed;
  const int64_t print_ns =
      Timed(tracer, SpanName::kPrint, [&] { printed = cqcs::ToString(*q); });
  if (r.stats.serve.result_cache_hit) {
    sink->hit.Add(serve_ns);
    return;
  }
  sink->miss.Add(serve_ns);
  const ReplayTimes t = ReplayProblem(
      [&] { return cqcs::HomProblem::FromQuery(*q, *db); }, db, req.task,
      options, tracer, &sink->counters);
  // A plan hit rebinds (or reuses) the cached problem; a miss compiles and
  // routes it inside Run.
  const int64_t plan_ns = r.stats.serve.plan_cache_hit
                              ? t.rebind_ns
                              : t.compile_ns + t.route_ns;
  sink->self_us.push_back(
      static_cast<double>(serve_ns - parse_ns - print_ns - plan_ns - t.run_ns) /
      1e3);
}

/// Runs body(c, &measurement) on `clients` threads, each client recording
/// into its own Measurement, and merges them.
Measurement RunClients(unsigned clients,
                       const std::function<void(unsigned, Measurement*)>& body) {
  std::vector<Measurement> per_client(clients);
  Measurement total;
  total.Open();
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    per_client[c].before = total.before;
    threads.emplace_back(body, c, &per_client[c]);
  }
  for (std::thread& t : threads) t.join();
  total.Close();
  for (const Measurement& m : per_client) total.Merge(m);
  return total;
}

void AddServeStatsMetrics(const ServeStats& a, const ServeStats& b,
                          MetricTable* out) {
  auto rate = [](uint64_t hits, uint64_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) / (hits + misses);
  };
  out->Set("serve.result_hit_rate",
           rate(b.result_hits - a.result_hits, b.result_misses - a.result_misses),
           "ratio");
  out->Set("serve.plan_hit_rate",
           rate(b.plan_hits - a.plan_hits, b.plan_misses - a.plan_misses),
           "ratio");
  const uint64_t requests = b.requests - a.requests;
  const uint64_t shed =
      b.shed_queue + b.shed_bytes - a.shed_queue - a.shed_bytes;
  out->Set("serve.shed_frac",
           requests == 0 ? 0.0 : static_cast<double>(shed) / requests, "ratio");
  const uint64_t updates = b.updates - a.updates;
  out->Set("serve.invalidated_per_update",
           updates == 0 ? 0.0
                        : static_cast<double>(b.invalidated_entries -
                                              a.invalidated_entries) /
                              updates,
           "count");
  out->Set("durability.wal_appends",
           static_cast<double>(b.wal_appends - a.wal_appends), "count");
  out->Set("durability.snapshots",
           static_cast<double>(b.snapshots - a.snapshots), "count");
}

/// The serve-layer latency metrics of the traced phase, plus the span
/// summary's layer metrics, the trace files, and the tracing overhead.
void FinishTraced(const RunConfig& config, const Measurement& untraced,
                  std::vector<TraceSink>& sinks, RunResult* result) {
  TraceSink all;
  std::vector<const Tracer*> tracers;
  for (TraceSink& s : sinks) {
    all.counters.Merge(s.counters);
    all.serve.Merge(s.serve);
    all.hit.Merge(s.hit);
    all.miss.Merge(s.miss);
    all.update.Merge(s.update);
    all.self_us.insert(all.self_us.end(), s.self_us.begin(), s.self_us.end());
    all.wal_bytes.insert(all.wal_bytes.end(), s.wal_bytes.begin(),
                         s.wal_bytes.end());
    tracers.push_back(s.tracer.get());
  }
  MetricTable& out = result->metrics;
  out.Set("serve.hit_us_p50", all.hit.QuantileNs(0.5) / 1e3, "us");
  out.Set("serve.hit_us_p99", all.hit.QuantileNs(0.99) / 1e3, "us");
  out.Set("serve.miss_us_p50", all.miss.QuantileNs(0.5) / 1e3, "us");
  out.Set("serve.self_us_p50", Quantile(all.self_us, 0.5), "us");
  out.Set("serve.update_us_p50", all.update.QuantileNs(0.5) / 1e3, "us");
  out.Set("serve.update_us_p99", all.update.QuantileNs(0.99) / 1e3, "us");
  out.Set("durability.wal_bytes_per_update", Quantile(all.wal_bytes, 0.5), "B");
  AddTraceOverhead(all.serve.QuantileNs(0.5), untraced.reads.QuantileNs(0.5),
                   &out);
  AddLayerMetrics(Summarize(tracers), all.counters, &out);
  result->failed += all.counters.replay_errors;
  result->log.push_back("traced: " + std::to_string(all.serve.count()) +
                        " reads (" + std::to_string(all.hit.count()) +
                        " hits), " + std::to_string(all.update.count()) +
                        " updates, " + std::to_string(all.counters.replays) +
                        " engine replays");
  WriteTraceFiles(config, tracers, out, result);
}

/// Drives `clients` client threads for `seconds`; `sinks` is null when
/// untraced. `phase_id` keeps the traced half's request streams apart from
/// the untraced half's.
using ServePhase = std::function<Measurement(
    double seconds, uint64_t phase_id, std::vector<TraceSink>* sinks)>;

/// Runs the untraced window (the whole run, or the first half of a traced
/// run) and the traced half, then `oracle()` (which returns the number of
/// wrong answers), and fills the result's counts and metrics.
void RunServeWorkload(const RunConfig& config, unsigned clients,
                      const ServingEngine& engine,
                      const std::vector<double>& setup_s,
                      const ServePhase& phase,
                      const std::function<uint64_t()>& oracle,
                      RunResult* result) {
  const ServeStats before = engine.stats();
  const Measurement untraced =
      phase(config.trace ? config.seconds / 2 : config.seconds, 1, nullptr);
  Measurement traced;
  std::vector<TraceSink> sinks(config.trace ? clients : 0);
  for (TraceSink& s : sinks) s.tracer = std::make_unique<Tracer>(kSpansPerClient);
  if (config.trace) traced = phase(config.seconds / 2, 2, &sinks);
  const ServeStats after = engine.stats();

  result->mismatches = oracle();
  result->attempted = untraced.attempted + traced.attempted;
  result->failed = untraced.failed + traced.failed + result->mismatches;
  result->log.push_back("clients: " + std::to_string(clients) + ", reads: " +
                        std::to_string(untraced.reads.count()) +
                        ", updates: " + std::to_string(untraced.updates.count()));
  if (!config.trace) {
    AddEndToEndSliced(untraced, setup_s, &result->metrics);
    return;
  }
  AddUntracedDetail(untraced, result->mismatches, config.nproc, setup_s,
                    &result->metrics);
  AddServeStatsMetrics(before, after, &result->metrics);
  FinishTraced(config, untraced, sinks, result);
}

// ---- serve_hot ---------------------------------------------------------------

constexpr uint32_t kHotQueries = 64;
constexpr uint32_t kHotVariants = 3;
constexpr uint32_t kHotDbs = 8;
constexpr size_t kHotUniverse = 256;
constexpr double kHotEdgeProb = 0.05;
constexpr double kHotSkew = 0.99;

struct HotState {
  cqcs::VocabularyPtr vocab;
  std::vector<std::shared_ptr<const Structure>> dbs;
  std::vector<std::string> texts;  ///< per query, variant 0
  std::vector<ServeRequest> requests;  ///< [query][variant][db][task]
  std::unique_ptr<ServingEngine> engine;

  static size_t Index(uint32_t q, uint32_t v, uint32_t d, uint32_t t) {
    return ((static_cast<size_t>(q) * kHotVariants + v) * kHotDbs + d) *
               kTaskCount + t;
  }
  static size_t Slot(uint32_t q, uint32_t d, uint32_t t) {
    return (static_cast<size_t>(q) * kHotDbs + d) * kTaskCount + t;
  }
};

/// Query i's shape is fixed by its index (so the hottest queries have the
/// same shape under every seed); the seed picks the atoms' orientation and
/// the tree attachments. Every eighth query is cyclic.
Atoms HotQueryAtoms(uint32_t i, Rng& rng) {
  const uint32_t round = i / 8;
  if (i % 8 == 7) return CyclicAtoms(3 + round % 3, round % 2, rng);
  return TreeAtoms(2 + round % 5, static_cast<int>(i % 8 % 3), rng);
}

std::unique_ptr<HotState> SetupHot(uint64_t seed, unsigned nproc) {
  auto s = std::make_unique<HotState>();
  Rng rng(DeriveSeed(seed, 1));
  s->vocab = cqcs::MakeGraphVocabulary();
  for (uint32_t d = 0; d < kHotDbs; ++d) {
    s->dbs.push_back(std::make_shared<const Structure>(cqcs::RandomGraphStructure(
        s->vocab, kHotUniverse, kHotEdgeProb, rng, /*symmetric=*/true)));
    WarmIndexes(*s->dbs.back());
  }
  std::vector<std::array<std::string, kHotVariants>> variants(kHotQueries);
  for (uint32_t q = 0; q < kHotQueries; ++q) {
    const Atoms atoms = HotQueryAtoms(q, rng);
    for (uint32_t v = 0; v < kHotVariants; ++v) {
      variants[q][v] = RenderQuery(atoms, static_cast<int>(v));
    }
    s->texts.push_back(variants[q][0]);
  }
  s->requests.resize(kHotQueries * kHotVariants * kHotDbs * kTaskCount);
  for (uint32_t q = 0; q < kHotQueries; ++q) {
    for (uint32_t v = 0; v < kHotVariants; ++v) {
      for (uint32_t d = 0; d < kHotDbs; ++d) {
        for (uint32_t t = 0; t < kTaskCount; ++t) {
          s->requests[HotState::Index(q, v, d, t)] =
              ServeRequest{variants[q][v], DbName(d), kTasks[t]};
        }
      }
    }
  }
  s->engine = std::make_unique<ServingEngine>(MakeServeOptions());
  for (uint32_t d = 0; d < kHotDbs; ++d) {
    if (!s->engine->UpsertDatabase(DbName(d), *s->dbs[d]).ok()) {
      throw std::runtime_error("serve_hot: database registration failed");
    }
  }
  // Warm-up: every (query, db, task) once, so the timed run only hits.
  std::atomic<bool> failed{false};
  ParallelFor(kHotQueries * kHotDbs * kTaskCount, ClientCount(nproc),
              [&](size_t slot) {
                const uint32_t t = slot % kTaskCount;
                const uint32_t d = (slot / kTaskCount) % kHotDbs;
                const auto q = static_cast<uint32_t>(slot / kTaskCount / kHotDbs);
                if (!s->engine->Serve(s->requests[HotState::Index(q, 0, d, t)])
                         .ok()) {
                  failed = true;
                }
              });
  if (failed) throw std::runtime_error("serve_hot: warm-up request failed");
  return s;
}

/// A client's answers: a cheap signature per (query, db, task) slot checked
/// on every response, and the full digest on every 64th.
struct HotAnswers {
  std::vector<uint8_t> seen = std::vector<uint8_t>(kHotQueries * kHotDbs * kTaskCount, 0);
  std::vector<uint64_t> sig = std::vector<uint64_t>(seen.size(), 0);
  std::vector<uint64_t> digest = std::vector<uint64_t>(seen.size(), 0);
  uint64_t responses = 0;
  uint64_t mismatches = 0;

  void Check(size_t slot, const cqcs::EngineResult& r) {
    const uint64_t cheap = (r.count << 20) ^ (r.rows.size() << 1) ^ r.decided;
    if (!seen[slot]) {
      seen[slot] = 1;
      sig[slot] = cheap;
      digest[slot] = AnswerDigest(r);
    } else if (sig[slot] != cheap) {
      ++mismatches;
    } else if ((++responses & 63) == 0 && AnswerDigest(r) != digest[slot]) {
      ++mismatches;
    }
  }
};

void HotClientLoop(const HotState& s, uint64_t stream, int64_t deadline,
                   HotAnswers* answers, Measurement* m, TraceSink* sink) {
  Rng rng(stream);
  auto zipf = cqcs::serve::MakeKeyChooser(cqcs::serve::Distribution::kZipfian,
                                          kHotQueries, kHotSkew);
  const cqcs::EngineOptions& options = s.engine->options().engine;
  uint64_t request_id = stream << 24;
  while (NowNs() < deadline) {
    if (sink != nullptr && sink->tracer->full()) break;
    const uint32_t q = zipf->Next(rng);
    const auto v = static_cast<uint32_t>(rng.Below(kHotVariants));
    const auto d = static_cast<uint32_t>(rng.Below(kHotDbs));
    const auto t = static_cast<uint32_t>(rng.Below(kTaskCount));
    const ServeRequest& req = s.requests[HotState::Index(q, v, d, t)];
    ++m->attempted;
    int32_t span = -1;
    if (sink != nullptr) {
      sink->tracer->BeginRequest(++request_id);
      span = sink->tracer->Open(SpanName::kServe);
    }
    const int64_t t0 = NowNs();
    auto r = s.engine->Serve(req);
    const int64_t t1 = NowNs();
    if (sink != nullptr) sink->tracer->Close(span);
    if (!r.ok()) {
      ++m->failed;
      continue;
    }
    m->AddRead(t1, t1 - t0);
    answers->Check(HotState::Slot(q, d, t), *r);
    if (sink != nullptr) {
      sink->serve.Add(t1 - t0);
      ReplayRead(req, s.vocab, s.dbs[d], *r, t1 - t0, options, sink);
    }
  }
}

/// Every answered slot: all clients agree, and the digest matches a fresh
/// uniform-backend run.
uint64_t CheckHotAnswers(const HotState& s,
                         const std::vector<HotAnswers>& answers,
                         unsigned threads, RunResult* result) {
  std::vector<size_t> slots;
  std::vector<uint64_t> expected(kHotQueries * kHotDbs * kTaskCount, 0);
  uint64_t mismatches = 0;
  for (size_t slot = 0; slot < expected.size(); ++slot) {
    bool any = false;
    for (const HotAnswers& a : answers) {
      if (!a.seen[slot]) continue;
      if (any && a.digest[slot] != expected[slot]) ++mismatches;
      expected[slot] = a.digest[slot];
      any = true;
    }
    if (any) slots.push_back(slot);
  }
  cqcs::EngineOptions reference = s.engine->options().engine;
  reference.backend = cqcs::Backend::kUniform;
  reference.solve.num_threads = 1;
  std::atomic<uint64_t> wrong{0};
  ParallelFor(slots.size(), threads, [&](size_t i) {
    const size_t slot = slots[i];
    const uint32_t t = slot % kTaskCount;
    const uint32_t d = (slot / kTaskCount) % kHotDbs;
    const uint32_t q = static_cast<uint32_t>(slot / kTaskCount / kHotDbs);
    auto parsed = cqcs::ParseQuery(s.texts[q], s.vocab);
    if (!parsed.ok()) {
      wrong.fetch_add(1);
      return;
    }
    auto problem = cqcs::HomProblem::FromQuery(*parsed, *s.dbs[d]);
    if (!problem.ok()) {
      wrong.fetch_add(1);
      return;
    }
    auto r = cqcs::HomEngine(reference).Run(*problem, kTasks[t]);
    if (!r.ok() || AnswerDigest(*r) != expected[slot]) wrong.fetch_add(1);
  });
  result->log.push_back("oracle: " + std::to_string(slots.size()) +
                        " distinct (query, db, task) answers vs uniform");
  return mismatches + wrong.load();
}

}  // namespace

RunResult RunServeHot(const RunConfig& config) {
  RunResult result;
  std::vector<double> setup_s;
  auto state = RepeatSetup<HotState>(
      [&] { return SetupHot(config.seed, config.nproc); }, &setup_s);
  const unsigned clients = ClientCount(config.nproc);
  std::vector<HotAnswers> answers(clients);
  auto phase = [&](double seconds, uint64_t phase_id,
                   std::vector<TraceSink>* sinks) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    return RunClients(clients, [&](unsigned c, Measurement* m) {
      HotClientLoop(*state, DeriveSeed(config.seed, phase_id * 64 + c),
                    deadline, &answers[c], m,
                    sinks != nullptr ? &(*sinks)[c] : nullptr);
    });
  };
  auto oracle = [&] {
    uint64_t mismatches = CheckHotAnswers(*state, answers, config.nproc, &result);
    for (const HotAnswers& a : answers) mismatches += a.mismatches;
    return mismatches;
  };
  RunServeWorkload(config, clients, *state->engine, setup_s, phase, oracle,
                   &result);
  return result;
}

// ---- serve_churn ---------------------------------------------------------------

namespace {

constexpr uint32_t kChurnQueries = 8192;
constexpr uint32_t kChurnDbs = 16;
constexpr uint32_t kChurnPayloads = 4;  ///< pre-generated versions per db
constexpr size_t kChurnUniverse = 512;
constexpr double kChurnDegree = 6.0;
constexpr double kChurnSkew = 0.5;
constexpr double kUpdateFraction = 0.05;
constexpr uint64_t kSnapshotEvery = 64;
constexpr uint32_t kChurnWarmup = 1024;
/// Distinct answers re-checked by the uniform oracle per run (a seeded
/// sample when more were served).
constexpr size_t kChurnOracleCap = 512;

struct ChurnState {
  cqcs::VocabularyPtr vocab;
  /// [db][payload]: version v of db d holds payload (v - 1) % kChurnPayloads.
  std::vector<std::vector<std::shared_ptr<const Structure>>> payloads;
  std::vector<std::string> texts;
  std::string data_dir;
  std::unique_ptr<ServingEngine> engine;
  /// Updates begun / completed per db: a read that saw no update in flight
  /// across its Serve call knows the version it was answered from.
  std::unique_ptr<std::atomic<uint64_t>[]> begun;
  std::unique_ptr<std::atomic<uint64_t>[]> done;
  std::unique_ptr<std::atomic<bool>[]> unverifiable;  ///< an update failed
  /// Serializes updates in the traced phase so each one's WAL growth can be
  /// read off the newest log file.
  std::mutex wal_probe_mu;

  ~ChurnState() {
    engine.reset();
    std::error_code ignored;
    std::filesystem::remove_all(data_dir, ignored);
  }
};

/// A quarter chains, a quarter stars, and random trees, of 3-8 atoms; every
/// 32nd query is cyclic. Cyclic count/project misses run the uniform search
/// (tens of ms), so keeping them near 2% of reads leaves p90 inside the
/// acyclic miss path and keeps one second's throughput from hinging on how
/// many of them it drew.
Atoms ChurnQueryAtoms(uint32_t i, Rng& rng) {
  const auto atoms = static_cast<uint32_t>(3 + rng.Below(6));
  if (i % 32 == 31) {
    return CyclicAtoms(static_cast<uint32_t>(3 + rng.Below(3)),
                       static_cast<uint32_t>(rng.Below(4)), rng);
  }
  return TreeAtoms(atoms, i % 8 < 2 ? 0 : i % 8 < 4 ? 1 : 2, rng);
}

std::unique_ptr<ChurnState> SetupChurn(const RunConfig& config, int instance) {
  auto s = std::make_unique<ChurnState>();
  Rng rng(DeriveSeed(config.seed, 2));
  s->vocab = cqcs::MakeGraphVocabulary();
  const double p = kChurnDegree / (kChurnUniverse - 1);
  s->payloads.resize(kChurnDbs);
  for (uint32_t d = 0; d < kChurnDbs; ++d) {
    for (uint32_t v = 0; v < kChurnPayloads; ++v) {
      s->payloads[d].push_back(
          std::make_shared<const Structure>(cqcs::RandomGraphStructure(
              s->vocab, kChurnUniverse, p, rng, /*symmetric=*/true)));
      WarmIndexes(*s->payloads[d].back());
    }
  }
  for (uint32_t q = 0; q < kChurnQueries; ++q) {
    s->texts.push_back(RenderQuery(ChurnQueryAtoms(q, rng), 0));
  }
  s->begun = std::make_unique<std::atomic<uint64_t>[]>(kChurnDbs);
  s->done = std::make_unique<std::atomic<uint64_t>[]>(kChurnDbs);
  s->unverifiable = std::make_unique<std::atomic<bool>[]>(kChurnDbs);

  s->data_dir = config.out_dir + "/wal-serve_churn-" +
                std::to_string(getpid()) + "-" + std::to_string(instance);
  std::error_code ignored;
  std::filesystem::remove_all(s->data_dir, ignored);
  ServeOptions options = MakeServeOptions();
  options.durability.data_dir = s->data_dir;
  options.durability.fsync = cqcs::serve::FsyncPolicy::kNever;
  options.durability.snapshot_every_records = kSnapshotEvery;
  s->engine = std::make_unique<ServingEngine>(options);
  if (!s->engine->Open().ok()) {
    throw std::runtime_error("serve_churn: opening the WAL failed");
  }
  for (uint32_t d = 0; d < kChurnDbs; ++d) {
    if (!s->engine->UpsertDatabase(DbName(d), *s->payloads[d][0]).ok()) {
      throw std::runtime_error("serve_churn: database registration failed");
    }
  }
  // Warm-up: reads from the run's own distribution, spread over the client
  // threads. Updates keep wiping each database's entries, so the caches
  // reach their steady state within this many requests.
  const unsigned clients = ClientCount(config.nproc);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng wrng(DeriveSeed(config.seed, 3 + c));
      auto zipf = cqcs::serve::MakeKeyChooser(
          cqcs::serve::Distribution::kZipfian, kChurnQueries, kChurnSkew);
      for (uint32_t i = c; i < kChurnWarmup; i += clients) {
        const uint32_t q = zipf->Next(wrng);
        const auto d = static_cast<uint32_t>(wrng.Below(kChurnDbs));
        const auto t = static_cast<uint32_t>(wrng.Below(kTaskCount));
        if (!s->engine->Serve(ServeRequest{s->texts[q], DbName(d), kTasks[t]})
                 .ok()) {
          failed = true;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (failed) throw std::runtime_error("serve_churn: warm-up request failed");
  return s;
}

/// Size of the newest WAL generation in `dir`, with its generation number.
std::pair<uint64_t, uintmax_t> NewestWal(const std::string& dir) {
  std::pair<uint64_t, uintmax_t> newest{0, 0};
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) != 0) continue;
    const uint64_t gen = std::strtoull(name.c_str() + 4, nullptr, 10);
    if (gen >= newest.first) newest = {gen, entry.file_size(ec)};
  }
  return newest;
}

struct ChurnClient {
  uint64_t mismatches = 0;
  uint64_t ambiguous = 0;  ///< reads that raced an update of their db
  std::unordered_map<uint64_t, uint64_t> answers;  ///< key -> digest
};

uint64_t ChurnKey(uint32_t q, uint32_t d, uint64_t payload, uint32_t t) {
  return ((static_cast<uint64_t>(q) * kChurnDbs + d) * kChurnPayloads +
          payload) * kTaskCount + t;
}

void ChurnClientLoop(ChurnState& s, unsigned c, unsigned clients,
                     uint64_t stream, int64_t deadline, ChurnClient* client,
                     Measurement* measurement, TraceSink* sink) {
  Rng rng(stream);
  auto zipf = cqcs::serve::MakeKeyChooser(cqcs::serve::Distribution::kZipfian,
                                          kChurnQueries, kChurnSkew);
  std::vector<uint32_t> owned;  // this client alone updates these dbs
  for (uint32_t d = c; d < kChurnDbs; d += clients) owned.push_back(d);
  const cqcs::EngineOptions& options = s.engine->options().engine;
  Measurement& m = *measurement;
  uint64_t request_id = stream << 24;
  while (NowNs() < deadline) {
    if (sink != nullptr && sink->tracer->full()) break;
    if (sink != nullptr) sink->tracer->BeginRequest(++request_id);
    ++m.attempted;
    if (!owned.empty() && rng.Chance(kUpdateFraction)) {
      const uint32_t d = owned[rng.Below(owned.size())];
      const uint64_t next = s.done[d].load() + 1;
      Structure payload = *s.payloads[d][next % kChurnPayloads];
      const std::string name = DbName(d);
      std::unique_lock<std::mutex> probe(s.wal_probe_mu, std::defer_lock);
      std::pair<uint64_t, uintmax_t> wal_before;
      int32_t span = -1;
      if (sink != nullptr) {
        probe.lock();
        wal_before = NewestWal(s.data_dir);
        span = sink->tracer->Open(SpanName::kUpsert);
      }
      s.begun[d].fetch_add(1);
      const int64_t t0 = NowNs();
      const cqcs::Status st = s.engine->UpsertDatabase(name, std::move(payload));
      const int64_t t1 = NowNs();
      s.done[d].fetch_add(1);
      if (sink != nullptr) {
        sink->tracer->Close(span);
        const auto wal_after = NewestWal(s.data_dir);
        if (wal_after.first == wal_before.first &&
            wal_after.second > wal_before.second) {
          sink->wal_bytes.push_back(
              static_cast<double>(wal_after.second - wal_before.second));
        }
        sink->update.Add(t1 - t0);
      }
      if (!st.ok()) {
        s.unverifiable[d] = true;
        ++m.failed;
        continue;
      }
      m.AddUpdate(t1, t1 - t0);
      continue;
    }
    const uint32_t q = zipf->Next(rng);
    const auto d = static_cast<uint32_t>(rng.Below(kChurnDbs));
    const auto t = static_cast<uint32_t>(rng.Below(kTaskCount));
    const ServeRequest req{s.texts[q], DbName(d), kTasks[t]};
    const uint64_t done_before = s.done[d].load();
    const uint64_t begun_before = s.begun[d].load();
    int32_t span = -1;
    if (sink != nullptr) span = sink->tracer->Open(SpanName::kServe);
    const int64_t t0 = NowNs();
    auto r = s.engine->Serve(req);
    const int64_t t1 = NowNs();
    if (sink != nullptr) sink->tracer->Close(span);
    const uint64_t begun_after = s.begun[d].load();
    if (!r.ok()) {
      ++m.failed;
      continue;
    }
    m.AddRead(t1, t1 - t0);
    const uint64_t payload = done_before % kChurnPayloads;
    if (begun_before == done_before && begun_after == begun_before &&
        !s.unverifiable[d]) {
      const uint64_t digest = AnswerDigest(*r);
      auto [it, inserted] = client->answers.emplace(ChurnKey(q, d, payload, t),
                                                    digest);
      if (!inserted && it->second != digest) ++client->mismatches;
    } else {
      ++client->ambiguous;
    }
    if (sink != nullptr) {
      sink->serve.Add(t1 - t0);
      ReplayRead(req, s.vocab, s.payloads[d][payload], *r, t1 - t0, options,
                 sink);
    }
  }
}

uint64_t CheckChurnAnswers(const ChurnState& s,
                           const std::vector<ChurnClient>& clients,
                           const RunConfig& config, RunResult* result) {
  std::unordered_map<uint64_t, uint64_t> merged;
  uint64_t mismatches = 0;
  uint64_t ambiguous = 0;
  for (const ChurnClient& c : clients) {
    mismatches += c.mismatches;
    ambiguous += c.ambiguous;
    for (const auto& [key, digest] : c.answers) {
      auto [it, inserted] = merged.emplace(key, digest);
      if (!inserted && it->second != digest) ++mismatches;
    }
  }
  std::vector<std::pair<uint64_t, uint64_t>> keys(merged.begin(), merged.end());
  std::sort(keys.begin(), keys.end());
  Rng rng(DeriveSeed(config.seed, 4));
  for (size_t i = 0; i < keys.size(); ++i) {  // seeded shuffle, then cap
    std::swap(keys[i], keys[i + rng.Below(keys.size() - i)]);
  }
  const size_t checked = std::min(keys.size(), kChurnOracleCap);
  cqcs::EngineOptions reference = s.engine->options().engine;
  reference.backend = cqcs::Backend::kUniform;
  reference.solve.num_threads = 1;
  std::atomic<uint64_t> wrong{0};
  ParallelFor(checked, config.nproc, [&](size_t i) {
    uint64_t key = keys[i].first;
    const auto t = static_cast<uint32_t>(key % kTaskCount);
    key /= kTaskCount;
    const uint64_t payload = key % kChurnPayloads;
    key /= kChurnPayloads;
    const auto d = static_cast<uint32_t>(key % kChurnDbs);
    const auto q = static_cast<uint32_t>(key / kChurnDbs);
    auto parsed = cqcs::ParseQuery(s.texts[q], s.vocab);
    if (!parsed.ok()) {
      wrong.fetch_add(1);
      return;
    }
    auto problem =
        cqcs::HomProblem::FromQuery(*parsed, *s.payloads[d][payload]);
    if (!problem.ok()) {
      wrong.fetch_add(1);
      return;
    }
    auto r = cqcs::HomEngine(reference).Run(*problem, kTasks[t]);
    if (!r.ok() || AnswerDigest(*r) != keys[i].second) wrong.fetch_add(1);
  });
  result->log.push_back(
      "oracle: " + std::to_string(checked) + " of " +
      std::to_string(keys.size()) +
      " distinct (query, db version, task) answers vs uniform; " +
      std::to_string(ambiguous) + " reads raced an update and were skipped");
  return mismatches + wrong.load();
}

}  // namespace

RunResult RunServeChurn(const RunConfig& config) {
  RunResult result;
  std::vector<double> setup_s;
  int instance = 0;
  auto state = RepeatSetup<ChurnState>(
      [&] { return SetupChurn(config, instance++); }, &setup_s);
  const unsigned clients = ClientCount(config.nproc);
  std::vector<ChurnClient> churn(clients);
  auto phase = [&](double seconds, uint64_t phase_id,
                   std::vector<TraceSink>* sinks) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    return RunClients(clients, [&](unsigned c, Measurement* m) {
      ChurnClientLoop(*state, c, clients,
                      DeriveSeed(config.seed, phase_id * 64 + c), deadline,
                      &churn[c], m, sinks != nullptr ? &(*sinks)[c] : nullptr);
    });
  };
  auto oracle = [&] { return CheckChurnAnswers(*state, churn, config, &result); };
  RunServeWorkload(config, clients, *state->engine, setup_s, phase, oracle,
                   &result);
  return result;
}

}  // namespace perfbench
