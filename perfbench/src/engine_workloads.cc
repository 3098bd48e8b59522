// engine_cyclic: one closed-loop caller making one-shot HomEngine calls
// (kAuto) with solve.num_threads = nproc, no serving shell. It drives the
// treewidth route and the uniform search: partial 2-trees (n = 1024) into
// G(8, 0.5), each run cold (decide) and again on the kept problem (witness);
// plus cyclic containment pairs (FromContainment) and random graphs into K3.
//
// Requests follow a fixed, seed-independent sequence of kinds and sizes
// (the seed draws the instances), and a run ends on a block boundary, so
// every run holds the same mix and the percentiles stay put.

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <stdexcept>

#include "common/rng.h"
#include "core/homomorphism.h"
#include "cq/containment.h"
#include "gen/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cqcs::EngineOptions;
using cqcs::EngineResult;
using cqcs::HomProblem;
using cqcs::HomTask;
using cqcs::Rng;
using cqcs::Structure;

constexpr size_t kEngineSpans = 100000;

/// One caller's measurement window plus its traced-phase records.
struct Caller {
  Measurement m;
  std::unique_ptr<Tracer> tracer;  ///< null when untraced
  LayerCounters counters;
  LatencyRecorder traced_calls;
  uint64_t request_id = 0;
  /// Latencies by request identity (the same request recurs every round).
  std::map<uint64_t, std::vector<int64_t>> by_request;

  /// Times one request; `call` returns the result or an error. `key`
  /// identifies the request among the recurring ones.
  template <typename Call>
  std::optional<EngineResult> Time(uint64_t key, const Call& call) {
    ++m.attempted;
    int32_t span = -1;
    if (tracer != nullptr) {
      tracer->BeginRequest(++request_id);
      span = tracer->Open(SpanName::kEngineRun);
    }
    const int64_t t0 = NowNs();
    cqcs::Result<EngineResult> r = call();
    const int64_t t1 = NowNs();
    if (tracer != nullptr) {
      tracer->Close(span);
      traced_calls.Add(t1 - t0);
    }
    if (!r.ok()) {
      ++m.failed;
      return std::nullopt;
    }
    m.AddRead(t1, t1 - t0);
    by_request[key].push_back(t1 - t0);
    return *std::move(r);
  }

  /// The replay half of a traced request.
  void Replay(const std::function<cqcs::Result<HomProblem>()>& compile,
              HomTask task, const EngineOptions& options) {
    if (tracer == nullptr) return;
    ScopedSpan replay(tracer.get(), SpanName::kReplay);
    ReplayProblem(compile, nullptr, task, options, tracer.get(), &counters);
  }
};

/// Runs the untraced window (all of it, or the first half of a traced run)
/// and then the traced half; `loop(caller, deadline)` drives the requests
/// and `oracle()` then returns the number of wrong answers. Fills the
/// result's counts and metrics.
void RunEngineWorkload(const RunConfig& config,
                       const std::vector<double>& setup_s,
                       const std::function<void(Caller&, int64_t)>& loop,
                       const std::function<uint64_t()>& oracle,
                       RunResult* result) {
  auto phase = [&](Caller& caller, double seconds) {
    caller.m.Open();
    loop(caller, NowNs() + static_cast<int64_t>(seconds * 1e9));
    caller.m.Close();
  };
  Caller untraced;
  phase(untraced, config.trace ? config.seconds / 2 : config.seconds);
  Caller traced;
  if (config.trace) {
    traced.tracer = std::make_unique<Tracer>(kEngineSpans);
    phase(traced, config.seconds / 2);
  }
  result->mismatches = oracle();
  result->attempted = untraced.m.attempted + traced.m.attempted;
  result->failed = untraced.m.failed + traced.m.failed +
                   traced.counters.replay_errors + result->mismatches;
  result->log.push_back("requests: " + std::to_string(untraced.m.reads.count()));
  if (!config.trace) {
    AddEndToEndRepeated(untraced.m, untraced.by_request, setup_s,
                        &result->metrics);
    return;
  }
  MetricTable& out = result->metrics;
  AddUntracedDetail(untraced.m, result->mismatches, config.nproc, setup_s,
                    &out);
  AddIdleServeMetrics(&out);
  AddTraceOverhead(traced.traced_calls.QuantileNs(0.5),
                   untraced.m.reads.QuantileNs(0.5), &out);
  const std::vector<const Tracer*> tracers = {traced.tracer.get()};
  AddLayerMetrics(Summarize(tracers), traced.counters, &out);
  result->log.push_back("traced: " + std::to_string(traced.m.reads.count()) +
                        " requests, " +
                        std::to_string(traced.counters.replays) + " replays");
  WriteTraceFiles(config, tracers, out, result);
}

// ---- engine_cyclic -------------------------------------------------------------

/// Treewidth sources: partial 2-trees of one size, so the cold requests form
/// one latency mode (see the sequence comment in SetupCyclic).
constexpr size_t kTwVertices = 1024;
constexpr uint32_t kTwInstances = 4;
constexpr size_t kTwTargetUniverse = 8;
constexpr double kTwKeep = 0.85;
constexpr uint64_t kCyclicWarmupSeed = 0x5eed;
/// Random graphs into K3 near the 3-colorability threshold: a mix of
/// refutations and colorings, 15-50 ms each, most of it in stage-3 routing.
constexpr uint32_t kCliqueInstances = 24;
constexpr size_t kCliqueSourceVertices = 120;
constexpr double kCliqueSourceDegree = 4.8;
constexpr size_t kCliqueColors = 3;
constexpr uint32_t kContainmentPairs = 8;
/// Search requests after each treewidth pair.
constexpr uint32_t kCliquesPerBlock = 4;
constexpr uint32_t kContainmentsPerBlock = 2;
constexpr uint32_t kBlockSize = 2 + kCliquesPerBlock + kContainmentsPerBlock;

enum class Kind { kTwCold, kTwWarm, kClique, kContainment };

struct CyclicRequest {
  Kind kind;
  uint32_t instance;
};

struct ContainmentPair {
  cqcs::ConjunctiveQuery q1;
  cqcs::ConjunctiveQuery q2;
};

struct CyclicState {
  std::vector<Structure> tw_sources;
  std::vector<Structure> tw_targets;
  std::vector<Structure> clique_sources;
  Structure clique_target;
  std::vector<ContainmentPair> pairs;
  std::vector<CyclicRequest> sequence;  ///< blocks of kBlockSize requests
};

/// Variable name prefix + index, appended rather than concatenated (GCC 12
/// reports a false -Wrestrict on `"X" + std::to_string(v)`).
std::string VarName(char prefix, uint32_t v) {
  std::string name(1, prefix);
  name += std::to_string(v);
  return name;
}

/// A connected query over `vars` variables: a random spanning tree plus
/// `extra` random atoms (which close cycles). Head X0.
cqcs::ConjunctiveQuery RandomConnectedQuery(const cqcs::VocabularyPtr& vocab,
                                            uint32_t vars, uint32_t extra,
                                            Rng& rng) {
  cqcs::ConjunctiveQuery q(vocab);
  for (uint32_t v = 0; v < vars; ++v) q.GetOrCreateVar(VarName('X', v));
  for (uint32_t v = 1; v < vars; ++v) {
    q.AddAtom(0, {static_cast<uint32_t>(rng.Below(v)), v});
  }
  for (uint32_t i = 0; i < extra; ++i) {
    const auto a = static_cast<uint32_t>(rng.Below(vars));
    const auto b = static_cast<uint32_t>(rng.Below(vars));
    if (a != b) q.AddAtom(0, {a, b});
  }
  q.SetHead({0});
  return q;
}

/// Even pairs: q1 is a homomorphic image of q2 plus extra atoms, so
/// q1 ⊆ q2 holds and the search must find the map. Odd pairs: independent
/// queries (usually not contained). The sizes keep the evaluation oracle
/// (IsContainedViaEvaluation enumerates every answer of q2 over D_{q1})
/// within milliseconds; at 16 variables some pairs took seconds.
ContainmentPair MakeContainmentPair(const cqcs::VocabularyPtr& vocab,
                                    uint32_t index, Rng& rng) {
  constexpr uint32_t kVars2 = 12;
  constexpr uint32_t kVars1 = 8;
  cqcs::ConjunctiveQuery q2 = RandomConnectedQuery(vocab, kVars2, 8, rng);
  if (index % 2 == 1) {
    return {RandomConnectedQuery(vocab, kVars1, 6, rng), std::move(q2)};
  }
  std::vector<uint32_t> image(kVars2);
  for (uint32_t v = 0; v < kVars2; ++v) {
    image[v] = v < kVars1 ? v : static_cast<uint32_t>(rng.Below(kVars1));
  }
  cqcs::ConjunctiveQuery q1(vocab);
  for (uint32_t v = 0; v < kVars1; ++v) q1.GetOrCreateVar(VarName('Y', v));
  for (const cqcs::Atom& atom : q2.atoms()) {
    q1.AddAtom(0, {image[atom.args[0]], image[atom.args[1]]});
  }
  for (uint32_t i = 0; i < 6; ++i) {
    q1.AddAtom(0, {static_cast<uint32_t>(rng.Below(kVars1)),
                   static_cast<uint32_t>(rng.Below(kVars1))});
  }
  q1.SetHead({0});
  return {std::move(q1), std::move(q2)};
}

std::unique_ptr<CyclicState> SetupCyclic(const RunConfig& config) {
  Rng rng(DeriveSeed(config.seed, 20));
  auto vocab = cqcs::MakeGraphVocabulary();
  auto s = std::make_unique<CyclicState>(CyclicState{
      {}, {}, {}, cqcs::CliqueStructure(vocab, kCliqueColors), {}, {}});
  for (uint32_t i = 0; i < kTwInstances; ++i) {
    s->tw_sources.push_back(cqcs::StructureFromGraph(
        vocab, cqcs::RandomPartialKTree(kTwVertices, 2, kTwKeep, rng)));
    s->tw_targets.push_back(cqcs::RandomGraphStructure(
        vocab, kTwTargetUniverse, 0.5, rng, /*symmetric=*/true));
    WarmIndexes(s->tw_sources.back());
    WarmIndexes(s->tw_targets.back());
  }
  for (uint32_t i = 0; i < kCliqueInstances; ++i) {
    s->clique_sources.push_back(cqcs::RandomGraphStructure(
        vocab, kCliqueSourceVertices,
        kCliqueSourceDegree / (kCliqueSourceVertices - 1), rng,
        /*symmetric=*/true));
    WarmIndexes(s->clique_sources.back());
  }
  WarmIndexes(s->clique_target);
  for (uint32_t i = 0; i < kContainmentPairs; ++i) {
    s->pairs.push_back(MakeContainmentPair(vocab, i, rng));
  }
  // The sequence is made of identical blocks: a treewidth source run cold
  // then warm, then the search requests. The cold requests are the slowest
  // eighth of all requests, so p90 falls inside that mode and p50 inside
  // the search requests, never on a boundary between modes.
  uint32_t clique = 0;
  uint32_t pair = 0;
  for (uint32_t tw = 0; tw < kTwInstances * 6; ++tw) {
    s->sequence.push_back({Kind::kTwCold, tw % kTwInstances});
    s->sequence.push_back({Kind::kTwWarm, tw % kTwInstances});
    for (uint32_t i = 0; i < kCliquesPerBlock; ++i) {
      s->sequence.push_back({Kind::kClique, clique++ % kCliqueInstances});
    }
    for (uint32_t i = 0; i < kContainmentsPerBlock; ++i) {
      s->sequence.push_back({Kind::kContainment, pair++ % kContainmentPairs});
    }
  }
  // Warm-up: a treewidth-route instance, which in the process's first
  // set-up also starts the morsel pool's threads (setup_first_s). It is
  // drawn from a fixed seed, so set-up time does not depend on which
  // instances the workload seed drew.
  Rng fixed(kCyclicWarmupSeed);
  EngineOptions options;
  options.solve.num_threads = config.nproc;
  auto p = HomProblem::FromStructures(
      cqcs::StructureFromGraph(
          vocab, cqcs::RandomPartialKTree(kTwVertices / 4, 2, kTwKeep, fixed)),
      cqcs::RandomGraphStructure(vocab, kTwTargetUniverse, 0.5, fixed,
                                 /*symmetric=*/true));
  if (!p.ok() || !cqcs::HomEngine(options).Run(*p, HomTask::kDecide).ok()) {
    throw std::runtime_error("engine_cyclic: warm-up request failed");
  }
  return s;
}

}  // namespace

RunResult RunEngineCyclic(const RunConfig& config) {
  RunResult result;
  std::vector<double> setup_s;
  auto state = RepeatSetup<CyclicState>(
      [&] { return SetupCyclic(config); }, &setup_s);
  const CyclicState& s = *state;
  EngineOptions options;
  options.solve.num_threads = config.nproc;
  const cqcs::HomEngine engine(options);
  // Verdict slots: treewidth instances, then cliques, then pairs.
  const size_t tw_count = s.tw_sources.size();
  const size_t clique_base = tw_count;
  const size_t pair_base = clique_base + kCliqueInstances;
  std::vector<int8_t> verdict(pair_base + kContainmentPairs, -1);
  uint64_t mismatches = 0;
  auto record = [&](size_t slot, bool decided) {
    if (verdict[slot] >= 0 && verdict[slot] != decided) ++mismatches;
    verdict[slot] = decided;
  };
  std::vector<LatencyRecorder> by_kind(4);

  auto loop = [&](Caller& caller, int64_t deadline) {
    std::optional<HomProblem> kept;
    for (size_t i = 0;; ++i) {
      if (i % kBlockSize == 0 && NowNs() >= deadline) break;
      const CyclicRequest req = s.sequence[i % s.sequence.size()];
      std::function<cqcs::Result<HomProblem>()> compile;
      HomTask task = HomTask::kDecide;
      size_t slot = 0;
      switch (req.kind) {
        case Kind::kTwCold:
        case Kind::kTwWarm:
          compile = [&s, req] {
            return HomProblem::FromStructures(s.tw_sources[req.instance],
                                              s.tw_targets[req.instance]);
          };
          slot = req.instance;
          if (req.kind == Kind::kTwWarm) task = HomTask::kWitness;
          break;
        case Kind::kClique:
          compile = [&s, req] {
            return HomProblem::FromStructures(s.clique_sources[req.instance],
                                              s.clique_target);
          };
          slot = clique_base + req.instance;
          break;
        case Kind::kContainment:
          compile = [&s, req] {
            return HomProblem::FromContainment(s.pairs[req.instance].q1,
                                               s.pairs[req.instance].q2);
          };
          slot = pair_base + req.instance;
          break;
      }
      const int64_t t0 = NowNs();
      const uint64_t key = slot * 2 + (req.kind == Kind::kTwWarm ? 1 : 0);
      std::optional<EngineResult> r;
      if (req.kind == Kind::kTwWarm) {
        if (!kept.has_value()) continue;
        r = caller.Time(key, [&] { return engine.Run(*kept, task); });
      } else {
        r = caller.Time(key, [&]() -> cqcs::Result<EngineResult> {
          CQCS_ASSIGN_OR_RETURN(HomProblem p, compile());
          auto run = engine.Run(p, task);
          if (req.kind == Kind::kTwCold) kept.emplace(std::move(p));
          return run;
        });
      }
      by_kind[static_cast<size_t>(req.kind)].Add(NowNs() - t0);
      if (!r.has_value()) continue;
      record(slot, r->decided);
      if (req.kind == Kind::kTwWarm && r->decided &&
          (!r->witness.has_value() ||
           !cqcs::IsHomomorphism(s.tw_sources[req.instance],
                                 s.tw_targets[req.instance], *r->witness))) {
        ++mismatches;
      }
      caller.Replay(compile, task, options);
    }
  };
  // Oracle: treewidth and clique verdicts against the 1-thread uniform
  // search; containment verdicts against IsContainedViaEvaluation (Theorem
  // 2.1's evaluation characterization, on the raw solver).
  auto oracle = [&] {
    EngineOptions reference;
    reference.backend = cqcs::Backend::kUniform;
    std::atomic<uint64_t> wrong{0};
    std::vector<double> check_ms(verdict.size(), 0);
    ParallelFor(verdict.size(), config.nproc, [&](size_t slot) {
      if (verdict[slot] < 0) return;
      const int64_t t0 = NowNs();
      cqcs::Result<bool> expected(false);
      if (slot >= pair_base) {
        const ContainmentPair& pair = s.pairs[slot - pair_base];
        expected = cqcs::IsContainedViaEvaluation(pair.q1, pair.q2);
      } else {
        auto p = slot >= clique_base
                     ? HomProblem::FromStructures(
                           s.clique_sources[slot - clique_base], s.clique_target)
                     : HomProblem::FromStructures(s.tw_sources[slot],
                                                  s.tw_targets[slot]);
        expected = p.ok() ? cqcs::HomEngine(reference).Decide(*p)
                          : cqcs::Result<bool>(p.status());
      }
      if (!expected.ok() || *expected != (verdict[slot] == 1)) {
        wrong.fetch_add(1);
      }
      check_ms[slot] = (NowNs() - t0) / 1e6;
    });
    const auto slowest = std::max_element(check_ms.begin(), check_ms.end());
    result.log.push_back("oracle: slowest check " + std::to_string(*slowest) +
                         " ms (slot " +
                         std::to_string(slowest - check_ms.begin()) + ")");
    return mismatches + wrong.load();
  };
  RunEngineWorkload(config, setup_s, loop, oracle, &result);
  static constexpr const char* kKindNames[] = {"treewidth cold", "treewidth warm",
                                               "clique", "containment"};
  for (size_t k = 0; k < by_kind.size(); ++k) {
    result.log.push_back(std::string(kKindNames[k]) + ": n=" +
                         std::to_string(by_kind[k].count()) + " p50=" +
                         std::to_string(by_kind[k].QuantileNs(0.5) / 1e6) +
                         " ms p90=" +
                         std::to_string(by_kind[k].QuantileNs(0.9) / 1e6) + " ms");
  }
  result.log.push_back("oracle: verdicts vs 1-thread uniform search and "
                       "IsContainedViaEvaluation; witnesses checked as "
                       "homomorphisms");
  return result;
}

}  // namespace perfbench
