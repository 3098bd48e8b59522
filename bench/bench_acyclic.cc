// E12 ([Yan81]/[CR97] discussion in Sections 1 and 5): containment with an
// acyclic right-hand side is polynomial via Yannakakis semijoins.
// IsContained routes an acyclic Q2 to the Yannakakis program, so the
// containment series times that route as the queries grow; the evaluation
// and per-task series time the program itself.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "api/engine.h"
#include "cq/acyclic.h"
#include "cq/containment.h"
#include "gen/generators.h"
#include "solver/backtracking.h"

namespace cqcs {
namespace {

struct QueryPair {
  ConjunctiveQuery q1;
  ConjunctiveQuery q2;
};

QueryPair MakePair(size_t size, uint64_t seed) {
  Rng rng(seed);
  auto vocab = MakeGraphVocabulary();
  ConjunctiveQuery q1 = ChainQuery(vocab, size);
  ConjunctiveQuery q2 = ChainQuery(vocab, size / 2 + 1);
  return QueryPair{std::move(q1), std::move(q2)};
}

void BM_GenericContainmentBaseline(benchmark::State& state) {
  QueryPair pair = MakePair(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsContained(pair.q1, pair.q2));
  }
}
BENCHMARK(BM_GenericContainmentBaseline)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

void BM_YannakakisEvaluation(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(17 + n);
  auto vocab = MakeGraphVocabulary();
  ConjunctiveQuery chain = ChainQuery(vocab, 8);
  Structure d = RandomGraphStructure(vocab, n, 8.0 / static_cast<double>(n),
                                     rng, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateBooleanAcyclic(chain, d));
  }
}
BENCHMARK(BM_YannakakisEvaluation)
    ->Arg(32)->Arg(128)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

// Task-by-task Yannakakis series (recorded in BENCH_solver.json by
// bench/run_bench.sh): the engine's acyclic route — semijoin reduction and
// hash joins over the rel/ columnar kernel — against the uniform
// backtracking solver serving the exact same task with the same caps, on
// tree sources at sizes where the asymptotic separation shows. Arg 0 is
// the arm (0 = engine auto, 1 = raw uniform), Arg 1 the source size. Each
// arm pays its full per-call cost (problem compilation + profile for auto,
// CspInstance build for uniform), so these are honest end-to-end numbers.
constexpr size_t kCountCap = 100000;   // both arms saturate here
constexpr size_t kEnumerateCap = 1000; // both arms stop here

void RunYannakakisTask(benchmark::State& state, HomTask task) {
  const bool use_auto = state.range(0) == 0;
  const size_t n = static_cast<size_t>(state.range(1));
  Rng rng(8111);
  auto vocab = MakeGraphVocabulary();
  Structure a = StructureFromGraph(vocab, RandomTree(n, rng));
  Structure b = RandomGraphStructure(vocab, 12, 0.3, rng, /*symmetric=*/true);
  size_t answer = 0;
  int chosen = -1;
  for (auto _ : state) {
    if (use_auto) {
      EngineOptions options;
      options.count_limit = kCountCap;
      options.max_results = kEnumerateCap;
      auto problem = HomProblem::FromStructures(a, b);
      HomEngine engine(options);
      auto r = engine.Run(*problem, task);
      answer = r.ok() ? (task == HomTask::kWitness ? r->decided : r->count) : 0;
      chosen = r.ok() ? static_cast<int>(r->explain.chosen) : -1;
      benchmark::DoNotOptimize(r);
    } else {
      BacktrackingSolver solver(a, b);
      chosen = static_cast<int>(Backend::kUniform);
      switch (task) {
        case HomTask::kWitness:
          answer = solver.Solve().has_value() ? 1 : 0;
          break;
        case HomTask::kCount:
          answer = solver.CountSolutions(kCountCap);
          break;
        case HomTask::kEnumerate: {
          size_t rows = 0;
          solver.ForEachSolution([&](const Homomorphism&) {
            return ++rows < kEnumerateCap;
          });
          answer = rows;
          break;
        }
        default:
          break;
      }
      benchmark::DoNotOptimize(answer);
    }
  }
  state.counters["auto_arm"] = use_auto ? 1 : 0;
  state.counters["backend"] = chosen;  // Backend enum value
  state.counters["answer"] = static_cast<double>(answer);
}

void BM_YannakakisTask_Witness(benchmark::State& state) {
  RunYannakakisTask(state, HomTask::kWitness);
}
void BM_YannakakisTask_Count(benchmark::State& state) {
  RunYannakakisTask(state, HomTask::kCount);
}
void BM_YannakakisTask_Enumerate(benchmark::State& state) {
  RunYannakakisTask(state, HomTask::kEnumerate);
}
BENCHMARK(BM_YannakakisTask_Witness)
    ->Args({0, 64})->Args({1, 64})
    ->Args({0, 512})->Args({1, 512})
    ->Args({0, 4096})->Args({1, 4096})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_YannakakisTask_Count)
    ->Args({0, 64})->Args({1, 64})
    ->Args({0, 512})->Args({1, 512})
    ->Args({0, 4096})->Args({1, 4096})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_YannakakisTask_Enumerate)
    ->Args({0, 64})->Args({1, 64})
    ->Args({0, 512})->Args({1, 512})
    ->Args({0, 4096})->Args({1, 4096})
    ->Unit(benchmark::kMillisecond);

// Churn-shaped series: the acyclic traffic of the serving miss path. Tree
// queries of 3-8 E-atoms (a quarter chains, a quarter stars, the rest
// random attachment trees; every atom randomly oriented; head X0) into a
// symmetric G(512, deg 6), compiled and run per request on the kAcyclic
// route at one thread. Each iteration serves the next of 64 fixed
// queries, so the reported time is per request.
constexpr size_t kChurnShapedQueries = 64;
constexpr size_t kChurnShapedCountCap = 10000;

std::vector<ConjunctiveQuery> ChurnShapedQueries(const VocabularyPtr& vocab,
                                                 Rng& rng) {
  const RelId e = *vocab->FindRelation("E");
  std::vector<ConjunctiveQuery> out;
  for (size_t i = 0; i < kChurnShapedQueries; ++i) {
    const size_t atoms = 3 + rng.Below(6);
    const size_t shape = i % 8 < 2 ? 0 : i % 8 < 4 ? 1 : 2;
    ConjunctiveQuery q(vocab, "Q");
    std::vector<VarId> vars;
    for (size_t v = 0; v <= atoms; ++v) {
      vars.push_back(q.GetOrCreateVar("X" + std::to_string(v)));
    }
    for (size_t v = 1; v <= atoms; ++v) {
      const size_t parent = shape == 0 ? v - 1 : shape == 1 ? 0 : rng.Below(v);
      if (rng.Chance(0.5)) {
        q.AddAtom(e, {vars[parent], vars[v]});
      } else {
        q.AddAtom(e, {vars[v], vars[parent]});
      }
    }
    q.SetHead({vars[0]});
    out.push_back(std::move(q));
  }
  return out;
}

void RunChurnShapedTask(benchmark::State& state, HomTask task) {
  Rng rng(8112);
  auto vocab = MakeGraphVocabulary();
  const Structure db =
      RandomGraphStructure(vocab, 512, 6.0 / 511, rng, /*symmetric=*/true);
  const std::vector<ConjunctiveQuery> queries = ChurnShapedQueries(vocab, rng);
  EngineOptions options;
  options.backend = Backend::kAcyclic;
  options.count_limit = kChurnShapedCountCap;
  HomEngine engine(options);
  size_t next = 0;
  uint64_t answers = 0, semijoins = 0, join_rows = 0;
  for (auto _ : state) {
    auto problem = HomProblem::FromQuery(queries[next], db);
    auto r = engine.Run(*problem, task);
    if (r.ok()) {
      answers += task == HomTask::kDecide ? r->decided : r->rows.size();
      semijoins += r->stats.yannakakis.semijoins;
      join_rows += r->stats.yannakakis.join_rows;
    }
    benchmark::DoNotOptimize(r);
    next = (next + 1) % queries.size();
  }
  const double runs = static_cast<double>(state.iterations());
  state.counters["answers_per_run"] = static_cast<double>(answers) / runs;
  state.counters["semijoins_per_run"] = static_cast<double>(semijoins) / runs;
  state.counters["join_rows_per_run"] = static_cast<double>(join_rows) / runs;
}

void BM_YannakakisTask_Decide(benchmark::State& state) {
  RunChurnShapedTask(state, HomTask::kDecide);
}
void BM_YannakakisTask_Project(benchmark::State& state) {
  RunChurnShapedTask(state, HomTask::kProject);
}
BENCHMARK(BM_YannakakisTask_Decide)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_YannakakisTask_Project)->Unit(benchmark::kMicrosecond);

// Thread sweep over the acyclic route (same instance and caps as the Count
// series above, problem compiled once so the series isolates the kernel).
// The Yannakakis program runs on the calling thread at every thread count,
// so the 2/4/8 arms must read level with the 1-thread arm: the series
// guards against a thread-count knob that costs time without doing work.
void BM_YannakakisTask_CountThreads(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  Rng rng(8111);
  auto vocab = MakeGraphVocabulary();
  Structure a = StructureFromGraph(vocab, RandomTree(n, rng));
  Structure b = RandomGraphStructure(vocab, 12, 0.3, rng, /*symmetric=*/true);
  EngineOptions options;
  options.backend = Backend::kAcyclic;
  options.count_limit = kCountCap;
  options.solve.num_threads = threads;
  auto problem = HomProblem::FromStructures(a, b);
  HomEngine engine(options);
  size_t answer = 0;
  for (auto _ : state) {
    auto r = engine.Run(*problem, HomTask::kCount);
    if (r.ok()) answer = r->count;
    benchmark::DoNotOptimize(r);
  }
  state.counters["threads"] = threads;
  state.counters["answer"] = static_cast<double>(answer);
}
BENCHMARK(BM_YannakakisTask_CountThreads)
    ->Args({1, 4096})->Args({2, 4096})->Args({4, 4096})->Args({8, 4096})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cqcs
