// Ablations for the library's design choices:
//   - MAC vs forward checking in the generic solver;
//   - the SCC-based 2-SAT solver behind the bijunctive route (Theorem 3.3);
//   - min-fill vs min-degree elimination orders (width and time).

#include <benchmark/benchmark.h>

#include "gen/generators.h"
#include "schaefer/cnf.h"
#include "solver/backtracking.h"
#include "treewidth/decomposition.h"

namespace cqcs {
namespace {

void RunSolver(benchmark::State& state, Propagation propagation) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(31337 + n);
  auto vocab = MakeGraphVocabulary();
  Structure a = UndirectedCycleStructure(vocab, (n | 1));  // odd: UNSAT side
  Structure b = CliqueStructure(vocab, 2);
  SolveOptions options;
  options.propagation = propagation;
  uint64_t nodes = 0;
  for (auto _ : state) {
    BacktrackingSolver solver(a, b, options);
    SolveStats stats;
    benchmark::DoNotOptimize(solver.Solve(&stats));
    nodes = stats.nodes;
  }
  state.counters["nodes"] = static_cast<double>(nodes);
}
void BM_Solver_Mac(benchmark::State& state) {
  RunSolver(state, Propagation::kMac);
}
void BM_Solver_ForwardChecking(benchmark::State& state) {
  RunSolver(state, Propagation::kForwardChecking);
}
BENCHMARK(BM_Solver_Mac)->Arg(17)->Arg(33)->Arg(65)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Solver_ForwardChecking)->Arg(17)->Arg(33)->Arg(65)
    ->Unit(benchmark::kMicrosecond);

CnfFormula RandomTwoCnf(uint32_t vars, size_t clauses, uint64_t seed) {
  Rng rng(seed);
  CnfFormula f;
  f.var_count = vars;
  for (size_t c = 0; c < clauses; ++c) {
    Clause clause;
    clause.push_back(
        Literal{static_cast<uint32_t>(rng.Below(vars)), rng.Chance(0.5)});
    clause.push_back(
        Literal{static_cast<uint32_t>(rng.Below(vars)), rng.Chance(0.5)});
    f.clauses.push_back(std::move(clause));
  }
  return f;
}

void BM_TwoSat_Scc(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  CnfFormula f = RandomTwoCnf(n, 2 * n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveTwoSat(f));
  }
}
BENCHMARK(BM_TwoSat_Scc)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void RunOrder(benchmark::State& state, bool min_fill) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5 + n);
  Graph g = RandomPartialKTree(n, 3, 0.85, rng);
  int width = 0;
  for (auto _ : state) {
    auto order = min_fill ? MinFillOrder(g) : MinDegreeOrder(g);
    width = DecompositionFromEliminationOrder(g, order).Width();
    benchmark::DoNotOptimize(width);
  }
  state.counters["width"] = width;
}
void BM_Order_MinFill(benchmark::State& state) { RunOrder(state, true); }
void BM_Order_MinDegree(benchmark::State& state) { RunOrder(state, false); }
BENCHMARK(BM_Order_MinFill)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Order_MinDegree)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cqcs
