// E8 (Theorems 4.7(2)/4.8, Remark 4.10): the canonical k-Datalog program
// ρ_B decides the Spoiler's win, agreeing with the game solver; for Horn
// targets the game decides CSP exactly. Series: semi-naive evaluation of
// ρ_B and the section 4.1 non-2-colorability program as the input grows.
// (The agreement with the game solver is checked by pebble_test's
// RhoBTest.AgreesWithGameSolver.)

#include <benchmark/benchmark.h>

#include "datalog/builtin_programs.h"
#include "datalog/evaluator.h"
#include "datalog/rho_b.h"
#include "gen/generators.h"

namespace cqcs {
namespace {

void BM_Non2ColProgram(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  DatalogProgram program = BuildNon2ColorabilityProgram();
  Structure cycle =
      UndirectedCycleStructure(program.edb_vocabulary(), n | 1);  // odd
  bool derived = false;
  size_t facts = 0;
  for (auto _ : state) {
    auto result = EvaluateDatalog(program, cycle);
    derived = !result->idb_relations[program.goal()].empty();
    facts = result->derived_tuples;
    benchmark::DoNotOptimize(result);
  }
  state.counters["odd_cycle_found"] = derived ? 1 : 0;
  state.counters["derived_facts"] = static_cast<double>(facts);
}
BENCHMARK(BM_Non2ColProgram)
    ->Arg(9)->Arg(17)->Arg(33)->Arg(65)
    ->Unit(benchmark::kMillisecond);

void BM_RhoB_Evaluation(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto vocab = MakeGraphVocabulary();
  Structure k2 = CliqueStructure(vocab, 2);
  auto rho = BuildSpoilerWinProgram(k2, 2);
  Structure cycle = UndirectedCycleStructure(vocab, n);
  bool spoiler = false;
  for (auto _ : state) {
    auto result = EvaluateDatalog(*rho, cycle);
    spoiler = !result->idb_relations[rho->goal()].empty();
    benchmark::DoNotOptimize(result);
  }
  state.counters["spoiler_wins"] = spoiler ? 1 : 0;
}
BENCHMARK(BM_RhoB_Evaluation)
    ->Arg(4)->Arg(6)->Arg(8)->Arg(12)->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cqcs
