// E9 (Theorem 5.4): uniform tractability for bounded-treewidth sources.
// Series: DP over a tree decomposition versus generic backtracking as the
// source grows (n sweep) and as the target grows (|B| sweep, exhibiting
// the |B|^{w+1} table factor); plus the width sweep w = 1..4.

#include <benchmark/benchmark.h>

#include "gen/generators.h"
#include "solver/backtracking.h"
#include "treewidth/hom_dp.h"

namespace cqcs {
namespace {

struct Instance {
  Structure a;
  Structure b;
};

Instance MakeInstance(size_t n, uint32_t k, size_t target_size,
                      uint64_t seed) {
  Rng rng(seed);
  auto vocab = MakeGraphVocabulary();
  Graph ga = RandomPartialKTree(n, k, 0.85, rng);
  return Instance{
      StructureFromGraph(vocab, ga),
      RandomGraphStructure(vocab, target_size, 0.5, rng, /*symmetric=*/true)};
}

void BM_TreewidthDp_SourceSweep(benchmark::State& state) {
  Instance inst =
      MakeInstance(static_cast<size_t>(state.range(0)), 2, 8, 4242);
  TreewidthSolveStats stats;
  bool hom = false;
  for (auto _ : state) {
    auto r = SolveBoundedTreewidth(inst.a, inst.b, &stats);
    hom = r.ok() && r->has_value();
    benchmark::DoNotOptimize(r);
  }
  state.counters["width"] = stats.width;
  state.counters["table_rows"] = static_cast<double>(stats.table_entries);
  state.counters["hom"] = hom ? 1 : 0;
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TreewidthDp_SourceSweep)
    ->RangeMultiplier(2)->Range(16, 512)
    ->Unit(benchmark::kMicrosecond)->Complexity(benchmark::oAuto);

void BM_Backtracking_SourceSweep(benchmark::State& state) {
  Instance inst =
      MakeInstance(static_cast<size_t>(state.range(0)), 2, 8, 4242);
  for (auto _ : state) {
    BacktrackingSolver solver(inst.a, inst.b);
    benchmark::DoNotOptimize(solver.Solve());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Backtracking_SourceSweep)
    ->RangeMultiplier(2)->Range(16, 512)
    ->Unit(benchmark::kMicrosecond)->Complexity(benchmark::oAuto);

void BM_TreewidthDp_TargetSweep(benchmark::State& state) {
  Instance inst =
      MakeInstance(64, 2, static_cast<size_t>(state.range(0)), 999);
  TreewidthSolveStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveBoundedTreewidth(inst.a, inst.b, &stats));
  }
  state.counters["width"] = stats.width;
  state.counters["table_rows"] = static_cast<double>(stats.table_entries);
}
BENCHMARK(BM_TreewidthDp_TargetSweep)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(24)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_TreewidthDp_WidthSweep(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  Instance inst = MakeInstance(48, k, 6, 777);
  TreewidthSolveStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveBoundedTreewidth(inst.a, inst.b, &stats));
  }
  state.counters["width"] = stats.width;
  state.counters["table_rows"] = static_cast<double>(stats.table_entries);
}
BENCHMARK(BM_TreewidthDp_WidthSweep)
    ->Arg(1)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

// Hash-indexed DP series (recorded in BENCH_solver.json by
// bench/run_bench.sh): the rewritten tuple→bag assignment — rel::Table
// rows deduplicated through rel::HashIndex probes instead of
// std::set<std::vector<Element>> — at sizes the seed DP could not touch.
// The source sweep tracks near-linear growth in #bags at fixed width; the
// target sweep exhibits the |B|^{w+1} table factor with the new constants.
void BM_TreewidthDpIndexed_SourceSweep(benchmark::State& state) {
  Instance inst =
      MakeInstance(static_cast<size_t>(state.range(0)), 2, 8, 4242);
  TreewidthSolveStats stats;
  bool hom = false;
  for (auto _ : state) {
    auto r = SolveBoundedTreewidth(inst.a, inst.b, &stats);
    hom = r.ok() && r->has_value();
    benchmark::DoNotOptimize(r);
  }
  state.counters["width"] = stats.width;
  // table_entries = candidate bag assignments enumerated (the |B|^{w+1}
  // odometer); table_rows = deduplicated rows the hash index actually kept.
  state.counters["table_entries"] = static_cast<double>(stats.table_entries);
  state.counters["table_rows"] = static_cast<double>(stats.table_rows);
  state.counters["hom"] = hom ? 1 : 0;
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TreewidthDpIndexed_SourceSweep)
    ->RangeMultiplier(4)->Range(128, 2048)
    ->Unit(benchmark::kMicrosecond)->Complexity(benchmark::oAuto);

void BM_TreewidthDpIndexed_TargetSweep(benchmark::State& state) {
  Instance inst =
      MakeInstance(96, 2, static_cast<size_t>(state.range(0)), 999);
  TreewidthSolveStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveBoundedTreewidth(inst.a, inst.b, &stats));
  }
  state.counters["width"] = stats.width;
  state.counters["table_entries"] = static_cast<double>(stats.table_entries);
  state.counters["table_rows"] = static_cast<double>(stats.table_rows);
}
BENCHMARK(BM_TreewidthDpIndexed_TargetSweep)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(48)
    ->Unit(benchmark::kMicrosecond);

// Thread sweep over the level-scheduled DP (decomposition reused across
// iterations via SolveViaTreeDecomposition would hide the bag-assignment
// phase, so this keeps the full SolveBoundedTreewidth cost like the other
// Indexed series). On a single-core host the 2/4/8 arms bound the
// level-barrier and pool-dispatch overhead, not speedup.
void BM_TreewidthDpIndexed_ThreadSweep(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  Instance inst = MakeInstance(512, 2, 8, 4242);
  TreewidthSolveStats stats;
  bool hom = false;
  for (auto _ : state) {
    auto r = SolveBoundedTreewidth(inst.a, inst.b, &stats,
                                   /*governor=*/nullptr, threads);
    hom = r.ok() && r->has_value();
    benchmark::DoNotOptimize(r);
  }
  state.counters["threads"] = threads;
  state.counters["table_entries"] = static_cast<double>(stats.table_entries);
  state.counters["morsels"] = static_cast<double>(stats.morsels);
  state.counters["steals"] = static_cast<double>(stats.steals);
  state.counters["hom"] = hom ? 1 : 0;
}
BENCHMARK(BM_TreewidthDpIndexed_ThreadSweep)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

// The min-fill order plus its bags, on partial 3-trees, with a complexity
// fit: each elimination step should cost about a local degree squared.
void BM_Decomposition_MinFill(benchmark::State& state) {
  Rng rng(55);
  Graph g = RandomPartialKTree(static_cast<size_t>(state.range(0)), 3, 0.8,
                               rng);
  int width = 0;
  for (auto _ : state) {
    auto td = DecompositionFromEliminationOrder(g, MinFillOrder(g));
    width = td.Width();
    benchmark::DoNotOptimize(td);
  }
  state.counters["width"] = width;
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Decomposition_MinFill)
    ->RangeMultiplier(2)->Range(32, 4096)
    ->Unit(benchmark::kMicrosecond)->Complexity(benchmark::oAuto);

}  // namespace
}  // namespace cqcs
