// E9 (Theorem 5.4): uniform tractability for bounded-treewidth sources.
// Series: DP over a tree decomposition as the source grows (n sweep) and
// as the target grows (|B| sweep, exhibiting the |B|^{w+1} table factor);
// the width sweep w = 1..4; the thread sweep; min-fill; and kAuto's stage-3
// refusal on a high-width source. (kAuto against the uniform search on
// partial k-trees is BM_EngineAutoVsUniform_PartialKTree.)

#include <benchmark/benchmark.h>

#include <vector>

#include "api/engine.h"
#include "gen/generators.h"
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

void BM_TreewidthDp_WidthSweep(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  Instance inst = MakeInstance(48, k, 6, 777);
  TreewidthSolveStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveBoundedTreewidth(inst.a, inst.b, &stats));
  }
  state.counters["width"] = stats.width;
  state.counters["table_entries"] = static_cast<double>(stats.table_entries);
}
BENCHMARK(BM_TreewidthDp_WidthSweep)
    ->Arg(1)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

// Hash-indexed DP series (recorded in BENCH_solver.json by
// bench/run_bench.sh): rel::Table rows deduplicated through rel::HashIndex
// probes, each bag's assignments walked depth-first with pruning. The
// source sweep tracks near-linear growth in #bags at fixed width; the
// target sweep exhibits the |B|^{w+1} table factor.
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
  // table_entries = bag assignments the pruned walk visited, partial ones
  // included (at most the |B|^{w+1} odometer per bag, usually far fewer);
  // table_rows = deduplicated rows the hash index actually kept.
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

// kAuto decide on G(120, deg 4.8) into K3, the engine_cyclic search
// requests: every request compiles a fresh problem, so stage 3 runs cold
// each time. The gate's width cap is 3 here (120 * 3^4 fits the 5e6
// budget), so min-fill stops at its first bag wider than 4 and the request
// goes to the search. One iteration decides all eight sources.
void BM_TreewidthAutoRoute_GnpIntoK3(benchmark::State& state) {
  constexpr size_t kSources = 8;
  constexpr size_t kVertices = 120;
  constexpr double kDegree = 4.8;
  Rng rng(4848);
  auto vocab = MakeGraphVocabulary();
  std::vector<Structure> sources;
  for (size_t i = 0; i < kSources; ++i) {
    sources.push_back(RandomGraphStructure(
        vocab, kVertices, kDegree / (kVertices - 1), rng, /*symmetric=*/true));
  }
  const Structure k3 = CliqueStructure(vocab, 3);
  const HomEngine engine;
  size_t runs = 0, capped = 0, eliminations = 0;
  for (auto _ : state) {
    for (const Structure& source : sources) {
      auto problem = HomProblem::FromStructures(source, k3);
      auto r = engine.Run(*problem, HomTask::kDecide);
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
      ++runs;
      if (r->explain.profile.width_lower_bound) {
        ++capped;
        eliminations += r->explain.profile.eliminations_done;
      }
      benchmark::DoNotOptimize(r->decided);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(runs));
  if (capped > 0) {
    // Share of requests the capped elimination refused, and its mean length.
    state.counters["capped_frac"] = static_cast<double>(capped) / runs;
    state.counters["eliminations"] = static_cast<double>(eliminations) / capped;
  }
}
BENCHMARK(BM_TreewidthAutoRoute_GnpIntoK3)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cqcs
