// E3 (Theorems 3.3 vs 3.4): the two uniform algorithms for Schaefer
// targets. The paper's claim: the formula-building route costs an extra
// factor (|δ_R| = O(k²) makes it cubic overall) while the direct algorithms
// run in O(‖A‖·‖B‖); both beat generic backtracking and never blow up.
//
// Series (a): ‖A‖ sweep at fixed small arity — both routes scale near-
// linearly in ‖A‖, backtracking is the baseline.
// Series (b): arity sweep with |R| fixed — the bijunctive formula route
// pays the k² clauses per grounded tuple, the direct route pays k·|R|.

#include <benchmark/benchmark.h>

#include "gen/generators.h"
#include "schaefer/direct.h"
#include "schaefer/uniform.h"
#include "solver/backtracking.h"

namespace cqcs {
namespace {

struct Instance {
  Structure a;
  Structure b;
};

Instance MakeInstance(uint32_t arity, ClosureOp op, size_t n, size_t tuples,
                      uint64_t seed) {
  Rng rng(seed);
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("R", arity);
  // Force position 0 to 1 and position 1 to 0 in every tuple: the closure
  // under any of the four operations preserves both, so the target is never
  // 0-valid or 1-valid — otherwise the dispatcher would answer with the
  // constant map and the benchmark would measure nothing (Theorem 3.3's
  // trivial-case shortcut).
  BooleanRelation r(arity);
  const uint64_t keep = r.FullMask() & ~0b10ULL;
  for (int i = 0; i < 4; ++i) r.Add((rng.Next() | 1ULL) & keep);
  CloseUnder(r, op);
  Structure b(vocab, 2);
  Relation packed = r.ToRelation();
  for (uint32_t t = 0; t < packed.tuple_count(); ++t) {
    b.AddTuple(0, packed.tuple(t));
  }
  Structure a = RandomStructure(vocab, n, tuples, rng);
  return Instance{std::move(a), std::move(b)};
}

void RunSchaefer(benchmark::State& state, ClosureOp op,
                 SchaeferAlgorithm algorithm) {
  const size_t n = static_cast<size_t>(state.range(0));
  Instance inst = MakeInstance(3, op, n, 4 * n, 42);
  bool found = false;
  for (auto _ : state) {
    auto h = SolveSchaefer(inst.a, inst.b, algorithm);
    found = h.ok() && h->has_value();
    benchmark::DoNotOptimize(h);
  }
  state.counters["size_a"] = static_cast<double>(inst.a.Size());
  state.counters["size_b"] = static_cast<double>(inst.b.Size());
  state.counters["hom"] = found ? 1 : 0;
  state.SetComplexityN(static_cast<int64_t>(inst.a.Size()));
}

void BM_Horn_Formula(benchmark::State& state) {
  RunSchaefer(state, ClosureOp::kAnd, SchaeferAlgorithm::kFormula);
}
void BM_Horn_Direct(benchmark::State& state) {
  RunSchaefer(state, ClosureOp::kAnd, SchaeferAlgorithm::kDirect);
}
void BM_Bijunctive_Formula(benchmark::State& state) {
  RunSchaefer(state, ClosureOp::kMajority, SchaeferAlgorithm::kFormula);
}
void BM_Bijunctive_Direct(benchmark::State& state) {
  RunSchaefer(state, ClosureOp::kMajority, SchaeferAlgorithm::kDirect);
}
void BM_Affine_Equations(benchmark::State& state) {
  RunSchaefer(state, ClosureOp::kXorTriples, SchaeferAlgorithm::kDirect);
}
void BM_Horn_Backtracking(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Instance inst = MakeInstance(3, ClosureOp::kAnd, n, 4 * n, 42);
  SolveStats stats;
  for (auto _ : state) {
    BacktrackingSolver solver(inst.a, inst.b);
    stats = SolveStats{};
    benchmark::DoNotOptimize(solver.Solve(&stats));
  }
  state.counters["nodes"] = static_cast<double>(stats.nodes);
  state.SetComplexityN(static_cast<int64_t>(inst.a.Size()));
}

// Pure search throughput: one solver reused across iterations (instance
// construction amortized away), an underconstrained 3-ary Boolean target so
// the enumeration walks a large tree. The ns/node counter is the solver
// core's hot-path cost — the number the trail/support-index architecture
// targets. ForEachSolution rather than CountSolutions: a count stops at
// backtrack-free leaves wherever the source has a small cycle cutset (the
// 32-element source does), and would no longer walk the tree.
void RunNodeThroughput(benchmark::State& state,
                       const SearchStrategy& strategy) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2718);
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("R", 3);
  Structure b(vocab, 2);
  // Odd parity: 4 of 8 triples — satisfiable everywhere, dense enough to
  // propagate, loose enough that the count explodes past any n.
  for (Element x = 0; x < 2; ++x) {
    for (Element y = 0; y < 2; ++y) {
      b.AddTuple(0, {x, y, static_cast<Element>(1 ^ x ^ y)});
    }
  }
  Structure a = RandomStructure(vocab, n, n / 2, rng);
  SolveOptions options;
  options.strategy = strategy;
  BacktrackingSolver solver(a, b, options);
  SolveStats stats;
  uint64_t total_nodes = 0;
  size_t count = 0;
  for (auto _ : state) {
    stats = SolveStats{};
    count = 0;
    solver.ForEachSolution(
        [&count](const Homomorphism&) { return ++count < 100000; }, &stats);
    total_nodes += stats.nodes;
    benchmark::DoNotOptimize(count);
  }
  state.counters["nodes"] = static_cast<double>(stats.nodes);
  state.counters["solutions"] = static_cast<double>(count);
  // kIsRate|kInvert yields seconds per counter unit; scaling the node count
  // by 1e-9 makes the reported value (and the JSON field) nanoseconds/node.
  state.counters["ns_per_node"] = benchmark::Counter(
      static_cast<double>(total_nodes) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
void BM_Backtracking_NodeThroughput(benchmark::State& state) {
  RunNodeThroughput(state, SearchStrategy{});
}
// Same tree walked with conflict tracking on: the delta against the series
// above is CBJ's per-node bookkeeping cost (the acceptance bar is "no
// ns/node regression" for the default path, bounded overhead here).
void BM_Backtracking_NodeThroughput_Cbj(benchmark::State& state) {
  SearchStrategy strategy;
  strategy.backjumping = true;
  RunNodeThroughput(state, strategy);
}
BENCHMARK(BM_Backtracking_NodeThroughput)
    ->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime();
BENCHMARK(BM_Backtracking_NodeThroughput_Cbj)
    ->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime();

#define SIZE_SWEEP \
  RangeMultiplier(2)->Range(32, 2048)->Unit(benchmark::kMicrosecond)->Complexity()
BENCHMARK(BM_Horn_Formula)->SIZE_SWEEP;
BENCHMARK(BM_Horn_Direct)->SIZE_SWEEP;
BENCHMARK(BM_Bijunctive_Formula)->SIZE_SWEEP;
BENCHMARK(BM_Bijunctive_Direct)->SIZE_SWEEP;
BENCHMARK(BM_Affine_Equations)->SIZE_SWEEP;
BENCHMARK(BM_Horn_Backtracking)->SIZE_SWEEP;
#undef SIZE_SWEEP

// Series (b): arity sweep, cardinality-2 relations (always bijunctive).
void ArityInstance(uint32_t arity, size_t n, Instance* out) {
  Rng rng(1000 + arity);
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("R", arity);
  BooleanRelation r(arity);
  r.Add(rng.Next() & r.FullMask());
  r.Add(rng.Next() & r.FullMask());
  Structure b(vocab, 2);
  Relation packed = r.ToRelation();
  for (uint32_t t = 0; t < packed.tuple_count(); ++t) {
    b.AddTuple(0, packed.tuple(t));
  }
  Structure a = RandomStructure(vocab, n, 64, rng);
  *out = Instance{std::move(a), std::move(b)};
}

void BM_ArityFormula(benchmark::State& state) {
  Instance inst{Structure(MakeGraphVocabulary(), 0),
                Structure(MakeGraphVocabulary(), 0)};
  ArityInstance(static_cast<uint32_t>(state.range(0)), 64, &inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SolveSchaefer(inst.a, inst.b, SchaeferAlgorithm::kFormula));
  }
}
void BM_ArityDirect(benchmark::State& state) {
  Instance inst{Structure(MakeGraphVocabulary(), 0),
                Structure(MakeGraphVocabulary(), 0)};
  ArityInstance(static_cast<uint32_t>(state.range(0)), 64, &inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SolveSchaefer(inst.a, inst.b, SchaeferAlgorithm::kDirect));
  }
}
BENCHMARK(BM_ArityFormula)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(48)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ArityDirect)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(48)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cqcs
