// E11 (Section 2's negative discussion): nonuniform tractability does not
// uniformize. CSP(K, G) — "does G contain a k-clique?" — is NP-complete
// although each slice CSP(K_k, G) is constant-time; the uniform
// backtracking cost explodes in k while each fixed-k curve stays
// polynomial in |G|. Also general CQ containment (chain-in-random) as the
// NP-complete base problem the tractable fragments carve out of.

#include <algorithm>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "api/engine.h"
#include "cq/containment.h"
#include "cq/parser.h"
#include "gen/generators.h"
#include "solver/backtracking.h"

namespace cqcs {
namespace {

void RunCliqueIntoRandomGraph(benchmark::State& state,
                              const SearchStrategy& strategy) {
  // Spears the nonuniformity: fixed target size, growing clique. The target
  // is triangle-rich but k-clique-free for larger k, so the solver must
  // exhaust the search space.
  const size_t k = static_cast<size_t>(state.range(0));
  Rng rng(31337);
  auto vocab = MakeGraphVocabulary();
  Structure clique = CliqueStructure(vocab, k);
  Structure g = RandomGraphStructure(vocab, 24, 0.5, rng, /*symmetric=*/true);
  SolveOptions options;
  options.strategy = strategy;
  SolveStats stats;
  bool found = false;
  for (auto _ : state) {
    BacktrackingSolver solver(clique, g, options);
    stats = SolveStats{};
    auto h = solver.Solve(&stats);
    found = h.has_value();
    benchmark::DoNotOptimize(h);
  }
  state.counters["nodes"] = static_cast<double>(stats.nodes);
  state.counters["backjumps"] = static_cast<double>(stats.backjumps);
  state.counters["restarts"] = static_cast<double>(stats.restarts);
  state.counters["clique_found"] = found ? 1 : 0;
}

// PR 1 baseline: MRV, lexicographic values, chronological backtracking.
void BM_CliqueIntoRandomGraph(benchmark::State& state) {
  RunCliqueIntoRandomGraph(state, SearchStrategy{});
}
// The PR 2 strategy series: each adds one lever over the baseline so the
// BENCH_solver.json trajectory shows where the node reductions come from.
void BM_CliqueIntoRandomGraph_Cbj(benchmark::State& state) {
  SearchStrategy strategy;
  strategy.backjumping = true;
  RunCliqueIntoRandomGraph(state, strategy);
}
void BM_CliqueIntoRandomGraph_CbjDomWdeg(benchmark::State& state) {
  SearchStrategy strategy;
  strategy.backjumping = true;
  strategy.var_order = VarOrder::kDomWdeg;
  strategy.val_order = ValOrder::kLeastConstraining;
  RunCliqueIntoRandomGraph(state, strategy);
}
void BM_CliqueIntoRandomGraph_CbjDomWdegRestart(benchmark::State& state) {
  SearchStrategy strategy;
  strategy.backjumping = true;
  strategy.var_order = VarOrder::kDomWdeg;
  strategy.val_order = ValOrder::kLeastConstraining;
  strategy.restarts = true;
  RunCliqueIntoRandomGraph(state, strategy);
}
BENCHMARK(BM_CliqueIntoRandomGraph)
    ->DenseRange(3, 9)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CliqueIntoRandomGraph_Cbj)
    ->DenseRange(3, 9)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CliqueIntoRandomGraph_CbjDomWdeg)
    ->DenseRange(3, 9)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CliqueIntoRandomGraph_CbjDomWdegRestart)
    ->DenseRange(3, 9)
    ->Unit(benchmark::kMillisecond);

// Work-stealing parallel scaling series (PR 3): the same refutation with
// 1/2/4/8 workers. UNSAT instances are the honest scaling measure — the
// whole tree must be exhausted whatever the decomposition, so speedup is
// pure tree-partitioning, with no first-solution racing luck. The
// `workers`/`splits`/`steals` counters land in BENCH_solver.json next to
// the nodes, and run_bench.sh records nproc alongside: on a single-core
// host this series measures the parallel machinery's overhead, not
// speedup, and the JSON context says which one you are looking at.
void RunCliqueRefutationParallel(benchmark::State& state) {
  const size_t k = 7;
  const unsigned threads = static_cast<unsigned>(state.range(0));
  Rng rng(31337);
  auto vocab = MakeGraphVocabulary();
  Structure clique = CliqueStructure(vocab, k);
  Structure g = RandomGraphStructure(vocab, 24, 0.5, rng, /*symmetric=*/true);
  SolveOptions options;
  options.num_threads = threads;
  SolveStats stats;
  bool found = false;
  for (auto _ : state) {
    BacktrackingSolver solver(clique, g, options);
    stats = SolveStats{};
    auto h = solver.Solve(&stats);
    found = h.has_value();
    benchmark::DoNotOptimize(h);
  }
  state.counters["nodes"] = static_cast<double>(stats.nodes);
  state.counters["workers"] = static_cast<double>(stats.workers);
  state.counters["splits"] = static_cast<double>(stats.splits);
  state.counters["steals"] = static_cast<double>(stats.steals);
  state.counters["clique_found"] = found ? 1 : 0;
}
BENCHMARK(RunCliqueRefutationParallel)
    ->Name("BM_CliqueRefutationParallel")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Note on the refutation series above: A = K_k has a *complete* constraint
// graph, so every conflict set contains the current decision (CBJ provably
// never jumps) and the variables are fully symmetric (MRV and dom/wdeg
// coincide). The two series below break those symmetries so the strategy
// levers can act — the instances where CBJ + dom/wdeg + LCV earn their keep.

// G(n, p) with a k-clique planted on a random vertex subset: the k-clique
// query is satisfiable, and the planted vertices carry far more incident
// edges (= CSR supports) than the background, so least-constraining-value
// ordering walks straight to the witness while lexicographic values slog
// through the background graph. Aggregated over 10 seeds per iteration.
Structure PlantedCliqueGraph(const VocabularyPtr& vocab, size_t n, double p,
                             size_t k, Rng& rng) {
  Structure background = RandomGraphStructure(vocab, n, p, rng,
                                              /*symmetric=*/true);
  std::vector<Element> verts(n);
  for (size_t i = 0; i < n; ++i) verts[i] = static_cast<Element>(i);
  for (size_t i = 0; i < n; ++i) {
    std::swap(verts[i], verts[rng.Below(n)]);
  }
  // Background edges inside the planted subset are dropped before the
  // clique edges go in: duplicate tuples would double those edges' CSR
  // support counts and hand the LCV heuristic an artificial signal.
  std::vector<uint8_t> planted(n, 0);
  for (size_t i = 0; i < k; ++i) planted[verts[i]] = 1;
  Structure g(vocab, n);
  const Relation& e = background.relation(0);
  for (uint32_t t = 0; t < e.tuple_count(); ++t) {
    std::span<const Element> tup = e.tuple(t);
    if (planted[tup[0]] && planted[tup[1]]) continue;
    g.AddTuple(0, tup);
  }
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      if (i != j) g.AddTuple(0, {verts[i], verts[j]});
    }
  }
  return g;
}

void RunPlantedCliqueRecovery(benchmark::State& state,
                              const SearchStrategy& strategy) {
  const size_t k = static_cast<size_t>(state.range(0));
  auto vocab = MakeGraphVocabulary();
  SolveOptions options;
  options.strategy = strategy;
  uint64_t nodes = 0;
  uint64_t found = 0;
  for (auto _ : state) {
    nodes = 0;
    found = 0;
    for (int seed = 0; seed < 10; ++seed) {
      Rng rng(31337 + seed);
      Structure clique = CliqueStructure(vocab, k);
      Structure g = PlantedCliqueGraph(vocab, 26, 0.5, 9, rng);
      BacktrackingSolver solver(clique, g, options);
      SolveStats stats;
      found += solver.Solve(&stats).has_value() ? 1 : 0;
      nodes += stats.nodes;
    }
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["cliques_found"] = static_cast<double>(found);
}
void BM_PlantedCliqueRecovery(benchmark::State& state) {
  RunPlantedCliqueRecovery(state, SearchStrategy{});
}
void BM_PlantedCliqueRecovery_CbjDomWdegLcv(benchmark::State& state) {
  SearchStrategy strategy;
  strategy.backjumping = true;
  strategy.var_order = VarOrder::kDomWdeg;
  strategy.val_order = ValOrder::kLeastConstraining;
  RunPlantedCliqueRecovery(state, strategy);
}
BENCHMARK(BM_PlantedCliqueRecovery)
    ->DenseRange(7, 9)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PlantedCliqueRecovery_CbjDomWdegLcv)
    ->DenseRange(7, 9)
    ->Unit(benchmark::kMillisecond);

// Satisfiable recovery with racing workers: whichever worker's subtree
// holds a planted clique wins. Super-linear speedups are possible (a
// stealer can start next to a witness the sequential order reaches late);
// so is zero speedup when the sequential heuristic walks straight there.
void RunPlantedCliqueParallel(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  auto vocab = MakeGraphVocabulary();
  SolveOptions options;
  options.num_threads = threads;
  uint64_t nodes = 0;
  uint64_t found = 0;
  for (auto _ : state) {
    nodes = 0;
    found = 0;
    for (int seed = 0; seed < 10; ++seed) {
      Rng rng(31337 + seed);
      Structure clique = CliqueStructure(vocab, 9);
      Structure g = PlantedCliqueGraph(vocab, 26, 0.5, 9, rng);
      BacktrackingSolver solver(clique, g, options);
      SolveStats stats;
      found += solver.Solve(&stats).has_value() ? 1 : 0;
      nodes += stats.nodes;
    }
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["cliques_found"] = static_cast<double>(found);
}
BENCHMARK(RunPlantedCliqueParallel)
    ->Name("BM_PlantedCliqueParallel")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Sparse random patterns into small random targets under forward checking —
// the classic FC-CBJ regime: FC leaves stale prunings whose conflicts skip
// over intervening decisions, so backjumping collapses whole bands of the
// refutation tree that chronological backtracking re-proves per sibling.
// Aggregated over 10 seeds (mostly unsatisfiable at these densities).
void RunSparseRefutation(benchmark::State& state,
                         const SearchStrategy& strategy) {
  auto vocab = MakeGraphVocabulary();
  SolveOptions options;
  options.propagation = Propagation::kForwardChecking;
  options.strategy = strategy;
  uint64_t nodes = 0;
  uint64_t backjumps = 0;
  uint64_t sat = 0;
  for (auto _ : state) {
    nodes = 0;
    backjumps = 0;
    sat = 0;
    for (int seed = 0; seed < 10; ++seed) {
      Rng rng(9100 + seed);
      Structure a =
          RandomGraphStructure(vocab, 50, 0.1, rng, /*symmetric=*/true);
      Structure b =
          RandomGraphStructure(vocab, 11, 0.26, rng, /*symmetric=*/true);
      BacktrackingSolver solver(a, b, options);
      SolveStats stats;
      sat += solver.Solve(&stats).has_value() ? 1 : 0;
      nodes += stats.nodes;
      backjumps += stats.backjumps;
    }
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["backjumps"] = static_cast<double>(backjumps);
  state.counters["sat"] = static_cast<double>(sat);
}
void BM_SparseRefutationFc(benchmark::State& state) {
  RunSparseRefutation(state, SearchStrategy{});
}
void BM_SparseRefutationFc_Cbj(benchmark::State& state) {
  SearchStrategy strategy;
  strategy.backjumping = true;
  RunSparseRefutation(state, strategy);
}
void BM_SparseRefutationFc_CbjDomWdeg(benchmark::State& state) {
  SearchStrategy strategy;
  strategy.backjumping = true;
  strategy.var_order = VarOrder::kDomWdeg;
  RunSparseRefutation(state, strategy);
}
BENCHMARK(BM_SparseRefutationFc)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SparseRefutationFc_Cbj)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SparseRefutationFc_CbjDomWdeg)->Unit(benchmark::kMillisecond);

// Cyclic queries into a sparse target: the queries outside every island on
// a serving workload with 512-element databases of degree 6. A fixed set of
// 16 queries, each a randomly oriented cycle of 3-5 atoms plus a 0-3-atom
// tail, head X0, into G(512, deg 6), on the uniform search with a count
// limit of 10^4. After X0 := v a neighbour keeps about 6 of its 512 values,
// so most revisions walk the supports of the small domain instead of
// re-checking every value's residue; `support_walks` out of `revisions`
// says how many did. Every query has a cycle cutset of one variable, so
// count and project stop at backtrack-free leaves; `leaves` counts them.
// `nodes` is summed over the set.
std::vector<HomProblem> CyclicQueriesIntoSparseGraph() {
  Rng rng(2020);
  auto vocab = MakeGraphVocabulary();
  const Structure g = RandomGraphStructure(vocab, 512, 6.0 / 511, rng,
                                           /*symmetric=*/true);
  std::vector<HomProblem> problems;
  for (int q = 0; q < 16; ++q) {
    const auto length = static_cast<uint32_t>(3 + rng.Below(3));
    const auto tail = static_cast<uint32_t>(rng.Below(4));
    std::string text = "Q(X0) :- ";
    auto atom = [&](uint32_t a, uint32_t b) {
      if (rng.Chance(0.5)) std::swap(a, b);
      if (text.back() == ')') text += ", ";
      text += "E(X" + std::to_string(a) + ", X" + std::to_string(b) + ")";
    };
    for (uint32_t v = 0; v < length; ++v) atom(v, (v + 1) % length);
    for (uint32_t v = length; v < length + tail; ++v) {
      atom(static_cast<uint32_t>(rng.Below(v)), v);
    }
    text += ".";
    problems.push_back(*HomProblem::FromQuery(*ParseQuery(text, vocab), g));
  }
  return problems;
}

void BM_CyclicQueryIntoSparseGraph(benchmark::State& state, HomTask task) {
  const std::vector<HomProblem> problems = CyclicQueriesIntoSparseGraph();
  EngineOptions options;
  options.backend = Backend::kUniform;
  options.count_limit = 10'000;
  const HomEngine engine(options);
  SolveStats stats;
  size_t answers = 0;
  for (auto _ : state) {
    stats = SolveStats{};
    answers = 0;
    for (const HomProblem& problem : problems) {
      auto r = engine.Run(problem, task);
      if (!r.ok()) {
        state.SkipWithError("engine run failed");
        return;
      }
      answers += task == HomTask::kDecide    ? (r->decided ? 1 : 0)
                 : task == HomTask::kCount ? r->count
                                           : r->rows.size();
      stats.nodes += r->stats.search.nodes;
      stats.revisions += r->stats.search.revisions;
      stats.support_walks += r->stats.search.support_walks;
      stats.leaves += r->stats.search.leaves;
      benchmark::DoNotOptimize(r);
    }
  }
  state.counters["nodes"] = static_cast<double>(stats.nodes);
  state.counters["revisions"] = static_cast<double>(stats.revisions);
  state.counters["support_walks"] = static_cast<double>(stats.support_walks);
  state.counters["leaves"] = static_cast<double>(stats.leaves);
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK_CAPTURE(BM_CyclicQueryIntoSparseGraph, decide, HomTask::kDecide)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CyclicQueryIntoSparseGraph, count, HomTask::kCount)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CyclicQueryIntoSparseGraph, project, HomTask::kProject)
    ->Unit(benchmark::kMillisecond);

// Front-door routing series (PR 4): the HomEngine's kAuto against the raw
// uniform solver, one benchmark per instance family, Arg(0) = engine-auto
// arm, Arg(1) = raw-uniform arm, Arg(2) = engine-auto with the resource
// governor armed on never-tripping budgets (60 s deadline + 1 GiB memory
// ceiling) — the 0-vs-2 delta is the pure governance overhead (poll
// strides + byte accounting) and must stay within noise (<= 2%). Each arm
// pays its full per-call cost
// (problem compilation + staged profile for auto, CspInstance build for
// uniform), so the deltas are honest end-to-end front-door numbers.
//
// Reading the series: on the Horn-target family the auto arm wins big and
// the gap grows with the source (the search must build + propagate the
// whole Boolean CSP; the Schaefer direct algorithm is a lean quadratic).
// On the acyclic family the source-size sweep shows the asymptotic
// separation directly: the hash-join Yannakakis backend stays near-linear
// in ‖A‖ while the MAC-based uniform solver — search-free on trees, but
// paying CSP compilation plus propagation over every (variable, value)
// pair — falls behind superlinearly (~2x at n=4096, ~10x at n=16384 on
// the dev box). The partial-k-tree family stays fixed-size: the DP's win
// there is table-factor-bounded, see BM_TreewidthDpIndexed_*. On the
// adversarial family routing correctly lands on the search and the auto
// arm's overhead is the profile cost — the series exists to keep it <= 5%.
void RunEngineAutoVsUniform(benchmark::State& state, const Structure& a,
                            const Structure& b) {
  const int arm = static_cast<int>(state.range(0));
  const bool use_auto = arm != 1;
  bool decided = false;
  int chosen = -1;
  for (auto _ : state) {
    if (use_auto) {
      auto problem = HomProblem::FromStructures(a, b);
      EngineOptions engine_options;
      if (arm == 2) {
        // Governed arm: budgets generous enough that no family here ever
        // trips, so the measurement is accounting cost, not degradation.
        engine_options.deadline_ms = 60'000;
        engine_options.memory_budget_bytes = size_t{1} << 30;
      }
      HomEngine engine(engine_options);
      auto r = engine.Run(*problem, HomTask::kDecide);
      decided = r.ok() && r->decided;
      chosen = r.ok() ? static_cast<int>(r->explain.chosen) : -1;
      benchmark::DoNotOptimize(r);
    } else {
      BacktrackingSolver solver(a, b);
      auto h = solver.Solve();
      decided = h.has_value();
      chosen = static_cast<int>(Backend::kUniform);
      benchmark::DoNotOptimize(h);
    }
  }
  state.counters["auto_arm"] = use_auto ? 1 : 0;
  state.counters["governed"] = arm == 2 ? 1 : 0;
  state.counters["backend"] = chosen;  // Backend enum value
  state.counters["decided"] = decided ? 1 : 0;
}

void BM_EngineAutoVsUniform_Acyclic(benchmark::State& state) {
  // Random tree source: GYO reduces it, so kAuto takes Yannakakis. The
  // source-size sweep (Arg 1) is the asymptotic-separation series: with the
  // hash-join kernel under the acyclic backend the auto arm's advantage
  // must GROW with n — the semijoin program is near-linear in ‖A‖ while
  // the uniform arm pays CSP compilation + MAC propagation over every
  // (variable, value) pair.
  const size_t n = static_cast<size_t>(state.range(1));
  Rng rng(1201);
  auto vocab = MakeGraphVocabulary();
  Structure a = StructureFromGraph(vocab, RandomTree(n, rng));
  Structure b = RandomGraphStructure(vocab, 14, 0.25, rng, /*symmetric=*/true);
  RunEngineAutoVsUniform(state, a, b);
}

void BM_EngineAutoVsUniform_PartialKTree(benchmark::State& state) {
  // Partial 2-tree source: cyclic but width-bounded, so kAuto takes the
  // treewidth DP (Theorem 5.4).
  Rng rng(1202);
  auto vocab = MakeGraphVocabulary();
  Structure a =
      StructureFromGraph(vocab, RandomPartialKTree(28, 2, 0.85, rng));
  Structure b = RandomGraphStructure(vocab, 9, 0.35, rng, /*symmetric=*/true);
  RunEngineAutoVsUniform(state, a, b);
}

void BM_EngineAutoVsUniform_HornTarget(benchmark::State& state) {
  // AND-closed Boolean target: kAuto takes the Schaefer route
  // (Theorem 3.3/3.4) while the uniform arm builds and searches the whole
  // Boolean CSP. The source-size sweep shows the gap growing: the direct
  // Horn algorithm skips constraint extraction, support indexing, and the
  // per-element search nodes entirely (~90x at n=2000 on the dev box).
  const size_t n = static_cast<size_t>(state.range(1));
  Rng rng(1203);
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("R", 3);
  Structure b = RandomClosedBooleanStructure(vocab, 3, ClosureOp::kAnd, 5, rng);
  Structure a = RandomStructure(vocab, n, 2 * n, rng);
  RunEngineAutoVsUniform(state, a, b);
}

void BM_EngineAutoVsUniform_Adversarial(benchmark::State& state) {
  // The clique refutation: every island refuses (cyclic, wide, non-Boolean
  // target), kAuto must land on the search — this series bounds the
  // front-door overhead on instances with nothing to win.
  const size_t k = static_cast<size_t>(state.range(1));
  Rng rng(31337);
  auto vocab = MakeGraphVocabulary();
  Structure clique = CliqueStructure(vocab, k);
  Structure g = RandomGraphStructure(vocab, 24, 0.5, rng, /*symmetric=*/true);
  RunEngineAutoVsUniform(state, clique, g);
}

BENCHMARK(BM_EngineAutoVsUniform_Acyclic)
    ->Args({0, 48})->Args({1, 48})->Args({2, 48})
    ->Args({0, 512})->Args({1, 512})->Args({2, 512})
    ->Args({0, 4096})->Args({1, 4096})->Args({2, 4096})
    ->Args({0, 16384})->Args({1, 16384})->Args({2, 16384})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineAutoVsUniform_PartialKTree)
    ->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineAutoVsUniform_HornTarget)
    ->Args({0, 200})->Args({1, 200})->Args({2, 200})
    ->Args({0, 2000})->Args({1, 2000})->Args({2, 2000})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineAutoVsUniform_Adversarial)
    ->Args({0, 6})->Args({1, 6})->Args({2, 6})
    ->Args({0, 7})->Args({1, 7})->Args({2, 7})
    ->Unit(benchmark::kMillisecond);

void BM_CliqueFixedK_GraphSweep(benchmark::State& state) {
  // The nonuniform slices: k fixed, |G| growing — polynomial curves.
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(999);
  auto vocab = MakeGraphVocabulary();
  Structure clique = CliqueStructure(vocab, 4);
  Structure g = RandomGraphStructure(vocab, n, 0.3, rng, /*symmetric=*/true);
  for (auto _ : state) {
    BacktrackingSolver solver(clique, g);
    benchmark::DoNotOptimize(solver.Solve());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_CliqueFixedK_GraphSweep)
    ->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oAuto);

void BM_ChainContainment(benchmark::State& state) {
  // Chain queries have treewidth 1; general containment handles them fast
  // even though the problem is NP-complete in general — the contrast that
  // motivates the width-based fragments (Section 5, [CR97]).
  const size_t len = static_cast<size_t>(state.range(0));
  auto vocab = MakeGraphVocabulary();
  ConjunctiveQuery chain = ChainQuery(vocab, len);
  ConjunctiveQuery longer = ChainQuery(vocab, len + 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsContained(chain, longer));
    benchmark::DoNotOptimize(IsContained(longer, chain));
  }
}
BENCHMARK(BM_ChainContainment)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

void BM_RandomContainment(benchmark::State& state) {
  // Random query pairs: the NP-complete general case at moderate sizes.
  const size_t vars = static_cast<size_t>(state.range(0));
  Rng rng(606 + vars);
  auto vocab = MakeGraphVocabulary();
  ConjunctiveQuery q1 = RandomQuery(vocab, vars, 2 * vars, rng);
  ConjunctiveQuery q2 = RandomQuery(vocab, vars, 2 * vars, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsContained(q1, q2));
  }
}
BENCHMARK(BM_RandomContainment)
    ->Arg(4)->Arg(8)->Arg(12)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cqcs
