// The work-stealing parallel search (src/solver/parallel.cc): stats
// merging, cancellation on the first solution, node_limit as a global
// budget across workers, the num_threads == 1 sequential regression, and
// concurrent and nested dispatch on the shared MorselPool it runs on.
//
// A structural property this suite leans on: a stolen subproblem replays
// the donor's exact decision prefix through the same propagation, so the
// stealer reaches the identical domain state and explores the identical
// subtree. Under a deterministic strategy with no conflict tracking
// (default MRV + lex values), the union of all workers' nodes is therefore
// exactly the sequential search tree — enumeration node/backtrack totals
// are thread-count invariant, not just the solution sets.

#include <algorithm>
#include <atomic>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/work_pool.h"
#include "core/homomorphism.h"
#include "core/structure.h"
#include "gen/generators.h"
#include "solver/backtracking.h"
#include "solver/csp.h"
#include "treewidth/hom_dp.h"

namespace cqcs {
namespace {

// A satisfiable instance with a large solution count and a nontrivial tree:
// 3-colorings of a sparse random graph.
Structure SparseGraph(size_t n, double p, uint64_t seed) {
  Rng rng(seed);
  return RandomGraphStructure(MakeGraphVocabulary(), n, p, rng,
                              /*symmetric=*/true);
}

TEST(SolverParallelTest, OneThreadIsExactlySequential) {
  VocabularyPtr vocab = MakeGraphVocabulary();
  Structure a = SparseGraph(12, 0.3, 77);
  Structure b = CliqueStructure(vocab, 3);

  SolveOptions sequential;  // num_threads defaults to 1
  SolveOptions one_thread;
  one_thread.num_threads = 1;

  SolveStats seq_stats, one_stats;
  BacktrackingSolver s1(a, b, sequential);
  BacktrackingSolver s2(a, b, one_thread);
  auto h1 = s1.Solve(&seq_stats);
  auto h2 = s2.Solve(&one_stats);

  ASSERT_EQ(h1.has_value(), h2.has_value());
  if (h1.has_value()) EXPECT_EQ(*h1, *h2);
  EXPECT_EQ(seq_stats.nodes, one_stats.nodes);
  EXPECT_EQ(seq_stats.backtracks, one_stats.backtracks);
  EXPECT_EQ(seq_stats.restarts, one_stats.restarts);
  // The sequential path never spins up the parallel machinery.
  EXPECT_EQ(one_stats.workers, 0u);
  EXPECT_EQ(one_stats.splits, 0u);
  EXPECT_EQ(one_stats.steals, 0u);

  EXPECT_EQ(s1.CountSolutions(), s2.CountSolutions());
}

TEST(SolverParallelTest, EnumerationNodeTotalsAreThreadCountInvariant) {
  VocabularyPtr vocab = MakeGraphVocabulary();
  Structure a = SparseGraph(13, 0.25, 4242);
  Structure b = CliqueStructure(vocab, 3);

  SolveOptions options;  // default MRV + lex: deterministic, no CBJ
  BacktrackingSolver seq(a, b, options);
  SolveStats seq_stats;
  const size_t expected = seq.CountSolutions(SIZE_MAX, &seq_stats);
  ASSERT_GT(seq_stats.nodes, 0u);

  for (unsigned threads : {2u, 4u, 8u}) {
    SolveOptions par = options;
    par.num_threads = threads;
    BacktrackingSolver solver(a, b, par);
    SolveStats stats;
    EXPECT_EQ(solver.CountSolutions(SIZE_MAX, &stats), expected);
    // Same tree, partitioned: totals match the sequential run exactly.
    EXPECT_EQ(stats.nodes, seq_stats.nodes) << threads << " threads";
    EXPECT_EQ(stats.backtracks, seq_stats.backtracks) << threads
                                                      << " threads";
    EXPECT_EQ(stats.workers, threads);
    EXPECT_FALSE(stats.limit_hit);
    // Every steal serves a split, and a split donates at least one
    // subproblem — so splits can never outnumber steals... the other way:
    // steals >= splits is not guaranteed either (donations can sit in the
    // pool when the search ends early). Sanity-bound both instead.
    EXPECT_LE(stats.splits, stats.nodes);
    EXPECT_LE(stats.steals, stats.nodes);
  }
}

TEST(SolverParallelTest, WorkIsActuallyStolen) {
  // An unsatisfiable refutation whose tree dwarfs worker startup, so idle
  // workers' split requests get observed. Scheduling on a loaded host can
  // still let one worker finish before the others wake, so retry a few
  // times — one split anywhere is the property under test.
  VocabularyPtr vocab = MakeGraphVocabulary();
  Rng rng(31337);
  Structure clique = CliqueStructure(vocab, 6);
  Structure g = RandomGraphStructure(vocab, 26, 0.45, rng, /*symmetric=*/true);

  SolveOptions options;
  options.num_threads = 4;
  SolveStats stats;
  for (int attempt = 0; attempt < 10; ++attempt) {
    BacktrackingSolver solver(clique, g, options);
    stats = SolveStats{};
    EXPECT_FALSE(solver.Solve(&stats).has_value());
    EXPECT_EQ(stats.workers, 4u);
    if (stats.splits > 0 && stats.steals > 0) break;
  }
  EXPECT_GT(stats.splits, 0u);
  EXPECT_GT(stats.steals, 0u);
}

TEST(SolverParallelTest, FirstSolutionCancelsTheFleet) {
  // Many solutions: whichever worker wins, the witness must be real and the
  // fleet must stop (the search returning at all is the termination check).
  VocabularyPtr vocab = MakeGraphVocabulary();
  Structure a = SparseGraph(16, 0.2, 1234);
  Structure b = CliqueStructure(vocab, 3);

  for (unsigned threads : {2u, 4u, 8u}) {
    SolveOptions options;
    options.num_threads = threads;
    BacktrackingSolver solver(a, b, options);
    SolveStats stats;
    auto h = solver.Solve(&stats);
    ASSERT_TRUE(h.has_value()) << threads << " threads";
    EXPECT_TRUE(IsHomomorphism(a, b, *h)) << threads << " threads";
    EXPECT_FALSE(stats.limit_hit);
    EXPECT_EQ(stats.workers, threads);
  }
}

TEST(SolverParallelTest, ForEachSolutionStopsOnCallbackFalse) {
  VocabularyPtr vocab = MakeGraphVocabulary();
  Structure a = SparseGraph(12, 0.25, 555);
  Structure b = CliqueStructure(vocab, 3);

  SolveOptions options;
  options.num_threads = 4;
  BacktrackingSolver solver(a, b, options);
  size_t seen = 0;
  const size_t delivered = solver.ForEachSolution([&](const Homomorphism& h) {
    EXPECT_TRUE(IsHomomorphism(a, b, h));
    return ++seen < 3;
  });
  // Deliveries are serialized, so the early stop is exact — no overshoot
  // from racing workers.
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(seen, 3u);
}

TEST(SolverParallelTest, NodeLimitIsAGlobalBudget) {
  // Unsatisfiable and far larger than the limit: K5 into a triangle-rich
  // but K5-free graph.
  VocabularyPtr vocab = MakeGraphVocabulary();
  Rng rng(31337);
  Structure clique = CliqueStructure(vocab, 6);
  Structure g = RandomGraphStructure(vocab, 24, 0.4, rng, /*symmetric=*/true);

  for (unsigned threads : {2u, 4u, 8u}) {
    SolveOptions options;
    options.num_threads = threads;
    options.node_limit = 200;
    BacktrackingSolver solver(clique, g, options);
    SolveStats stats;
    auto h = solver.Solve(&stats);
    EXPECT_FALSE(h.has_value());
    ASSERT_TRUE(stats.limit_hit) << threads << " threads";
    // The budget is enforced against the shared counter: the crossing
    // worker stops everyone, and each other worker can have at most one
    // node in flight past the line.
    EXPECT_GT(stats.nodes, options.node_limit);
    EXPECT_LE(stats.nodes, options.node_limit + threads);
  }
}

TEST(SolverParallelTest, ZeroMeansHardwareConcurrency) {
  // num_threads = 0 must resolve to *something* sane and solve correctly
  // whatever the host's core count is.
  VocabularyPtr vocab = MakeGraphVocabulary();
  Structure even = UndirectedCycleStructure(vocab, 8);
  Structure odd = UndirectedCycleStructure(vocab, 9);
  Structure k2 = CliqueStructure(vocab, 2);

  SolveOptions options;
  options.num_threads = 0;
  BacktrackingSolver sat(even, k2, options);
  auto h = sat.Solve();
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(IsHomomorphism(even, k2, *h));
  BacktrackingSolver unsat(odd, k2, options);
  EXPECT_FALSE(unsat.Solve().has_value());
}

TEST(SolverParallelTest, ParallelWithAllStrategyLevers) {
  // CBJ + dom/wdeg + LCV + restarts, in parallel: heuristics and conflict
  // sets are worker-local, restarts are per-worker and Solve-only; the
  // answer must still be right on both satisfiable and refuted instances.
  VocabularyPtr vocab = MakeGraphVocabulary();
  SolveOptions options;
  options.num_threads = 4;
  options.strategy.backjumping = true;
  options.strategy.var_order = VarOrder::kDomWdeg;
  options.strategy.val_order = ValOrder::kLeastConstraining;
  options.strategy.restarts = true;
  options.strategy.restart_base = 4;

  Structure odd = UndirectedCycleStructure(vocab, 11);
  Structure k2 = CliqueStructure(vocab, 2);
  BacktrackingSolver unsat(odd, k2, options);
  SolveStats stats;
  EXPECT_FALSE(unsat.Solve(&stats).has_value());
  EXPECT_FALSE(stats.limit_hit);

  Structure even = UndirectedCycleStructure(vocab, 10);
  BacktrackingSolver sat(even, k2, options);
  auto h = sat.Solve();
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(IsHomomorphism(even, k2, *h));

  // Enumeration ignores restarts (they would re-deliver solutions) but
  // keeps CBJ; counts must match the sequential run.
  SolveOptions seq = options;
  seq.num_threads = 1;
  BacktrackingSolver seq_solver(even, k2, seq);
  BacktrackingSolver par_solver(even, k2, options);
  SolveStats par_count_stats;
  EXPECT_EQ(par_solver.CountSolutions(SIZE_MAX, &par_count_stats),
            seq_solver.CountSolutions());
  EXPECT_EQ(par_count_stats.restarts, 0u);
}

TEST(SolverParallelTest, DegenerateInstances) {
  VocabularyPtr vocab = MakeGraphVocabulary();
  SolveOptions options;
  options.num_threads = 4;

  // The solver aliases its input structures (CspInstance keeps pointers),
  // so they must outlive it — locals, not temporaries.
  Structure empty(vocab, 0);
  Structure k3 = CliqueStructure(vocab, 3);
  Structure path = PathStructure(vocab, 3);

  // Empty A: exactly one (empty) homomorphism, found without any branching.
  BacktrackingSolver empty_a(empty, k3, options);
  EXPECT_EQ(empty_a.CountSolutions(), 1u);

  // Empty B with nonempty A: no assignments at all.
  BacktrackingSolver empty_b(path, empty, options);
  EXPECT_EQ(empty_b.CountSolutions(), 0u);

  // Root-refuted instance (self-loop into a loopless clique): every
  // worker's root propagation fails; nobody deadlocks on the pool.
  Structure loop(vocab, 1);
  loop.AddTuple(0, {0, 0});
  BacktrackingSolver refuted(loop, k3, options);
  SolveStats stats;
  EXPECT_FALSE(refuted.Solve(&stats).has_value());
  EXPECT_EQ(stats.nodes, 0u);
}

TEST(SolverParallelTest, ConcurrentCallersMatchTheSequentialRun) {
  // Four callers share the pool at once: at most one of them owns its
  // threads, the others run their dispatches inline. Whoever gets which,
  // every answer and every thread-invariant stat is the 1-thread run's.
  VocabularyPtr vocab = MakeGraphVocabulary();
  Structure a = SparseGraph(13, 0.25, 4242);
  Structure k3 = CliqueStructure(vocab, 3);
  const CspInstance csp(a, k3);
  SolveOptions seq_options;  // default MRV + lex: node totals are invariant
  SolveStats seq_stats;
  const size_t seq_count =
      BacktrackingSolver(&csp, seq_options).CountSolutions(SIZE_MAX,
                                                           &seq_stats);
  ASSERT_GT(seq_count, 0u);

  // A partial 2-tree into K3: its decomposition has dozens of bags, so the
  // treewidth route's bag joins span several 8-bag morsels and dispatch to
  // the pool rather than inline.
  Rng tw_rng(99);
  const Structure tw_a =
      StructureFromGraph(vocab, RandomPartialKTree(64, 2, 0.8, tw_rng));
  TreewidthSolveStats seq_tw;
  auto seq_witness = SolveBoundedTreewidth(tw_a, k3, &seq_tw);
  ASSERT_TRUE(seq_witness.ok()) << seq_witness.status().ToString();
  ASSERT_TRUE(seq_witness->has_value());
  ASSERT_GE(seq_tw.morsels, 2u);

  constexpr int kCallers = 4;
  constexpr int kRounds = 3;
  struct CallerResult {
    std::vector<size_t> counts;
    std::vector<SolveStats> stats;
    std::vector<std::optional<Homomorphism>> witnesses;
    std::vector<TreewidthSolveStats> tw;
  };
  std::vector<CallerResult> results(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      SolveOptions options;
      options.num_threads = 4;
      for (int round = 0; round < kRounds; ++round) {
        SolveStats stats;
        results[c].counts.push_back(
            BacktrackingSolver(&csp, options).CountSolutions(SIZE_MAX,
                                                             &stats));
        results[c].stats.push_back(stats);
        TreewidthSolveStats tw;
        auto witness = SolveBoundedTreewidth(tw_a, k3, &tw, nullptr, 4);
        results[c].witnesses.push_back(
            witness.ok() ? *witness : std::optional<Homomorphism>());
        results[c].tw.push_back(tw);
      }
    });
  }
  for (std::thread& t : callers) t.join();

  for (int c = 0; c < kCallers; ++c) {
    for (int round = 0; round < kRounds; ++round) {
      SCOPED_TRACE(testing::Message() << "caller " << c << " round " << round);
      const SolveStats& stats = results[c].stats[round];
      EXPECT_EQ(results[c].counts[round], seq_count);
      EXPECT_EQ(stats.nodes, seq_stats.nodes);
      EXPECT_EQ(stats.backtracks, seq_stats.backtracks);
      EXPECT_EQ(stats.workers, 4u);
      EXPECT_FALSE(stats.limit_hit);
      const TreewidthSolveStats& tw = results[c].tw[round];
      EXPECT_EQ(results[c].witnesses[round], *seq_witness);
      EXPECT_EQ(tw.table_entries, seq_tw.table_entries);
      EXPECT_EQ(tw.table_rows, seq_tw.table_rows);
      EXPECT_EQ(tw.morsels, seq_tw.morsels);
      EXPECT_EQ(tw.workers, 4u);
    }
  }
}

TEST(SolverParallelTest, NestedDispatchRunsInline) {
  // A body that dispatches again finds the pool busy and runs its morsels
  // on its own thread: the nested Run completes with the counters of a
  // sequential one, and so does a parallel search started from a body.
  MorselPool& pool = MorselPool::Shared();
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 1000;
  constexpr size_t kInnerRows = 100;
  std::atomic<size_t> inner_rows{0};
  auto inner_body = [&](unsigned, size_t begin, size_t end) {
    inner_rows.fetch_add(end - begin, std::memory_order_relaxed);
    return true;
  };
  const MorselCounters seq = pool.Run(kInner, 1, kInnerRows, inner_body);
  ASSERT_EQ(seq.morsels, kInner / kInnerRows);
  inner_rows.store(0);

  VocabularyPtr vocab = MakeGraphVocabulary();
  Structure a = SparseGraph(12, 0.25, 555);
  Structure k3 = CliqueStructure(vocab, 3);
  const CspInstance csp(a, k3);
  SolveStats seq_stats;
  const size_t seq_count =
      BacktrackingSolver(&csp).CountSolutions(SIZE_MAX, &seq_stats);

  std::vector<MorselCounters> inner(kOuter);
  std::vector<size_t> counts(kOuter);
  std::vector<SolveStats> stats(kOuter);
  const MorselCounters outer =
      pool.Run(kOuter, 4, 1, [&](unsigned, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          inner[i] = pool.Run(kInner, 4, kInnerRows, inner_body);
          SolveOptions options;
          options.num_threads = 4;
          counts[i] = BacktrackingSolver(&csp, options)
                          .CountSolutions(SIZE_MAX, &stats[i]);
        }
        return true;
      });
  EXPECT_EQ(outer.morsels, kOuter);
  EXPECT_EQ(inner_rows.load(), kOuter * kInner);
  for (size_t i = 0; i < kOuter; ++i) {
    SCOPED_TRACE(testing::Message() << "outer morsel " << i);
    EXPECT_EQ(inner[i].morsels, seq.morsels);
    EXPECT_EQ(inner[i].steals, 0u);
    EXPECT_EQ(inner[i].workers, 4u);
    EXPECT_EQ(counts[i], seq_count);
    EXPECT_EQ(stats[i].nodes, seq_stats.nodes);
    EXPECT_EQ(stats[i].workers, 4u);
    // Inline, one loop runs the whole search: nobody asks for a split.
    EXPECT_EQ(stats[i].splits, 0u);
  }
}

}  // namespace
}  // namespace cqcs
