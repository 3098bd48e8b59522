// Property checks on SolveStats invariants across random instances and
// strategies, plus the node_limit x restart interaction: restarting unwinds
// the trail, never the node accounting, and a limit hit mid-restart must
// still be reported as limit_hit.

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/structure.h"
#include "gen/generators.h"
#include "solver/backtracking.h"

namespace cqcs {
namespace {

bool OracleHasHom(const Structure& a, const Structure& b) {
  const size_t n = a.universe_size();
  const size_t d = b.universe_size();
  if (d == 0) return n == 0;
  Homomorphism h(n, 0);
  while (true) {
    bool ok = true;
    for (RelId id = 0; id < a.vocabulary()->size() && ok; ++id) {
      const Relation& ra = a.relation(id);
      const Relation& rb = b.relation(id);
      std::vector<Element> image(ra.arity());
      for (size_t t = 0; t < ra.tuple_count() && ok; ++t) {
        std::span<const Element> tup = ra.tuple(t);
        for (uint32_t p = 0; p < ra.arity(); ++p) image[p] = h[tup[p]];
        ok = rb.Contains(image);
      }
    }
    if (ok) return true;
    size_t i = 0;
    while (i < n && h[i] + 1 == d) h[i++] = 0;
    if (i == n) return false;
    ++h[i];
  }
}

std::vector<SolveOptions> RepresentativeConfigs() {
  std::vector<SolveOptions> configs;
  for (Propagation prop :
       {Propagation::kForwardChecking, Propagation::kMac}) {
    for (bool cbj : {false, true}) {
      for (bool restarts : {false, true}) {
        SolveOptions o;
        o.propagation = prop;
        o.strategy.var_order = cbj ? VarOrder::kDomWdeg : VarOrder::kMrv;
        o.strategy.val_order =
            restarts ? ValOrder::kLeastConstraining : ValOrder::kLex;
        o.strategy.backjumping = cbj;
        o.strategy.restarts = restarts;
        o.strategy.restart_base = 2;
        configs.push_back(o);
      }
    }
  }
  return configs;
}

void CheckInvariants(const SolveOptions& options, const SolveStats& stats,
                     size_t var_count) {
  EXPECT_LE(stats.backtracks, stats.nodes);
  EXPECT_LE(stats.support_walks, stats.revisions);
  EXPECT_LE(stats.leaves, stats.nodes);
  EXPECT_LE(stats.longest_backjump, stats.backjumps);
  EXPECT_LE(stats.max_conflict_set, var_count);
  if (!options.strategy.backjumping) {
    EXPECT_EQ(stats.backjumps, 0u);
    EXPECT_EQ(stats.longest_backjump, 0u);
    EXPECT_EQ(stats.max_conflict_set, 0u);
  }
  if (!options.strategy.restarts) EXPECT_EQ(stats.restarts, 0u);
  if (options.node_limit == 0) {
    EXPECT_FALSE(stats.limit_hit);
  } else if (stats.limit_hit) {
    EXPECT_GT(stats.nodes, options.node_limit);
  } else {
    EXPECT_LE(stats.nodes, options.node_limit);
  }
}

TEST(SolverStatsTest, InvariantsOnRandomInstances) {
  VocabularyPtr vocab = MakeGraphVocabulary();
  Rng rng(0x57a75ULL);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 1 + rng.Below(5);
    const size_t m = 1 + rng.Below(4);
    Structure a = RandomGraphStructure(vocab, n, 0.5, rng, /*symmetric=*/false);
    Structure b = RandomGraphStructure(vocab, m, 0.5, rng, /*symmetric=*/false);
    const bool oracle = OracleHasHom(a, b);
    for (SolveOptions options : RepresentativeConfigs()) {
      BacktrackingSolver solver(a, b, options);
      SolveStats stats;
      auto h = solver.Solve(&stats);
      CheckInvariants(options, stats, a.universe_size());
      // Without a node limit the answer is definitive.
      EXPECT_EQ(h.has_value(), oracle);

      // Enumeration entry points never restart (a restarted run would
      // re-deliver solutions), whatever the strategy says.
      SolveStats count_stats;
      solver.CountSolutions(SIZE_MAX, &count_stats);
      EXPECT_EQ(count_stats.restarts, 0u);
      CheckInvariants(options, count_stats, a.universe_size());
    }
  }
}

TEST(SolverStatsTest, LimitHitMeansUnknown) {
  VocabularyPtr vocab = MakeGraphVocabulary();
  Rng rng(424242);
  int limit_hits = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 2 + rng.Below(4);
    Structure a = RandomGraphStructure(vocab, n, 0.6, rng, /*symmetric=*/true);
    Structure b = RandomGraphStructure(vocab, 3, 0.5, rng, /*symmetric=*/true);
    const bool oracle = OracleHasHom(a, b);
    for (SolveOptions options : RepresentativeConfigs()) {
      options.node_limit = 1 + rng.Below(6);
      BacktrackingSolver solver(a, b, options);
      SolveStats stats;
      auto h = solver.Solve(&stats);
      CheckInvariants(options, stats, a.universe_size());
      // A found witness is always real, limit or not; limit_hit and a
      // witness are mutually exclusive (the search stops at either).
      if (h.has_value()) {
        EXPECT_TRUE(oracle);
        EXPECT_FALSE(stats.limit_hit);
      }
      // Only a clean exhaustion proves absence.
      if (!h.has_value() && !stats.limit_hit) EXPECT_FALSE(oracle);
      if (stats.limit_hit) ++limit_hits;
    }
  }
  // The limits above are tight enough that the "unknown" branch is
  // genuinely exercised.
  EXPECT_GT(limit_hits, 0);
}

// The node_limit x restart interaction (the latent bug this PR fixes by
// construction): the node counter is cumulative across restarts, so a tiny
// Luby base cannot launder the limit, and a limit hit between restarts is
// reported.
TEST(SolverStatsTest, RestartDoesNotResetNodeCounter) {
  VocabularyPtr vocab = MakeGraphVocabulary();
  // Odd cycle into K2: unsatisfiable with a search tree far above the
  // limit, and root-GAC-consistent so the search actually runs.
  Structure a = UndirectedCycleStructure(vocab, 9);
  Structure b = CliqueStructure(vocab, 2);

  SolveOptions options;
  options.propagation = Propagation::kForwardChecking;
  options.strategy.var_order = VarOrder::kLex;
  options.strategy.restarts = true;
  options.strategy.restart_base = 1;  // restart every few nodes
  options.node_limit = 30;

  BacktrackingSolver solver(a, b, options);
  SolveStats stats;
  EXPECT_FALSE(solver.Solve(&stats).has_value());
  EXPECT_TRUE(stats.limit_hit);
  // Counted every node across all runs: stopped exactly one past the limit.
  EXPECT_EQ(stats.nodes, options.node_limit + 1);
  // With cutoffs 1,1,2,... the limit was necessarily hit mid-restart.
  EXPECT_GE(stats.restarts, 1u);
}

TEST(SolverStatsTest, RestartedSearchTerminatesAndAgrees) {
  VocabularyPtr vocab = MakeGraphVocabulary();
  SolveOptions options;
  options.strategy.restarts = true;
  options.strategy.restart_base = 1;
  options.strategy.var_order = VarOrder::kDomWdeg;  // decayed on restart

  // Unsatisfiable: the Luby cutoffs grow until one run exhausts the tree.
  Structure odd = UndirectedCycleStructure(vocab, 7);
  Structure k2 = CliqueStructure(vocab, 2);
  SolveStats unsat_stats;
  BacktrackingSolver unsat(odd, k2, options);
  EXPECT_FALSE(unsat.Solve(&unsat_stats).has_value());
  EXPECT_FALSE(unsat_stats.limit_hit);
  EXPECT_GE(unsat_stats.restarts, 1u);

  // Satisfiable: restarts still find the witness.
  Structure even = UndirectedCycleStructure(vocab, 8);
  SolveStats sat_stats;
  BacktrackingSolver sat(even, k2, options);
  EXPECT_TRUE(sat.Solve(&sat_stats).has_value());
  EXPECT_FALSE(sat_stats.limit_hit);
}

// Which revise ran: a cycle into a sparse 512-element graph walks the
// supports of the assigned variable's small domain, while K3 coloring keeps
// the residue checks (its domains never get small enough relative to the
// tuples that support them). The parallel search sums its workers' counts.
TEST(SolverStatsTest, SupportWalksRunOnSparseTargetsOnly) {
  VocabularyPtr vocab = MakeGraphVocabulary();
  Rng rng(0x5a1c);
  Structure cycle = UndirectedCycleStructure(vocab, 5);
  Structure sparse =
      RandomGraphStructure(vocab, 512, 6.0 / 511, rng, /*symmetric=*/true);
  for (unsigned threads : {1u, 2u}) {
    SolveOptions options;
    options.num_threads = threads;
    BacktrackingSolver solver(cycle, sparse, options);
    SolveStats stats;
    solver.CountSolutions(1000, &stats);
    EXPECT_GT(stats.support_walks, 0u) << threads << " threads";
    EXPECT_LE(stats.support_walks, stats.revisions);
  }

  Structure graph =
      RandomGraphStructure(vocab, 120, 4.8 / 119, rng, /*symmetric=*/true);
  Structure k3 = CliqueStructure(vocab, 3);
  BacktrackingSolver coloring(graph, k3);
  SolveStats stats;
  coloring.Solve(&stats);
  EXPECT_GT(stats.revisions, 0u);
  EXPECT_EQ(stats.support_walks, 0u);
}

}  // namespace
}  // namespace cqcs
