// Brute-force cross-check of the backtrack-free leaf rule (docs/solver.md,
// "Backtrack-free leaves").
//
// Under MAC, decide, count and project branch on a cycle cutset first
// (CspInstance::cycle_cutset) and stop at the node where it is assigned: the
// rest is a Berge-acyclic forest at GAC, so every value left extends to a
// solution, and count adds the residual forest's sum-product count
// (YannakakisProgram::FromDomains). This suite builds sources whose greedy
// cutset has a known size (0, 1 or 2) plus tails, over binary and ternary
// scopes, including the two-scopes-share-two-variables trap, and checks
// every answer against exhaustive enumeration, at 1, 2 and 8 threads, and
// that a governor trip inside a leaf's residual count ends the count.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "common/governor.h"
#include "common/rng.h"
#include "core/structure.h"
#include "gen/generators.h"
#include "solver/backtracking.h"

namespace cqcs {
namespace {

constexpr RelId kE = 0;
constexpr RelId kT = 1;
constexpr RelId kP = 2;

VocabularyPtr LeafVocabulary() {
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("E", 2);
  vocab->AddRelation("T", 3);
  vocab->AddRelation("P", 1);
  return vocab;
}

std::vector<Homomorphism> ReferenceSolutions(const Structure& a,
                                             const Structure& b) {
  std::vector<Homomorphism> solutions;
  const size_t n = a.universe_size();
  const size_t d = b.universe_size();
  Homomorphism h(n, 0);
  while (true) {
    bool ok = true;
    for (RelId id = 0; id < a.vocabulary()->size() && ok; ++id) {
      const Relation& ra = a.relation(id);
      std::vector<Element> image(ra.arity());
      for (size_t t = 0; t < ra.tuple_count() && ok; ++t) {
        std::span<const Element> tup = ra.tuple(t);
        for (uint32_t p = 0; p < ra.arity(); ++p) image[p] = h[tup[p]];
        ok = b.relation(id).Contains(image);
      }
    }
    if (ok) solutions.push_back(h);
    size_t i = 0;
    while (i < n && h[i] + 1 == d) h[i++] = 0;
    if (i == n) return solutions;
    ++h[i];
  }
}

/// A source whose greedy cutset has `cutset` variables.
struct Source {
  Structure a;
  size_t cutset;
  const char* shape;
};

/// Adds E(u, v) in a random orientation.
void AddEdge(Structure* a, Element u, Element v, Rng& rng) {
  if (rng.Chance(0.5)) std::swap(u, v);
  a->AddTuple(kE, {u, v});
}

/// `k` tail variables from `first` on, each hanging off an earlier
/// variable by a binary or a ternary scope (the ternary one brings a second
/// fresh variable).
Element AddTails(Structure* a, Element first, size_t k, Rng& rng) {
  Element next = first;
  for (size_t i = 0; i < k; ++i) {
    const auto anchor = static_cast<Element>(rng.Below(next));
    if (rng.Chance(0.3) && next + 1 < a->universe_size()) {
      a->AddTuple(kT, {anchor, next, static_cast<Element>(next + 1)});
      next += 2;
    } else {
      AddEdge(a, anchor, next, rng);
      next += 1;
    }
    if (next >= a->universe_size()) break;
  }
  return next;
}

Source MakeSource(const VocabularyPtr& vocab, int kind, Rng& rng) {
  constexpr size_t kVars = 7;
  Structure a(vocab, kVars);
  switch (kind) {
    case 0: {  // a tree of binary and ternary scopes
      a.AddTuple(kT, {0, 1, 2});
      AddTails(&a, 3, kVars, rng);
      return {std::move(a), 0, "tree"};
    }
    case 1: {  // one cycle of 3 or 4 binary scopes, plus tails
      const Element len = rng.Chance(0.5) ? 3 : 4;
      for (Element v = 0; v < len; ++v) AddEdge(&a, v, (v + 1) % len, rng);
      AddTails(&a, len, kVars, rng);
      return {std::move(a), 1, "cycle"};
    }
    case 2: {  // two triangles joined by a bridge, plus a tail
      for (Element v = 0; v < 3; ++v) AddEdge(&a, v, (v + 1) % 3, rng);
      for (Element v = 0; v < 3; ++v) AddEdge(&a, 3 + v, 3 + (v + 1) % 3, rng);
      AddEdge(&a, 2, 3, rng);
      AddTails(&a, 6, kVars, rng);
      return {std::move(a), 2, "two cycles"};
    }
    case 3: {  // E(x, y) and E(y, x): two scopes share two variables
      a.AddTuple(kE, {0, 1});
      a.AddTuple(kE, {1, 0});
      AddTails(&a, 2, kVars, rng);
      return {std::move(a), 1, "shared pair"};
    }
    case 4: {  // T(x, y, z) and E(x, y): the same trap across arities
      a.AddTuple(kT, {0, 1, 2});
      AddEdge(&a, 0, 1, rng);
      AddTails(&a, 3, kVars, rng);
      return {std::move(a), 1, "ternary shared pair"};
    }
    case 5: {  // the shared pair plus a triangle: the leaf needs both cut
      a.AddTuple(kE, {0, 1});
      a.AddTuple(kE, {1, 0});
      for (Element v = 0; v < 3; ++v) AddEdge(&a, 2 + v, 2 + (v + 1) % 3, rng);
      AddTails(&a, 5, kVars, rng);
      return {std::move(a), 2, "shared pair and cycle"};
    }
    default: {  // a cycle through a ternary scope, plus tails
      a.AddTuple(kT, {0, 1, 2});
      AddEdge(&a, 2, 3, rng);
      AddEdge(&a, 3, 0, rng);
      AddTails(&a, 4, kVars, rng);
      return {std::move(a), 1, "ternary cycle"};
    }
  }
}

/// A random target over `d` elements: E about half the pairs (directed, so
/// E and its reverse disagree), T a third of the triples, P every element.
Structure MakeTarget(const VocabularyPtr& vocab, size_t d, Rng& rng) {
  Structure b(vocab, d);
  for (Element x = 0; x < d; ++x) {
    b.AddTuple(kP, {x});
    for (Element y = 0; y < d; ++y) {
      if (rng.Chance(0.5)) b.AddTuple(kE, {x, y});
      for (Element z = 0; z < d; ++z) {
        if (rng.Chance(0.33)) b.AddTuple(kT, {x, y, z});
      }
    }
  }
  return b;
}

std::set<std::vector<Element>> Projections(
    const std::vector<Homomorphism>& solutions,
    const std::vector<Element>& head) {
  std::set<std::vector<Element>> rows;
  for (const Homomorphism& h : solutions) {
    std::vector<Element> row;
    for (Element v : head) row.push_back(h[v]);
    rows.insert(row);
  }
  return rows;
}

std::vector<SolveOptions> MacConfigs() {
  std::vector<SolveOptions> configs(3);
  configs[1].strategy.var_order = VarOrder::kDomWdeg;
  configs[1].strategy.backjumping = true;
  configs[2].strategy.val_order = ValOrder::kLeastConstraining;
  configs[2].strategy.restarts = true;
  configs[2].strategy.restart_base = 2;
  return configs;
}

void CheckLeaves(const Structure& a, const Structure& b, size_t cutset,
                 Rng& rng, uint64_t* total_leaves) {
  const std::vector<Homomorphism> ref = ReferenceSolutions(a, b);
  std::vector<Element> head = {static_cast<Element>(rng.Below(3))};
  if (rng.Chance(0.5)) head.push_back(static_cast<Element>(a.universe_size() - 1));
  const std::set<std::vector<Element>> ref_rows = Projections(ref, head);

  const CspInstance csp(a, b);
  ASSERT_TRUE(csp.cycle_cutset().has_value());
  EXPECT_EQ(csp.cycle_cutset()->size(), cutset);
  const CspInstance csp_head(a, b, head);
  ASSERT_TRUE(csp_head.cycle_cutset().has_value());

  for (const SolveOptions& base : MacConfigs()) {
    SolveStats decide_stats;
    EXPECT_EQ(BacktrackingSolver(&csp, base).Decide(&decide_stats),
              !ref.empty());
    EXPECT_LE(decide_stats.leaves, decide_stats.nodes);
    EXPECT_EQ(decide_stats.cutset, cutset);
    *total_leaves += decide_stats.leaves;

    for (size_t limit : {size_t{1}, size_t{7}, ref.size(), SIZE_MAX}) {
      if (limit == 0) continue;
      SolveStats stats;
      EXPECT_EQ(BacktrackingSolver(&csp, base).CountSolutions(limit, &stats),
                std::min(ref.size(), limit))
          << "limit " << limit;
      EXPECT_LE(stats.leaves, stats.nodes);
      if (cutset > 0 && !ref.empty()) EXPECT_GT(stats.leaves, 0u);
    }

    for (const CspInstance* instance : {&csp, &csp_head}) {
      SolveStats stats;
      auto rows =
          BacktrackingSolver(instance, base).EnumerateProjections(head,
                                                                  SIZE_MAX,
                                                                  &stats);
      EXPECT_EQ(std::set<std::vector<Element>>(rows.begin(), rows.end()),
                ref_rows);
      EXPECT_EQ(rows.size(), ref_rows.size());  // no duplicates
      EXPECT_LE(stats.leaves, stats.nodes);
      if (!ref.empty()) EXPECT_GT(stats.leaves, 0u);
      *total_leaves += stats.leaves;
    }
  }

  // Forward checking never takes a leaf: it does not hold GAC.
  SolveOptions fc;
  fc.propagation = Propagation::kForwardChecking;
  SolveStats fc_stats;
  EXPECT_EQ(BacktrackingSolver(&csp, fc).CountSolutions(SIZE_MAX, &fc_stats),
            ref.size());
  EXPECT_EQ(fc_stats.leaves, 0u);
  EXPECT_EQ(fc_stats.cutset, 0u);

  // Thread-count invariance: the same tree, partitioned among workers.
  SolveStats seq_count, seq_project;
  const size_t count =
      BacktrackingSolver(&csp).CountSolutions(SIZE_MAX, &seq_count);
  BacktrackingSolver(&csp_head).EnumerateProjections(head, SIZE_MAX,
                                                     &seq_project);
  for (unsigned threads : {2u, 8u}) {
    SolveOptions par;
    par.num_threads = threads;
    SolveStats stats;
    EXPECT_EQ(BacktrackingSolver(&csp, par).CountSolutions(SIZE_MAX, &stats),
              count);
    EXPECT_EQ(stats.nodes, seq_count.nodes) << threads << " threads";
    EXPECT_EQ(stats.leaves, seq_count.leaves) << threads << " threads";
    EXPECT_EQ(stats.cutset, seq_count.cutset);
    for (size_t limit : {size_t{1}, size_t{7}}) {
      EXPECT_EQ(BacktrackingSolver(&csp, par).CountSolutions(limit),
                std::min(ref.size(), limit));
    }
    EXPECT_EQ(BacktrackingSolver(&csp, par).Decide(), !ref.empty());
    SolveStats project_stats;
    auto rows = BacktrackingSolver(&csp_head, par)
                    .EnumerateProjections(head, SIZE_MAX, &project_stats);
    EXPECT_EQ(std::set<std::vector<Element>>(rows.begin(), rows.end()),
              ref_rows);
    EXPECT_EQ(project_stats.nodes, seq_project.nodes)
        << threads << " threads";
  }
}

TEST(SolverLeavesTest, CrossCheckAgainstBruteForce) {
  const VocabularyPtr vocab = LeafVocabulary();
  Rng rng(0x1eaf5);
  uint64_t total_leaves = 0;
  for (int trial = 0; trial < 70; ++trial) {
    Source source = MakeSource(vocab, trial % 7, rng);
    const size_t d = 3 + rng.Below(2);
    Structure b = MakeTarget(vocab, d, rng);
    SCOPED_TRACE(testing::Message() << "trial " << trial << " ("
                                    << source.shape << ", |B| = " << d << ")");
    CheckLeaves(source.a, b, source.cutset, rng, &total_leaves);
  }
  EXPECT_GT(total_leaves, 0u);
}

TEST(SolverLeavesTest, SharedPairIsNotAForest) {
  // E(x0, x1) and E(x1, x0) into a directed triangle: each scope alone is
  // GAC with every value left, yet no edge runs both ways, so no
  // homomorphism exists. The pair is α-acyclic but not Berge-acyclic; a
  // leaf below it would answer yes.
  const VocabularyPtr vocab = LeafVocabulary();
  Structure c3(vocab, 4);
  for (Element v = 0; v < 3; ++v) c3.AddTuple(kE, {v, (v + 1) % 3});
  for (Element v = 0; v < 3; ++v) c3.AddTuple(kE, {3, v});

  // Decide: a directed triangle, which maps fine, plus the pair. The
  // triangle comes first, so a cutset that only had to break it would be
  // {x0} and leave the pair below the leaves.
  Structure a(vocab, 5);
  for (Element v = 0; v < 3; ++v) a.AddTuple(kE, {v, (v + 1) % 3});
  a.AddTuple(kE, {3, 4});
  a.AddTuple(kE, {4, 3});
  ASSERT_TRUE(ReferenceSolutions(a, c3).empty());
  const CspInstance csp(a, c3);
  ASSERT_TRUE(csp.cycle_cutset().has_value());
  EXPECT_EQ(csp.cycle_cutset()->size(), 2u);
  EXPECT_FALSE(BacktrackingSolver(&csp).Decide());
  EXPECT_EQ(BacktrackingSolver(&csp).CountSolutions(), 0u);

  // Project: the pair plus E(x2, x1), head x2. Only x2 = 3 reaches x1, and
  // leaves x1 three values.
  Structure b(vocab, 3);
  b.AddTuple(kE, {0, 1});
  b.AddTuple(kE, {1, 0});
  b.AddTuple(kE, {2, 1});
  ASSERT_TRUE(ReferenceSolutions(b, c3).empty());
  const std::vector<Element> head = {2};
  for (const CspInstance& instance :
       {CspInstance(b, c3), CspInstance(b, c3, head)}) {
    SolveStats stats;
    EXPECT_TRUE(BacktrackingSolver(&instance)
                    .EnumerateProjections(head, SIZE_MAX, &stats)
                    .empty());
    EXPECT_EQ(stats.cutset, 1u);
  }
}

TEST(SolverLeavesTest, ConditioningIdentity) {
  // count(Q) = Σ_v count(Q[x := v]): pin x with a unary marker P(x) and a
  // target whose P holds one value. Both sides take leaves, and the plain
  // enumeration (no leaves) is the third witness.
  const VocabularyPtr vocab = LeafVocabulary();
  constexpr size_t kUniverse = 12;
  Rng rng(0xc0d1);
  int nonzero = 0;
  for (int trial = 0; trial < 12; ++trial) {
    Structure a(vocab, 8);
    const Element len = 3 + static_cast<Element>(rng.Below(3));
    for (Element v = 0; v < len; ++v) AddEdge(&a, v, (v + 1) % len, rng);
    AddTails(&a, len, 8, rng);
    const auto x = static_cast<Element>(rng.Below(8));
    a.AddTuple(kP, {x});
    Structure g = RandomGraphStructure(vocab, kUniverse, 0.3, rng,
                                       /*symmetric=*/false);
    // RandomGraphStructure fills relation 0 (E); give P every element and
    // T a sparse random set for the ternary tails.
    for (Element v = 0; v < kUniverse; ++v) g.AddTuple(kP, {v});
    for (int t = 0; t < 300; ++t) {
      g.AddTuple(kT, {static_cast<Element>(rng.Below(kUniverse)),
                      static_cast<Element>(rng.Below(kUniverse)),
                      static_cast<Element>(rng.Below(kUniverse))});
    }
    SolveStats stats;
    const size_t total = BacktrackingSolver(a, g).CountSolutions(SIZE_MAX,
                                                                  &stats);
    EXPECT_GT(stats.leaves, 0u);
    size_t enumerated = 0;
    BacktrackingSolver(a, g).ForEachSolution([&](const Homomorphism&) {
      ++enumerated;
      return true;
    });
    EXPECT_EQ(total, enumerated);
    size_t conditioned = 0;
    for (Element v = 0; v < kUniverse; ++v) {
      Structure pinned(vocab, kUniverse);
      for (size_t t = 0; t < g.relation(kE).tuple_count(); ++t) {
        std::span<const Element> e = g.relation(kE).tuple(t);
        pinned.AddTuple(kE, {e[0], e[1]});
      }
      for (size_t t = 0; t < g.relation(kT).tuple_count(); ++t) {
        std::span<const Element> e = g.relation(kT).tuple(t);
        pinned.AddTuple(kT, {e[0], e[1], e[2]});
      }
      pinned.AddTuple(kP, {v});
      conditioned += BacktrackingSolver(a, pinned).CountSolutions();
    }
    EXPECT_EQ(total, conditioned) << "trial " << trial;
    if (total > 0) ++nonzero;
  }
  EXPECT_GE(nonzero, 6);
}

TEST(SolverLeavesTest, ColoringPastTheCapSearchesAsBefore) {
  // K3 colorings of G(120, 4.8) need a cutset of dozens of variables, far
  // past CspInstance::kMaxCutset: the rule stays off, and decide and count
  // walk exactly the tree Solve and ForEachSolution walk.
  VocabularyPtr vocab = MakeGraphVocabulary();
  Rng rng(120);
  Structure g = RandomGraphStructure(vocab, 120, 4.8 / 119, rng,
                                     /*symmetric=*/true);
  Structure k3 = CliqueStructure(vocab, 3);
  const CspInstance csp(g, k3);
  EXPECT_FALSE(csp.cycle_cutset().has_value());
  SolveStats decide, solve;
  const bool decided = BacktrackingSolver(&csp).Decide(&decide);
  EXPECT_EQ(decided, BacktrackingSolver(&csp).Solve(&solve).has_value());
  EXPECT_EQ(decide.nodes, solve.nodes);
  EXPECT_EQ(decide.leaves, 0u);
  EXPECT_EQ(decide.cutset, 0u);
  SolveStats count, each;
  const size_t counted = BacktrackingSolver(&csp).CountSolutions(500, &count);
  size_t seen = 0;
  BacktrackingSolver(&csp).ForEachSolution(
      [&](const Homomorphism&) { return ++seen < 500; }, &each);
  EXPECT_EQ(counted, seen);
  EXPECT_EQ(count.nodes, each.nodes);
  EXPECT_EQ(count.leaves, 0u);
}

TEST(SolverLeavesTest, GovernorTripInALeafEndsTheCount) {
  // Two directed triangles joined by a bridge (a cutset of 2) into the
  // loopless complete digraph on 6: 30 leaves in under 128 nodes. The
  // residual count's tables are the search's only memory charges, so
  // trip_after_charges = 1 trips inside the first leaf's CountResidual.
  // The count must end there, tripped: limit_hit, count 0, and
  // kResourceExhausted through HomEngine::Count. Every leaf charges, so
  // each worker enters at most one. A leaf that swallowed the trip (count
  // 0, no stop) would leave the parallel workers, whose fixpoints watch the
  // search's cancel flag rather than the governor, to count 0 at every
  // later leaf; the search's own trip checks would still end the run as
  // "unknown", so the leaf count is what tells the two apart.
  const VocabularyPtr vocab = LeafVocabulary();
  Structure a(vocab, 6);
  for (Element v = 0; v < 3; ++v) {
    a.AddTuple(kE, {v, static_cast<Element>((v + 1) % 3)});
    a.AddTuple(kE, {static_cast<Element>(3 + v),
                    static_cast<Element>(3 + (v + 1) % 3)});
  }
  a.AddTuple(kE, {2, 3});
  Structure b(vocab, 6);
  for (Element x = 0; x < 6; ++x) {
    for (Element y = 0; y < 6; ++y) {
      if (x != y) b.AddTuple(kE, {x, y});
    }
  }
  auto p = HomProblem::FromStructures(a, b);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_TRUE(p->Csp().cycle_cutset().has_value());
  ASSERT_EQ(p->Csp().cycle_cutset()->size(), 2u);
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    EngineOptions options;
    options.backend = Backend::kUniform;
    options.solve.num_threads = threads;
    auto plain = HomEngine(options).Run(*p, HomTask::kCount);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    EXPECT_EQ(plain->count, ReferenceSolutions(a, b).size());
    ASSERT_GE(plain->stats.search.leaves, 30u);
    ASSERT_LT(plain->stats.search.nodes, 128u);

    options.failpoints.trip_after_charges = 1;
    auto tripped = HomEngine(options).Run(*p, HomTask::kCount);
    ASSERT_TRUE(tripped.ok()) << tripped.status().ToString();
    EXPECT_TRUE(tripped->stats.governor.tripped);
    EXPECT_EQ(tripped->stats.governor.cause, TripCause::kFailpoint);
    EXPECT_TRUE(tripped->stats.search.limit_hit);
    EXPECT_EQ(tripped->count, 0u);
    EXPECT_GE(tripped->stats.search.leaves, 1u);
    EXPECT_LE(tripped->stats.search.leaves, threads);
    auto count = HomEngine(options).Count(*p);
    ASSERT_FALSE(count.ok());
    EXPECT_EQ(count.status().code(), StatusCode::kResourceExhausted);
  }
}

}  // namespace
}  // namespace cqcs
