// Tests for the generic backtracking solver and GAC propagation.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/ops.h"
#include "solver/backtracking.h"
#include "solver/propagator.h"

namespace cqcs {
namespace {

VocabularyPtr GraphVocab() {
  auto v = std::make_shared<Vocabulary>();
  v->AddRelation("E", 2);
  return v;
}

Structure DirectedCycle(const VocabularyPtr& vocab, size_t n) {
  Structure s(vocab, n);
  for (size_t i = 0; i < n; ++i) {
    s.AddTuple(0, {static_cast<Element>(i), static_cast<Element>((i + 1) % n)});
  }
  return s;
}

Structure UndirectedCycle(const VocabularyPtr& vocab, size_t n) {
  Structure s(vocab, n);
  for (size_t i = 0; i < n; ++i) {
    auto u = static_cast<Element>(i);
    auto v = static_cast<Element>((i + 1) % n);
    s.AddTuple(0, {u, v});
    s.AddTuple(0, {v, u});
  }
  return s;
}

Structure Clique(const VocabularyPtr& vocab, size_t n) {
  Structure s(vocab, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j) {
        s.AddTuple(0, {static_cast<Element>(i), static_cast<Element>(j)});
      }
    }
  }
  return s;
}

TEST(CspInstanceTest, ExtractsConstraints) {
  auto vocab = GraphVocab();
  Structure a = DirectedCycle(vocab, 3);
  Structure b = DirectedCycle(vocab, 3);
  CspInstance csp(a, b);
  EXPECT_EQ(csp.var_count(), 3u);
  EXPECT_EQ(csp.domain_size(), 3u);
  EXPECT_EQ(csp.constraints().size(), 3u);
  EXPECT_EQ(csp.constraints_of(0).size(), 2u);  // in two edges
}

TEST(CspInstanceTest, RepeatedVariablesInScope) {
  auto vocab = GraphVocab();
  Structure a(vocab, 1);
  a.AddTuple(0, {0, 0});  // self loop in A
  Structure b = DirectedCycle(vocab, 3);  // loopless
  EXPECT_FALSE(HasHomomorphism(a, b));
  Structure loop(vocab, 1);
  loop.AddTuple(0, {0, 0});
  EXPECT_TRUE(HasHomomorphism(a, loop));
}

TEST(GacTest, DetectsTrivialInconsistency) {
  auto vocab = GraphVocab();
  Structure a(vocab, 2);
  a.AddTuple(0, {0, 1});
  Structure b(vocab, 2);  // no edges at all
  CspInstance csp(a, b);
  auto domains = csp.FullDomains();
  EXPECT_FALSE(EstablishGac(csp, domains));
}

TEST(GacTest, PrunesUnsupportedValues) {
  auto vocab = GraphVocab();
  // A: single edge (0,1). B: path 0->1. GAC leaves dom(0)={0}, dom(1)={1}.
  Structure a(vocab, 2);
  a.AddTuple(0, {0, 1});
  Structure b(vocab, 2);
  b.AddTuple(0, {0, 1});
  CspInstance csp(a, b);
  auto domains = csp.FullDomains();
  ASSERT_TRUE(EstablishGac(csp, domains));
  EXPECT_EQ(domains[0].count(), 1u);
  EXPECT_TRUE(domains[0].test(0));
  EXPECT_EQ(domains[1].count(), 1u);
  EXPECT_TRUE(domains[1].test(1));
}

// Propagator::Revise against the definition of a one-constraint GAC revise.
// Random binary and ternary targets of 8 and 512 elements at degree about 6
// (plus a sparse 16-element one, degree 1.5, whose small state space lets
// stale residues collide with later domain states), sources with one
// repeated-variable atom (T(x, y, x): an equality pair), and domain states
// mixing singletons, small domains and full ones, so that both revise
// strategies (residue checks and support walks) run.

VocabularyPtr BinaryTernaryVocab() {
  auto v = std::make_shared<Vocabulary>();
  v->AddRelation("E", 2);
  v->AddRelation("T", 3);
  return v;
}

Element RandomElement(Rng& rng, size_t n) {
  return static_cast<Element>(rng.Below(n));
}

Structure RandomTarget(const VocabularyPtr& vocab, size_t n, double degree,
                       Rng& rng) {
  Structure b(vocab, n);
  for (size_t t = 0; t < static_cast<size_t>(degree * n); ++t) {
    b.AddTuple(0, {RandomElement(rng, n), RandomElement(rng, n)});
    b.AddTuple(1, {RandomElement(rng, n), RandomElement(rng, n),
                   RandomElement(rng, n)});
  }
  return b;
}

Structure RandomSource(const VocabularyPtr& vocab, Rng& rng) {
  const size_t n = 6;
  Structure a(vocab, n);
  auto distinct = [&](size_t k) {
    std::vector<Element> vars;
    while (vars.size() < k) {
      const Element v = RandomElement(rng, n);
      if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
        vars.push_back(v);
      }
    }
    return vars;
  };
  for (int i = 0; i < 5; ++i) a.AddTuple(0, distinct(2));
  for (int i = 0; i < 2; ++i) a.AddTuple(1, distinct(3));
  const std::vector<Element> xy = distinct(2);
  a.AddTuple(1, {xy[0], xy[1], xy[0]});
  return a;
}

/// Singletons, small domains drawn from B's tuples (so they tend to have
/// supports), and full domains, in about equal shares. Never empty.
std::vector<DynamicBitset> RandomDomains(const CspInstance& csp, Rng& rng) {
  const size_t n = csp.domain_size();
  const Relation& e = csp.b().relation(0);
  std::vector<DynamicBitset> domains(csp.var_count(), DynamicBitset(n, true));
  for (DynamicBitset& d : domains) {
    const uint64_t kind = rng.Below(3);
    if (kind == 2) continue;
    d.ResetAll();
    const size_t size = kind == 0 ? 1 : 1 + rng.Below(8);
    for (size_t i = 0; i < size; ++i) {
      d.set(e.tuple(rng.Below(e.tuple_count()))[rng.Below(2)]);
    }
  }
  return domains;
}

/// Per slot of c, the values that some live B-tuple supports: a tuple that
/// matches c's equality pattern and whose every position lies in its
/// variable's domain.
std::vector<DynamicBitset> ReferenceSupports(
    const CspInstance& csp, const Constraint& c,
    const std::vector<DynamicBitset>& domains) {
  std::vector<DynamicBitset> supported(c.vars.size(),
                                       DynamicBitset(csp.domain_size()));
  const Relation& rb = csp.b().relation(c.rel);
  for (size_t t = 0; t < rb.tuple_count(); ++t) {
    std::span<const Element> u = rb.tuple(t);
    bool alive = true;
    for (uint32_t p = 0; p < rb.arity() && alive; ++p) {
      alive = domains[c.scope_tuple[p]].test(u[p]);
      for (uint32_t q = 0; q < p && alive; ++q) {
        if (c.scope_tuple[p] == c.scope_tuple[q]) alive = u[p] == u[q];
      }
    }
    if (!alive) continue;
    for (size_t i = 0; i < c.vars.size(); ++i) {
      supported[i].set(u[c.pos_of_var(i)]);
    }
  }
  return supported;
}

/// The conflict-set words of every variable.
std::vector<std::vector<uint64_t>> ConflictSets(const Propagator& prop) {
  std::vector<std::vector<uint64_t>> sets;
  for (Element v = 0; v < prop.csp().var_count(); ++v) {
    const uint64_t* cs = prop.conflict_set(v);
    sets.emplace_back(cs, cs + prop.conflict_words());
  }
  return sets;
}

/// One Revise of constraint ci, checked against ReferenceSupports: the new
/// domains and counts, the changed list, a wipeout and its conflict_var(),
/// and with `track` the RecordPruneReason rule (each pruned slot's conflict
/// set gains, for every other scope variable u, u's conflict set and u
/// itself if u is a decision, slots taken in scope order). Updates
/// `domains` to the expected result, sets `*walked_and_pruned` when the
/// support walk ran and shrank a domain, and returns Revise's result.
bool CheckedRevise(Propagator& prop, uint32_t ci, bool track,
                   std::vector<DynamicBitset>& domains,
                   bool* walked_and_pruned) {
  const CspInstance& csp = prop.csp();
  const Constraint& c = csp.constraints()[ci];
  const std::vector<DynamicBitset> supported =
      ReferenceSupports(csp, c, domains);
  std::vector<std::vector<uint64_t>> want_cs;
  if (track) want_cs = ConflictSets(prop);
  std::vector<Element> want_changed;
  bool want_ok = true;
  for (size_t i = 0; i < c.vars.size() && want_ok; ++i) {
    const Element var = c.vars[i];
    if (supported[i] == domains[var]) continue;
    want_changed.push_back(var);
    want_ok = supported[i].any();
    if (!track) continue;
    for (size_t j = 0; j < c.vars.size(); ++j) {
      const Element u = c.vars[j];
      if (j == i) continue;
      for (size_t wi = 0; wi < want_cs[var].size(); ++wi) {
        want_cs[var][wi] |= want_cs[u][wi];
      }
      if (bitwords::TestBit(prop.decision_bits(), u)) {
        bitwords::SetBit(want_cs[var].data(), u);
      }
    }
  }

  const uint64_t walks_before = prop.support_walks();
  std::vector<Element> changed;
  const bool ok = prop.Revise(ci, &changed);
  *walked_and_pruned =
      prop.support_walks() != walks_before && !changed.empty();
  EXPECT_EQ(ok, want_ok);
  EXPECT_EQ(changed, want_changed);
  if (track) {
    EXPECT_EQ(ConflictSets(prop), want_cs);
  }
  if (!ok) {
    // Every domain was nonempty, so slot 0 wipes out first.
    EXPECT_EQ(prop.conflict_var(), c.vars[0]);
    EXPECT_EQ(prop.domain_count(c.vars[0]), 0u);
    return false;
  }
  for (size_t i = 0; i < c.vars.size(); ++i) {
    domains[c.vars[i]] = supported[i];
  }
  std::vector<DynamicBitset> got;
  prop.StoreDomains(&got);
  EXPECT_EQ(got, domains);
  for (Element v = 0; v < csp.var_count(); ++v) {
    EXPECT_EQ(prop.domain_count(v), domains[v].count());
  }
  return true;
}

/// Runs CheckedRevise over random instances the way the search uses Revise.
/// Each epoch loads fresh root domains (the residues carry over), revises
/// every constraint at the root, then runs branches that each open a level,
/// assign one variable, revise every constraint again and pop; each pop
/// must restore the root state. Later revises thus meet the residues that
/// earlier ones, of either strategy, left behind.
void CheckReviseAgainstReference(bool track) {
  const VocabularyPtr vocab = BinaryTernaryVocab();
  Rng rng(track ? 0x5eed2 : 0x5eed1);
  uint64_t revisions = 0;
  uint64_t walks = 0;
  uint64_t pruning_walks = 0;
  for (const auto& [n, degree] :
       {std::pair{8, 6.0}, std::pair{512, 6.0}, std::pair{16, 1.5}}) {
    for (int trial = 0; trial < 60; ++trial) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " trial " << trial);
      const Structure b = RandomTarget(vocab, n, degree, rng);
      const Structure a = RandomSource(vocab, rng);
      const CspInstance csp(a, b);
      Propagator prop(csp);
      if (track) prop.EnableConflictTracking();
      std::vector<uint32_t> order(csp.constraints().size());
      // Revises every constraint in random order; false on a wipeout.
      auto revise_all = [&](std::vector<DynamicBitset>& domains) {
        for (uint32_t ci = 0; ci < order.size(); ++ci) order[ci] = ci;
        for (size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1], order[rng.Below(i)]);
        }
        for (uint32_t ci : order) {
          bool walked_and_pruned = false;
          if (!CheckedRevise(prop, ci, track, domains, &walked_and_pruned)) {
            return false;
          }
          if (walked_and_pruned) ++pruning_walks;
        }
        return true;
      };
      for (int epoch = 0; epoch < 3; ++epoch) {
        std::vector<DynamicBitset> root = RandomDomains(csp, rng);
        prop.LoadDomains(root);
        for (Element v = 0; v < csp.var_count() && track; ++v) {
          if (root[v].count() == 1) {
            prop.MarkDecision(v);
          } else {
            prop.UnmarkDecision(v);
          }
        }
        if (!revise_all(root)) continue;
        for (int branch = 0; branch < 4; ++branch) {
          const Element var = RandomElement(rng, csp.var_count());
          std::vector<size_t> values;
          for (size_t v = root[var].FindFirst(); v != DynamicBitset::npos;
               v = root[var].FindNext(v)) {
            values.push_back(v);
          }
          const size_t value = values[rng.Below(values.size())];
          std::vector<DynamicBitset> domains = root;
          domains[var].ResetAll();
          domains[var].set(value);
          std::vector<std::vector<uint64_t>> cs_before;
          if (track) cs_before = ConflictSets(prop);
          const bool decided =
              track && !bitwords::TestBit(prop.decision_bits(), var);
          prop.PushLevel();
          if (decided) prop.MarkDecision(var);
          prop.Assign(var, static_cast<Element>(value));
          revise_all(domains);
          if (decided) prop.UnmarkDecision(var);
          prop.PopLevel();
          std::vector<DynamicBitset> restored;
          prop.StoreDomains(&restored);
          EXPECT_EQ(restored, root);
          if (track) {
            EXPECT_EQ(ConflictSets(prop), cs_before);
          }
          for (Element v = 0; v < csp.var_count(); ++v) {
            EXPECT_EQ(prop.domain_count(v), root[v].count());
          }
        }
      }
      revisions += prop.revisions();
      walks += prop.support_walks();
    }
  }
  // Both strategies ran, and some walks pruned.
  EXPECT_GT(walks, 0u);
  EXPECT_LT(walks, revisions);
  EXPECT_GT(pruning_walks, 0u);
}

TEST(GacTest, ReviseMatchesBruteForceReference) {
  CheckReviseAgainstReference(/*track=*/false);
}

TEST(GacTest, ReviseRecordsPruneReasonsLikeTheReference) {
  CheckReviseAgainstReference(/*track=*/true);
}

TEST(SolverTest, EvenCycleMapsToEdge) {
  auto vocab = GraphVocab();
  Structure c6 = UndirectedCycle(vocab, 6);
  Structure k2 = UndirectedCycle(vocab, 2);  // single undirected edge
  auto h = FindHomomorphism(c6, k2);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(IsHomomorphism(c6, k2, *h));
}

TEST(SolverTest, OddCycleDoesNotMapToEdge) {
  auto vocab = GraphVocab();
  Structure c5 = UndirectedCycle(vocab, 5);
  Structure k2 = UndirectedCycle(vocab, 2);
  EXPECT_FALSE(HasHomomorphism(c5, k2));
}

TEST(SolverTest, OddCycleMapsToTriangle) {
  auto vocab = GraphVocab();
  Structure c5 = UndirectedCycle(vocab, 5);
  Structure k3 = Clique(vocab, 3);
  auto h = FindHomomorphism(c5, k3);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(IsHomomorphism(c5, k3, *h));
}

TEST(SolverTest, DirectedCycleDivisibility) {
  // C_n -> C_m for directed cycles iff m divides n.
  auto vocab = GraphVocab();
  for (size_t n = 2; n <= 9; ++n) {
    for (size_t m = 2; m <= 6; ++m) {
      Structure cn = DirectedCycle(vocab, n);
      Structure cm = DirectedCycle(vocab, m);
      EXPECT_EQ(HasHomomorphism(cn, cm), n % m == 0)
          << "n=" << n << " m=" << m;
    }
  }
}

TEST(SolverTest, EmptyStructureAlwaysMaps) {
  auto vocab = GraphVocab();
  Structure empty(vocab, 0);
  Structure any = DirectedCycle(vocab, 3);
  auto h = FindHomomorphism(empty, any);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(h->empty());
}

TEST(SolverTest, IsolatedElementsNeedNonemptyTarget) {
  auto vocab = GraphVocab();
  Structure a(vocab, 2);  // two isolated elements
  Structure b(vocab, 1);  // single element, no edges
  EXPECT_TRUE(HasHomomorphism(a, b));
  Structure b0(vocab, 0);
  EXPECT_FALSE(HasHomomorphism(a, b0));
}

TEST(SolverTest, ForwardCheckingAgreesWithMac) {
  auto vocab = GraphVocab();
  for (size_t n = 3; n <= 7; ++n) {
    Structure cn = UndirectedCycle(vocab, n);
    Structure k3 = Clique(vocab, 3);
    SolveOptions fc;
    fc.propagation = Propagation::kForwardChecking;
    BacktrackingSolver fc_solver(cn, k3, fc);
    BacktrackingSolver mac_solver(cn, k3);
    EXPECT_EQ(fc_solver.Solve().has_value(), mac_solver.Solve().has_value());
  }
}

TEST(SolverTest, CountSolutionsTriangleToTriangle) {
  // Homomorphisms K3 -> K3 are exactly the 6 permutations (3-colorings of a
  // triangle with distinct colors).
  auto vocab = GraphVocab();
  Structure k3 = Clique(vocab, 3);
  BacktrackingSolver solver(k3, k3);
  EXPECT_EQ(solver.CountSolutions(), 6u);
}

TEST(SolverTest, CountRespectsLimit) {
  auto vocab = GraphVocab();
  Structure k3 = Clique(vocab, 3);
  BacktrackingSolver solver(k3, k3);
  EXPECT_EQ(solver.CountSolutions(4), 4u);
}

TEST(SolverTest, ForEachSolutionVisitsAll) {
  auto vocab = GraphVocab();
  Structure path(vocab, 2);
  path.AddTuple(0, {0, 1});
  Structure k3 = Clique(vocab, 3);
  size_t count = 0;
  BacktrackingSolver solver(path, k3);
  solver.ForEachSolution([&](const Homomorphism& h) {
    EXPECT_TRUE(IsHomomorphism(path, k3, h));
    ++count;
    return true;
  });
  EXPECT_EQ(count, 6u);  // ordered pairs of distinct colors
}

TEST(SolverTest, EnumerateProjections) {
  auto vocab = GraphVocab();
  // A: path x -> y -> z. B: directed 3-cycle. Project onto {x}: every
  // B-element starts some path, so we get all 3 answers.
  Structure path(vocab, 3);
  path.AddTuple(0, {0, 1});
  path.AddTuple(0, {1, 2});
  Structure c3 = DirectedCycle(vocab, 3);
  BacktrackingSolver solver(path, c3);
  std::vector<Element> proj = {0};
  auto rows = solver.EnumerateProjections(proj);
  EXPECT_EQ(rows.size(), 3u);
}

TEST(SolverTest, EnumerateProjectionsDedupes) {
  auto vocab = GraphVocab();
  Structure path(vocab, 2);
  path.AddTuple(0, {0, 1});
  Structure k3 = Clique(vocab, 3);
  BacktrackingSolver solver(path, k3);
  std::vector<Element> proj = {0};
  auto rows = solver.EnumerateProjections(proj);
  EXPECT_EQ(rows.size(), 3u);  // 6 homs but 3 distinct first components
}

TEST(SolverTest, NodeLimitReportsUnknown) {
  auto vocab = GraphVocab();
  Structure big = Clique(vocab, 8);
  Structure k7 = Clique(vocab, 7);  // no hom: needs 8 colors
  SolveOptions options;
  options.node_limit = 5;
  options.propagation = Propagation::kForwardChecking;
  BacktrackingSolver solver(big, k7, options);
  SolveStats stats;
  auto h = solver.Solve(&stats);
  EXPECT_FALSE(h.has_value());
  EXPECT_TRUE(stats.limit_hit);
}

TEST(SolverTest, ProductIsGreatestLowerBound) {
  // hom(C -> A x B) iff hom(C -> A) and hom(C -> B).
  auto vocab = GraphVocab();
  Structure c4 = UndirectedCycle(vocab, 4);
  Structure k2 = UndirectedCycle(vocab, 2);
  Structure k3 = Clique(vocab, 3);
  Structure prod = Product(k2, k3);
  EXPECT_TRUE(HasHomomorphism(c4, prod));
  Structure c3 = UndirectedCycle(vocab, 3);
  // C3 -> K3 but not C3 -> K2, so not into the product.
  EXPECT_FALSE(HasHomomorphism(c3, prod));
}

}  // namespace
}  // namespace cqcs
