// Randomized oracle suite for the polynomial backends (`ctest -L poly`):
// the full Yannakakis program (decide / witness / count / enumerate /
// project, cq/acyclic.h) over both its front ends — atoms, and the
// join-built bag tables of the treewidth route (treewidth/hom_dp.h) — is
// cross-checked against the uniform backtracking solver on ~100 generated
// acyclic and partial-k-tree instances, plus the degenerate shapes that
// historically break join machinery: empty relations, disconnected
// hypergraphs, and duplicate atoms.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "common/saturating.h"
#include "core/homomorphism.h"
#include "cq/acyclic.h"
#include "cq/gyo.h"
#include "gen/generators.h"
#include "rel/hash_index.h"
#include "solver/backtracking.h"
#include "treewidth/hom_dp.h"

namespace cqcs {
namespace {

using RowSet = std::set<std::vector<Element>>;

HomProblem MustProblem(Result<HomProblem> r) {
  CQCS_CHECK_MSG(r.ok(), r.status().ToString());
  return *std::move(r);
}

EngineResult MustRun(const HomEngine& engine, const HomProblem& p,
                     HomTask task) {
  auto r = engine.Run(p, task);
  CQCS_CHECK_MSG(r.ok(), r.status().ToString());
  return *std::move(r);
}

RowSet OracleSolutions(const Structure& a, const Structure& b) {
  RowSet out;
  BacktrackingSolver solver(a, b);
  solver.ForEachSolution([&](const Homomorphism& h) {
    out.insert(h);
    return true;
  });
  return out;
}

// Runs every HomTask on the explicit kAcyclic backend and cross-checks
// each answer against the uniform solver's full solution set.
void CheckAcyclicBattery(const Structure& a, const Structure& b,
                         const char* label, int trial) {
  SCOPED_TRACE(testing::Message() << label << " trial " << trial);
  const RowSet oracle = OracleSolutions(a, b);

  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
  std::vector<Element> proj;
  if (a.universe_size() > 0) {
    proj.push_back(0);
    if (a.universe_size() > 1) {
      proj.push_back(static_cast<Element>(a.universe_size() - 1));
    }
    ASSERT_TRUE(p.SetProjection(proj).ok());
  }
  EngineOptions options;
  options.backend = Backend::kAcyclic;
  HomEngine engine(options);

  EngineResult decide = MustRun(engine, p, HomTask::kDecide);
  EXPECT_EQ(decide.decided, !oracle.empty());
  EXPECT_FALSE(decide.stats.used_search);

  EngineResult witness = MustRun(engine, p, HomTask::kWitness);
  EXPECT_EQ(witness.decided, !oracle.empty());
  if (witness.decided) {
    ASSERT_TRUE(witness.witness.has_value());
    EXPECT_TRUE(IsHomomorphism(a, b, *witness.witness));
    EXPECT_TRUE(oracle.count(*witness.witness));
  }

  EngineResult count = MustRun(engine, p, HomTask::kCount);
  EXPECT_EQ(count.count, oracle.size());

  EngineResult all = MustRun(engine, p, HomTask::kEnumerate);
  const RowSet got(all.rows.begin(), all.rows.end());
  EXPECT_EQ(got.size(), all.rows.size()) << "duplicate homomorphisms";
  EXPECT_EQ(got, oracle);

  if (!proj.empty()) {
    EngineResult rows = MustRun(engine, p, HomTask::kProject);
    RowSet want;
    for (const auto& h : oracle) {
      std::vector<Element> r;
      for (Element e : proj) r.push_back(h[e]);
      want.insert(std::move(r));
    }
    const RowSet got_proj(rows.rows.begin(), rows.rows.end());
    EXPECT_EQ(got_proj.size(), rows.rows.size()) << "duplicate projections";
    EXPECT_EQ(got_proj, want);
  }

  // Saturated counting / capped enumeration must clamp, not truncate
  // arbitrarily (the limit is min(true answer, limit)).
  if (oracle.size() > 1) {
    EngineOptions capped = options;
    capped.count_limit = oracle.size() - 1;
    capped.max_results = oracle.size() - 1;
    HomEngine capped_engine(capped);
    EXPECT_EQ(MustRun(capped_engine, p, HomTask::kCount).count,
              oracle.size() - 1);
    EngineResult few = MustRun(capped_engine, p, HomTask::kEnumerate);
    EXPECT_EQ(few.rows.size(), oracle.size() - 1);
    for (const auto& h : few.rows) EXPECT_TRUE(oracle.count(h));
  }
}

// Every HomTask on the explicit kTreewidth backend against the oracle:
// decide, witness, count, enumerate (as a multiset: no homomorphism twice)
// and project.
void CheckTreewidthBattery(const Structure& a, const Structure& b,
                           const char* label, int trial) {
  SCOPED_TRACE(testing::Message() << label << " trial " << trial);
  const RowSet oracle = OracleSolutions(a, b);

  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
  std::vector<Element> proj;
  if (a.universe_size() > 0) {
    proj = {static_cast<Element>(a.universe_size() - 1), 0};
    ASSERT_TRUE(p.SetProjection(proj).ok());
  }
  EngineOptions options;
  options.backend = Backend::kTreewidth;
  HomEngine engine(options);
  EngineResult r = MustRun(engine, p, HomTask::kWitness);
  EXPECT_EQ(r.decided, !oracle.empty());
  EXPECT_TRUE(r.stats.used_treewidth);
  EXPECT_FALSE(r.stats.used_search);
  if (r.decided) {
    ASSERT_TRUE(r.witness.has_value());
    EXPECT_TRUE(IsHomomorphism(a, b, *r.witness));
  }
  // The bag tables populate their counters whenever the route runs on a
  // nonempty instance.
  if (a.universe_size() > 0 && b.universe_size() > 0) {
    EXPECT_GE(r.stats.treewidth.width, 0);
  }
  EXPECT_EQ(MustRun(engine, p, HomTask::kDecide).decided, !oracle.empty());

  EngineResult count = MustRun(engine, p, HomTask::kCount);
  EXPECT_TRUE(count.stats.used_treewidth);
  EXPECT_EQ(count.count, oracle.size());

  EngineResult all = MustRun(engine, p, HomTask::kEnumerate);
  std::vector<std::vector<Element>> rows = all.rows;
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, std::vector<std::vector<Element>>(oracle.begin(),
                                                    oracle.end()));

  if (!proj.empty()) {
    EngineResult projected = MustRun(engine, p, HomTask::kProject);
    RowSet want;
    for (const auto& h : oracle) want.insert({h[proj[0]], h[proj[1]]});
    const RowSet got(projected.rows.begin(), projected.rows.end());
    EXPECT_EQ(got.size(), projected.rows.size()) << "duplicate projections";
    EXPECT_EQ(got, want);
  }
}

TEST(PolyOracleTest, AcyclicTreeFamily) {
  Rng rng(20260730);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 40; ++trial) {
    Structure a =
        StructureFromGraph(vocab, RandomTree(2 + rng.Below(6), rng));
    Structure b = RandomGraphStructure(vocab, 1 + rng.Below(4),
                                       0.2 + 0.15 * rng.Below(4), rng,
                                       /*symmetric=*/rng.Below(2) == 0);
    CheckAcyclicBattery(a, b, "tree", trial);
  }
}

TEST(PolyOracleTest, DisconnectedHypergraphFamily) {
  // A forest source: GYO yields several roots, the count is the product of
  // the components' counts, and enumeration must take the cross product —
  // exactly what a per-component implementation would get wrong.
  Rng rng(424242);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 15; ++trial) {
    const size_t n1 = 2 + rng.Below(3);
    const size_t n2 = 2 + rng.Below(3);
    const size_t isolated = rng.Below(2);  // plus 0-1 atom-free elements
    Structure a(vocab, n1 + n2 + isolated);
    for (size_t i = 0; i + 1 < n1; ++i) {
      a.AddTuple(0, {static_cast<Element>(i), static_cast<Element>(i + 1)});
    }
    for (size_t i = 0; i + 1 < n2; ++i) {
      a.AddTuple(0, {static_cast<Element>(n1 + i),
                     static_cast<Element>(n1 + i + 1)});
    }
    Structure b = RandomGraphStructure(vocab, 2 + rng.Below(3), 0.5, rng,
                                       /*symmetric=*/true);
    CheckAcyclicBattery(a, b, "forest", trial);
  }
}

TEST(PolyOracleTest, DuplicateAtomFamily) {
  // Duplicate tuples in the source become duplicate atoms of the canonical
  // query: two join-forest nodes carrying identical tables. The reduction
  // must not double-count or double-enumerate.
  Rng rng(777);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 3 + rng.Below(4);
    Structure a(vocab, n);
    for (size_t i = 0; i + 1 < n; ++i) {
      a.AddTuple(0, {static_cast<Element>(i), static_cast<Element>(i + 1)});
    }
    // Duplicate one edge, twice.
    const Element u = static_cast<Element>(rng.Below(n - 1));
    a.AddTuple(0, {u, static_cast<Element>(u + 1)});
    a.AddTuple(0, {u, static_cast<Element>(u + 1)});
    Structure b = RandomGraphStructure(vocab, 2 + rng.Below(3), 0.5, rng,
                                       /*symmetric=*/true);
    CheckAcyclicBattery(a, b, "duplicate-atom", trial);
  }
}

TEST(PolyOracleTest, EmptyRelationEdgeCases) {
  auto vocab = MakeGraphVocabulary();
  // Target with elements but no tuples: any source edge kills every map.
  {
    Structure a = PathStructure(vocab, 3);
    Structure b(vocab, 2);
    CheckAcyclicBattery(a, b, "empty-target-relation", 0);
  }
  // Source with elements but no tuples: the canonical query has variables
  // and no atoms, so every total map is a homomorphism (|B|^|A| of them).
  {
    Structure a(vocab, 3);
    Structure b(vocab, 2);
    b.AddTuple(0, {0, 1});
    const RowSet oracle = OracleSolutions(a, b);
    EXPECT_EQ(oracle.size(), 8u);
    CheckAcyclicBattery(a, b, "empty-source-relation", 0);
  }
  // Both empty; single elements.
  {
    Structure a(vocab, 1);
    Structure b(vocab, 1);
    CheckAcyclicBattery(a, b, "both-empty", 0);
  }
  // Empty source universe: the empty map is the one homomorphism.
  {
    Structure a(vocab, 0);
    Structure b(vocab, 3);
    b.AddTuple(0, {0, 1});
    CheckAcyclicBattery(a, b, "empty-source-universe", 0);
  }
}

TEST(PolyOracleTest, PartialKTreeFamily) {
  Rng rng(515151);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 30; ++trial) {
    Structure a = StructureFromGraph(
        vocab, RandomPartialKTree(5 + rng.Below(8), 2, 0.85, rng));
    Structure b = RandomGraphStructure(vocab, 2 + rng.Below(4),
                                       0.3 + 0.1 * rng.Below(4), rng,
                                       /*symmetric=*/true);
    CheckTreewidthBattery(a, b, "partial-2-tree", trial);
  }
}

TEST(PolyOracleTest, TreewidthDpEdgeCases) {
  auto vocab = MakeGraphVocabulary();
  // Empty target relation: refutation must come from the DP, not a crash.
  {
    Structure a = PathStructure(vocab, 4);
    Structure b(vocab, 3);
    CheckTreewidthBattery(a, b, "empty-target-relation", 0);
  }
  // Disconnected source: the decomposition is a forest of bags.
  {
    Structure a(vocab, 4);
    a.AddTuple(0, {0, 1});
    a.AddTuple(0, {2, 3});
    Structure b = CliqueStructure(vocab, 2);
    CheckTreewidthBattery(a, b, "disconnected", 0);
  }
  // Duplicate tuples in the source.
  {
    Structure a(vocab, 3);
    a.AddTuple(0, {0, 1});
    a.AddTuple(0, {0, 1});
    a.AddTuple(0, {1, 2});
    Structure b = CliqueStructure(vocab, 3);
    CheckTreewidthBattery(a, b, "duplicate-tuples", 0);
  }
}

TEST(PolyOracleTest, DeepSourceDoesNotOverflowTheStack) {
  // Regression: the enumeration walk used to recurse one frame per atom,
  // so witness/enumerate on a ~100k-atom acyclic source crashed where
  // decide survived. The walk is now an explicit-stack iteration.
  auto vocab = MakeGraphVocabulary();
  Structure a = PathStructure(vocab, 150001);
  Structure b = DirectedCycleStructure(vocab, 3);
  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
  EngineOptions options;
  options.max_results = 2;
  HomEngine engine(options);
  EngineResult w = MustRun(engine, p, HomTask::kWitness);
  EXPECT_EQ(w.explain.chosen, Backend::kAcyclic);
  ASSERT_TRUE(w.decided);
  ASSERT_TRUE(w.witness.has_value());
  EXPECT_TRUE(IsHomomorphism(a, b, *w.witness));
  EngineResult rows = MustRun(engine, p, HomTask::kEnumerate);
  EXPECT_EQ(rows.rows.size(), 2u);
}

TEST(PolyOracleTest, ThreadCountInvariance) {
  // Parallelism changes wall-clock, never the answer: every task on the
  // acyclic and the treewidth route must return identical results and
  // stats at 1, 2, and 8 workers. Only `workers` (the request echo) and
  // `steals` (a scheduling record) may differ. The acyclic route runs on
  // the calling thread, so its `morsels` is 0 at every count; the
  // treewidth route's bag dispatch cuts 8 bags a morsel, so its `morsels`
  // must match too.
  Rng rng(20260808);
  auto vocab = MakeGraphVocabulary();
  const unsigned kThreadCounts[] = {1, 2, 8};
  for (int trial = 0; trial < 10; ++trial) {
    Structure a =
        StructureFromGraph(vocab, RandomTree(4 + rng.Below(6), rng));
    Structure b = RandomGraphStructure(vocab, 3 + rng.Below(3), 0.4, rng,
                                       /*symmetric=*/true);
    HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
    std::vector<Element> proj = {0,
                                 static_cast<Element>(a.universe_size() - 1)};
    ASSERT_TRUE(p.SetProjection(proj).ok());

    struct Answers {
      EngineResult decide, count, enumerate, project, tw, tw_count,
          tw_enumerate, tw_project;
    };
    auto run_all = [&](unsigned threads) {
      EngineOptions options;
      options.backend = Backend::kAcyclic;
      options.solve.num_threads = threads;
      HomEngine engine(options);
      Answers ans;
      ans.decide = MustRun(engine, p, HomTask::kDecide);
      ans.count = MustRun(engine, p, HomTask::kCount);
      ans.enumerate = MustRun(engine, p, HomTask::kEnumerate);
      ans.project = MustRun(engine, p, HomTask::kProject);
      EngineOptions tw_options = options;
      tw_options.backend = Backend::kTreewidth;
      const HomEngine tw_engine(tw_options);
      ans.tw = MustRun(tw_engine, p, HomTask::kWitness);
      ans.tw_count = MustRun(tw_engine, p, HomTask::kCount);
      ans.tw_enumerate = MustRun(tw_engine, p, HomTask::kEnumerate);
      ans.tw_project = MustRun(tw_engine, p, HomTask::kProject);
      return ans;
    };
    auto expect_ys_equal = [&](const YannakakisStats& got,
                               const YannakakisStats& want) {
      EXPECT_EQ(got.atom_tables, want.atom_tables);
      EXPECT_EQ(got.rows_materialized, want.rows_materialized);
      EXPECT_EQ(got.max_table_rows, want.max_table_rows);
      EXPECT_EQ(got.semijoins, want.semijoins);
      EXPECT_EQ(got.rows_pruned, want.rows_pruned);
      EXPECT_EQ(got.join_rows, want.join_rows);
      EXPECT_EQ(got.morsels, want.morsels);
    };

    const Answers base = run_all(1);
    EXPECT_EQ(base.decide.stats.yannakakis.workers, 1u);
    EXPECT_EQ(base.decide.stats.yannakakis.steals, 0u);
    EXPECT_EQ(base.count.stats.yannakakis.morsels, 0u);
    for (unsigned threads : kThreadCounts) {
      SCOPED_TRACE(testing::Message()
                   << "trial " << trial << " threads " << threads);
      const Answers got = run_all(threads);
      EXPECT_EQ(got.decide.decided, base.decide.decided);
      expect_ys_equal(got.decide.stats.yannakakis,
                      base.decide.stats.yannakakis);
      EXPECT_EQ(got.decide.stats.yannakakis.workers, threads);
      EXPECT_EQ(got.count.count, base.count.count);
      expect_ys_equal(got.count.stats.yannakakis,
                      base.count.stats.yannakakis);
      // Rows must match in ORDER, not just as sets: the walk's row order
      // is the contract.
      EXPECT_EQ(got.enumerate.rows, base.enumerate.rows);
      expect_ys_equal(got.enumerate.stats.yannakakis,
                      base.enumerate.stats.yannakakis);
      EXPECT_EQ(got.project.rows, base.project.rows);
      expect_ys_equal(got.project.stats.yannakakis,
                      base.project.stats.yannakakis);
      EXPECT_EQ(got.tw.decided, base.tw.decided);
      EXPECT_EQ(got.tw.witness, base.tw.witness);
      EXPECT_EQ(got.tw.stats.treewidth.table_entries,
                base.tw.stats.treewidth.table_entries);
      EXPECT_EQ(got.tw.stats.treewidth.table_rows,
                base.tw.stats.treewidth.table_rows);
      EXPECT_EQ(got.tw.stats.treewidth.workers, threads);
      EXPECT_EQ(got.tw.stats.treewidth.morsels,
                base.tw.stats.treewidth.morsels);
      EXPECT_EQ(got.tw_count.count, base.tw_count.count);
      EXPECT_EQ(got.tw_enumerate.rows, base.tw_enumerate.rows);
      EXPECT_EQ(got.tw_project.rows, base.tw_project.rows);
      for (const EngineResult* r :
           {&got.tw_count, &got.tw_enumerate, &got.tw_project}) {
        EXPECT_EQ(r->stats.treewidth.table_entries,
                  base.tw.stats.treewidth.table_entries);
        EXPECT_EQ(r->stats.treewidth.table_rows,
                  base.tw.stats.treewidth.table_rows);
      }
    }
    // A tree is its own decomposition's join tree: both front ends must
    // give the same answers.
    EXPECT_EQ(base.tw_count.count, base.count.count);
    EXPECT_EQ(RowSet(base.tw_enumerate.rows.begin(),
                     base.tw_enumerate.rows.end()),
              RowSet(base.enumerate.rows.begin(), base.enumerate.rows.end()));
    EXPECT_EQ(
        RowSet(base.tw_project.rows.begin(), base.tw_project.rows.end()),
        RowSet(base.project.rows.begin(), base.project.rows.end()));
  }
}

TEST(PolyOracleTest, ProjectCountMatchesMaterializedProject) {
  // AcyclicProjectCount must agree with |AcyclicProject| on every instance
  // — including forests (per-tree root products) and isolated projection
  // variables (universe factors) — and saturate at the limit.
  Rng rng(31337);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 15; ++trial) {
    // Two path components plus one atom-free element: exercises the
    // multi-root product and the universe^|isolated| factor.
    const size_t n1 = 2 + rng.Below(3);
    const size_t n2 = 2 + rng.Below(3);
    Structure a(vocab, n1 + n2 + 1);
    for (size_t i = 0; i + 1 < n1; ++i) {
      a.AddTuple(0, {static_cast<Element>(i), static_cast<Element>(i + 1)});
    }
    for (size_t i = 0; i + 1 < n2; ++i) {
      a.AddTuple(0, {static_cast<Element>(n1 + i),
                     static_cast<Element>(n1 + i + 1)});
    }
    Structure b = RandomGraphStructure(vocab, 2 + rng.Below(3), 0.5, rng,
                                       /*symmetric=*/true);
    HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
    const ConjunctiveQuery& q = p.SourceCanonicalQuery();
    // Projection spans both trees and the isolated element, with a repeat.
    std::vector<VarId> proj = {0, static_cast<VarId>(n1),
                               static_cast<VarId>(n1 + n2), 0};

    auto rows = AcyclicProject(q, b, proj);
    ASSERT_TRUE(rows.ok());
    const size_t want = rows->size();

    auto count = AcyclicProjectCount(q, b, proj);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, want) << "trial " << trial;

    // Saturation: limit below the true count clamps exactly there.
    if (want > 1) {
      auto capped = AcyclicProjectCount(q, b, proj, want - 1);
      ASSERT_TRUE(capped.ok());
      EXPECT_EQ(*capped, want - 1);
    }
    auto zero = AcyclicProjectCount(q, b, proj, 0);
    ASSERT_TRUE(zero.ok());
    EXPECT_EQ(*zero, 0u);

    // Engine route: project_count_only returns the count and no rows.
    ASSERT_TRUE(p.SetProjection(std::vector<Element>(proj.begin(),
                                                     proj.end()))
                    .ok());
    EngineOptions options;
    options.backend = Backend::kAcyclic;
    options.project_count_only = true;
    EngineResult r = MustRun(HomEngine(options), p, HomTask::kProject);
    EXPECT_EQ(r.count, want);
    EXPECT_TRUE(r.rows.empty());
  }
}

TEST(PolyOracleTest, DirectAcyclicApiAgreesWithEngine) {
  // The cq/acyclic.h entry points are also the containment fast path; make
  // sure the direct API and the engine route agree on the same instances
  // (same canonical query, same target).
  Rng rng(987);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 5; ++trial) {
    Structure a =
        StructureFromGraph(vocab, RandomTree(3 + rng.Below(4), rng));
    Structure b = RandomGraphStructure(vocab, 3, 0.5, rng, true);
    HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
    const ConjunctiveQuery& q = p.SourceCanonicalQuery();
    const RowSet oracle = OracleSolutions(a, b);

    auto sat = EvaluateBooleanAcyclic(q, b);
    ASSERT_TRUE(sat.ok());
    EXPECT_EQ(*sat, !oracle.empty());

    auto count = AcyclicCount(q, b);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, oracle.size());

    auto rows = AcyclicEnumerate(q, b);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(RowSet(rows->begin(), rows->end()), oracle);

    auto w = AcyclicWitness(q, b);
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(w->has_value(), !oracle.empty());
    if (w->has_value()) EXPECT_TRUE(oracle.count(**w));
  }
}

// ---- The join-built bag tables against the full odometer. ----------------
//
// SolveViaTreeDecomposition builds each bag's table by join, then runs the
// Yannakakis program over the bag tables. The reference below is the
// odometer the bag walk started from, kept here only as the oracle: every
// one of the |B|^(w+1) assignments per bag, kept when it maps every tuple
// of A the bag covers into B. The tables must agree as sets; the decision
// comes from the uniform search.

struct ReferenceBags {
  Status status;
  std::vector<RowSet> tables;  // per node: assignments in bag order
  size_t table_rows = 0;
};

ReferenceBags ReferenceOdometerBags(const Structure& a, const Structure& b,
                                    const TreeDecomposition& td) {
  ReferenceBags out;
  out.status = td.ValidateFor(a);
  if (!out.status.ok()) return out;
  const size_t m = b.universe_size();
  for (uint32_t node = 0; node < td.node_count(); ++node) {
    const std::vector<Element>& bag = td.bag(node);
    auto at = [&](Element e) {
      return std::lower_bound(bag.begin(), bag.end(), e) - bag.begin();
    };
    // The tuples the bag covers, as (relation, bag positions).
    std::vector<std::pair<RelId, std::vector<size_t>>> covered;
    for (RelId rel = 0; rel < a.vocabulary()->size(); ++rel) {
      for (uint32_t t = 0; t < a.relation(rel).tuple_count(); ++t) {
        std::vector<size_t> positions;
        for (Element e : a.relation(rel).tuple(t)) {
          if (std::binary_search(bag.begin(), bag.end(), e)) {
            positions.push_back(at(e));
          }
        }
        if (positions.size() == a.relation(rel).arity()) {
          covered.emplace_back(rel, std::move(positions));
        }
      }
    }
    RowSet rows;
    std::vector<Element> assign(bag.size(), 0);
    for (bool more = m > 0; more;) {
      bool ok = true;
      for (const auto& [rel, positions] : covered) {
        std::vector<Element> image;
        for (size_t i : positions) image.push_back(assign[i]);
        ok = ok && b.relation(rel).Contains(image);
      }
      if (ok) rows.insert(assign);
      size_t pos = 0;  // the odometer: position 0 turns fastest
      while (pos < assign.size() && ++assign[pos] == m) assign[pos++] = 0;
      more = pos < assign.size();
    }
    out.table_rows += rows.size();
    out.tables.push_back(std::move(rows));
  }
  return out;
}

/// Runs the treewidth route at 1, 2 and 8 threads and checks each run:
/// status, the decision against the search, a witness that is a
/// homomorphism, every node's table (as a duplicate-free set) and
/// table_rows against the reference; table_entries must not depend on the
/// thread count.
void ExpectMatchesOdometer(const Structure& a, const Structure& b,
                           const TreeDecomposition& td) {
  const ReferenceBags want = ReferenceOdometerBags(a, b, td);
  const bool oracle =
      want.status.ok() && BacktrackingSolver(a, b).Solve().has_value();
  constexpr size_t kCountLimit = 5000;
  const size_t oracle_count =
      want.status.ok() ? BacktrackingSolver(a, b).CountSolutions(kCountLimit)
                       : 0;
  size_t entries = 0;
  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    TreewidthSolveStats stats;
    std::vector<std::vector<Element>> tables;
    auto got = SolveViaTreeDecomposition(a, b, td, &stats, nullptr, threads,
                                         &tables);
    ASSERT_EQ(got.ok(), want.status.ok()) << got.status().ToString();
    if (!got.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status.ToString());
      continue;
    }
    ASSERT_EQ(got->has_value(), oracle);
    if (oracle) {
      EXPECT_TRUE(IsHomomorphism(a, b, **got));
    }
    ASSERT_EQ(tables.size(), want.tables.size());
    for (uint32_t node = 0; node < td.node_count(); ++node) {
      const size_t width = td.bag(node).size();
      RowSet rows;
      for (size_t i = 0; i < tables[node].size(); i += width) {
        rows.emplace(tables[node].begin() + i,
                     tables[node].begin() + i + width);
      }
      EXPECT_EQ(rows.size() * width, tables[node].size())
          << "duplicate rows at node " << node;
      EXPECT_EQ(rows, want.tables[node]) << "node " << node;
    }
    EXPECT_EQ(stats.table_rows, want.table_rows);
    if (threads == 1) entries = stats.table_entries;
    EXPECT_EQ(stats.table_entries, entries);
    // The count over the same bag tables, saturated.
    YannakakisProgram program(nullptr, nullptr, threads);
    ASSERT_TRUE(
        program.FromBags(a, b, td, YannakakisProgram::Passes::kCount).ok());
    size_t count = 0;
    if (program.satisfiable()) count = *program.Count(kCountLimit);
    EXPECT_EQ(count, oracle_count);
  }
}

/// Sum over bags of |B|^|bag|: the reference's work, to keep it quick.
double OdometerWork(const TreeDecomposition& td, size_t m) {
  double work = 0;
  for (uint32_t node = 0; node < td.node_count(); ++node) {
    work += std::pow(static_cast<double>(m), td.bag(node).size());
  }
  return work;
}

/// `td` with every root but node 0 hung under node 0: children that share
/// no element with their parent (valid, as the pieces are disjoint).
TreeDecomposition JoinRoots(const TreeDecomposition& td) {
  TreeDecomposition out;
  for (uint32_t node = 0; node < td.node_count(); ++node) {
    uint32_t parent = td.parent(node);
    if (parent == TreeDecomposition::kNoParent && node > 0) parent = 0;
    out.AddNode(td.bag(node), parent);
  }
  return out;
}

TEST(PolyOracleTest, PrunedBagWalkMatchesTheOdometer) {
  Rng rng(1414);
  auto graph_vocab = MakeGraphVocabulary();
  auto mixed_vocab = std::make_shared<Vocabulary>();
  mixed_vocab->AddRelation("E", 2);
  mixed_vocab->AddRelation("P", 1);
  mixed_vocab->AddRelation("R", 3);
  int compared = 0;
  for (int trial = 0; trial < 480; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const uint32_t k = 1 + static_cast<uint32_t>(rng.Below(4));
    const size_t m = rng.Below(6);  // |B| = 0 and 1 included
    // Every fourth source keeps only 30% of its k-tree's edges: a forest of
    // pieces, often with isolated vertices. Every third pair is random
    // E/2, P/1, R/3 facts (self-loops, unary facts, arity 3); the others
    // are graphs into symmetric or directed targets.
    const double keep = trial % 4 == 3 ? 0.3 : 0.6 + 0.4 * rng.Chance(0.5);
    const bool mixed = trial % 3 == 2;
    Structure a = mixed ? RandomStructure(mixed_vocab, 1 + rng.Below(9),
                                          2 + rng.Below(6), rng)
                        : StructureFromGraph(
                              graph_vocab, RandomPartialKTree(
                                               k + 1 + rng.Below(24), k, keep,
                                               rng));
    Structure b =
        mixed ? RandomStructure(mixed_vocab, m, m == 0 ? 0 : 1 + m * m, rng)
              : RandomGraphStructure(graph_vocab, m, 0.5, rng, trial % 3 == 0);
    TreeDecomposition td = *HeuristicDecomposition(a);
    if (rng.Chance(0.3)) td = JoinRoots(td);
    if (OdometerWork(td, m) > 2e5) continue;
    ExpectMatchesOdometer(a, b, td);
    ++compared;
  }
  EXPECT_GT(compared, 400);
}

TEST(PolyOracleTest, PrunedBagWalkDegenerateShapes) {
  auto vocab = MakeGraphVocabulary();
  // Empty sources, and isolated vertices (single-element bags, no tuples)
  // as a forest and joined under one root, into |B| = 0, 1 and 3.
  Structure empty(vocab, 0);
  Structure isolated(vocab, 4);
  const TreeDecomposition apart = *HeuristicDecomposition(isolated);
  for (size_t m : {0, 1, 3}) {
    const Structure b = CliqueStructure(vocab, m);
    ExpectMatchesOdometer(empty, b, TreeDecomposition());
    ExpectMatchesOdometer(isolated, b, apart);
    ExpectMatchesOdometer(isolated, b, JoinRoots(apart));
  }
  // An empty bag is rejected by validation in both.
  Structure path = PathStructure(vocab, 3);
  TreeDecomposition td = *HeuristicDecomposition(path);
  td.AddNode({}, 0);
  ExpectMatchesOdometer(path, CliqueStructure(vocab, 2), td);
}

// ---- The one-pass count and the pruned projection against the full
// reduction. ----------------------------------------------------------------
//
// AcyclicCount runs one bottom-up sum-product pass over the unreduced atom
// tables, and AcyclicProject skips the joins with children that add no
// columns. The reference below is the program they replaced, kept here only
// as the oracle, over std containers: probe-then-append materialization,
// the bottom-up and top-down semijoin passes, a count DP that walks every
// match of every parent row, and a join-project pass that joins every
// child. Its join emits a left row's matches newest first — the hash
// index's chain order — so reference and kernel agree row for row.

using Rows = std::vector<std::vector<Element>>;

class ReferenceYannakakis {
 public:
  ReferenceYannakakis(const ConjunctiveQuery& q, const Structure& d)
      : q_(q), d_(d), m_(q.atoms().size()) {
    tree_ = *GyoJoinForest(q.var_count(), QueryHyperedges(q));
    Materialize();
    Shape();
    for (const Rows& t : tables_) {
      if (t.empty()) return;
    }
    satisfiable_ = Reduce();
  }

  uint64_t rows_materialized() const { return rows_materialized_; }
  uint64_t materialized_max() const { return materialized_max_; }
  uint64_t rows_pruned() const { return rows_pruned_; }

  /// min(#assignments, limit): the saturated product/sum DP over the
  /// reduced tables, summing each parent row's matches one by one.
  size_t Count(size_t limit) const {
    if (!satisfiable_) return 0;
    std::vector<std::vector<size_t>> cnt(m_);
    for (uint32_t node : order_) {
      cnt[node].assign(tables_[node].size(), 1);
      for (uint32_t child : children_[node]) {
        for (size_t r = 0; r < tables_[node].size(); ++r) {
          const auto key = Key(node, tables_[node][r], shared_[child]);
          size_t sum = 0;
          for (size_t s = 0; s < tables_[child].size(); ++s) {
            if (Key(child, tables_[child][s], shared_[child]) == key) {
              sum = SatAdd(sum, cnt[child][s], limit);
            }
          }
          cnt[node][r] = SatMul(cnt[node][r], sum, limit);
        }
      }
    }
    size_t total = 1;
    for (uint32_t root : roots_) {
      size_t tree_total = 0;
      for (size_t c : cnt[root]) tree_total = SatAdd(tree_total, c, limit);
      total = SatMul(total, tree_total, limit);
    }
    for (size_t k = 0; k < isolated_.size(); ++k) {
      total = SatMul(total, d_.universe_size(), limit);
    }
    return total;
  }

  struct Projection {
    Rows rows;
    uint64_t join_rows = 0;
    uint64_t max_table_rows = 0;
  };

  /// Distinct projections onto `proj` in AcyclicProject's order, with the
  /// join_rows and max_table_rows that every-child joining produces.
  Projection Project(std::span<const VarId> proj) const {
    Projection out;
    out.max_table_rows = materialized_max_;
    if (!satisfiable_) return out;
    if (d_.universe_size() == 0 && q_.var_count() > 0) return out;
    std::vector<uint8_t> in_proj(q_.var_count(), 0);
    for (VarId v : proj) in_proj[v] = 1;
    auto bump = [&](size_t rows) {
      out.max_table_rows = std::max<uint64_t>(out.max_table_rows, rows);
    };
    std::vector<Rows> r_table(m_);
    std::vector<std::vector<VarId>> r_cols(m_);
    for (uint32_t node : order_) {
      Rows cur = tables_[node];
      std::vector<VarId> cols = vars_[node];
      for (uint32_t child : children_[node]) {
        std::vector<size_t> extras;
        for (size_t i = 0; i < r_cols[child].size(); ++i) {
          if (!Contains(shared_[child], r_cols[child][i])) extras.push_back(i);
        }
        Rows next;
        for (const auto& row : cur) {
          const auto key = Project(cols, row, shared_[child]);
          for (size_t s = r_table[child].size(); s-- > 0;) {
            if (Project(r_cols[child], r_table[child][s], shared_[child]) !=
                key) {
              continue;
            }
            std::vector<Element> joined = row;
            for (size_t i : extras) joined.push_back(r_table[child][s][i]);
            next.push_back(std::move(joined));
          }
        }
        for (size_t i : extras) cols.push_back(r_cols[child][i]);
        cur = std::move(next);
        out.join_rows += cur.size();
        bump(cur.size());
      }
      std::vector<VarId> keep;
      for (VarId v : cols) {
        const bool connector = tree_.parent[node] != JoinTree::kNoParent &&
                               Contains(shared_[node], v);
        if (in_proj[v] || connector) keep.push_back(v);
      }
      std::set<std::vector<Element>> seen;
      for (const auto& row : cur) {
        auto projected = Project(cols, row, keep);
        if (seen.insert(projected).second) {
          r_table[node].push_back(std::move(projected));
        }
      }
      r_cols[node] = std::move(keep);
      bump(r_table[node].size());
    }
    // Cross product over the trees' rows and the isolated projection
    // variables: isolated values turn fastest, then tree 0's row, ...
    std::vector<VarId> iso_proj;
    for (VarId v : isolated_) {
      if (in_proj[v]) iso_proj.push_back(v);
    }
    std::vector<Element> value_of(q_.var_count(), 0);
    std::vector<size_t> root_row(roots_.size(), 0);
    std::vector<Element> iso_val(iso_proj.size(), 0);
    while (true) {
      for (size_t t = 0; t < roots_.size(); ++t) {
        const auto& cols = r_cols[roots_[t]];
        for (size_t i = 0; i < cols.size(); ++i) {
          value_of[cols[i]] = r_table[roots_[t]][root_row[t]][i];
        }
      }
      for (size_t i = 0; i < iso_proj.size(); ++i) {
        value_of[iso_proj[i]] = iso_val[i];
      }
      std::vector<Element> row;
      for (VarId v : proj) row.push_back(value_of[v]);
      out.rows.push_back(std::move(row));
      size_t k = 0;
      while (k < iso_val.size() && ++iso_val[k] == d_.universe_size()) {
        iso_val[k++] = 0;
      }
      if (k < iso_val.size()) continue;
      size_t t = 0;
      while (t < roots_.size() &&
             ++root_row[t] == r_table[roots_[t]].size()) {
        root_row[t++] = 0;
      }
      if (t == roots_.size()) break;
    }
    return out;
  }

 private:
  static bool Contains(const std::vector<VarId>& vars, VarId v) {
    return std::find(vars.begin(), vars.end(), v) != vars.end();
  }
  /// `row` (columns `cols`) read off at the variables `on`.
  static std::vector<Element> Project(const std::vector<VarId>& cols,
                                      const std::vector<Element>& row,
                                      const std::vector<VarId>& on) {
    std::vector<Element> out;
    for (VarId v : on) {
      out.push_back(row[std::find(cols.begin(), cols.end(), v) - cols.begin()]);
    }
    return out;
  }
  std::vector<Element> Key(uint32_t node, const std::vector<Element>& row,
                           const std::vector<VarId>& on) const {
    return Project(vars_[node], row, on);
  }

  void Materialize() {
    vars_.resize(m_);
    tables_.resize(m_);
    std::vector<uint8_t> in_atom(q_.var_count(), 0);
    for (size_t i = 0; i < m_; ++i) {
      const Atom& atom = q_.atoms()[i];
      vars_[i].assign(atom.args.begin(), atom.args.end());
      std::sort(vars_[i].begin(), vars_[i].end());
      vars_[i].erase(std::unique(vars_[i].begin(), vars_[i].end()),
                     vars_[i].end());
      for (VarId v : atom.args) in_atom[v] = 1;
      const Relation& rel = d_.relation(atom.rel);
      std::set<std::vector<Element>> seen;
      for (size_t t = 0; t < rel.tuple_count(); ++t) {
        std::map<VarId, Element> value;
        bool ok = true;
        for (size_t p = 0; p < atom.args.size(); ++p) {
          auto [it, fresh] = value.emplace(atom.args[p], rel.tuple(t)[p]);
          ok = ok && it->second == rel.tuple(t)[p];
        }
        if (!ok) continue;
        std::vector<Element> row;
        for (VarId v : vars_[i]) row.push_back(value[v]);
        if (seen.insert(row).second) tables_[i].push_back(std::move(row));
      }
      rows_materialized_ += tables_[i].size();
      materialized_max_ =
          std::max<uint64_t>(materialized_max_, tables_[i].size());
    }
    for (VarId v = 0; v < q_.var_count(); ++v) {
      if (!in_atom[v]) isolated_.push_back(v);
    }
  }

  /// Children lists (ascending), roots, shared variables, and a
  /// children-first order (deepest nodes first).
  void Shape() {
    children_.resize(m_);
    shared_.resize(m_);
    std::vector<size_t> depth(m_, 0);
    for (uint32_t i = 0; i < m_; ++i) {
      const uint32_t p = tree_.parent[i];
      if (p == JoinTree::kNoParent) {
        roots_.push_back(i);
        continue;
      }
      children_[p].push_back(i);
      std::set_intersection(vars_[i].begin(), vars_[i].end(),
                            vars_[p].begin(), vars_[p].end(),
                            std::back_inserter(shared_[i]));
      for (uint32_t a = p; a != JoinTree::kNoParent; a = tree_.parent[a]) {
        ++depth[i];
      }
    }
    for (uint32_t i = 0; i < m_; ++i) order_.push_back(i);
    std::stable_sort(
        order_.begin(), order_.end(),
        [&](uint32_t a, uint32_t b) { return depth[a] > depth[b]; });
  }

  /// left := left ⋉ right on `shared_[child]`; counts the removed rows.
  void Semijoin(uint32_t left, uint32_t right, uint32_t child) {
    std::set<std::vector<Element>> keys;
    for (const auto& row : tables_[right]) {
      keys.insert(Key(right, row, shared_[child]));
    }
    Rows kept;
    for (auto& row : tables_[left]) {
      if (keys.count(Key(left, row, shared_[child]))) {
        kept.push_back(std::move(row));
      }
    }
    rows_pruned_ += tables_[left].size() - kept.size();
    tables_[left] = std::move(kept);
  }

  /// The full reduction; false when the bottom-up pass empties a table.
  bool Reduce() {
    for (uint32_t node : order_) {
      const uint32_t p = tree_.parent[node];
      if (p == JoinTree::kNoParent) continue;
      Semijoin(p, node, node);
      if (tables_[p].empty()) return false;
    }
    for (size_t i = order_.size(); i-- > 0;) {
      for (uint32_t child : children_[order_[i]]) {
        Semijoin(child, order_[i], child);
      }
    }
    return true;
  }

  const ConjunctiveQuery& q_;
  const Structure& d_;
  const size_t m_;
  JoinTree tree_;
  std::vector<std::vector<VarId>> vars_;
  std::vector<Rows> tables_;
  std::vector<std::vector<uint32_t>> children_;
  std::vector<std::vector<VarId>> shared_;
  std::vector<uint32_t> roots_;
  std::vector<uint32_t> order_;
  std::vector<VarId> isolated_;
  bool satisfiable_ = false;
  uint64_t rows_materialized_ = 0;
  uint64_t materialized_max_ = 0;
  uint64_t rows_pruned_ = 0;
};

TEST(PolyOracleTest, HashIndexChainsRunInDescendingRowOrder) {
  // The count fold and the bulk dedup read this off the chains: Next(r) < r,
  // FindFirst yields a key's last row, and only its first row ends a chain.
  // Checked for both layouts (a one-column key whose values fit the slot
  // count is addressed directly; any other key is hashed), for a fresh Build
  // and for a Build that replaces one of the other layout, and for
  // FindFirstBatch against FindFirst on present keys, absent keys and keys
  // past the largest value. Column 0 is dense with gaps (even values below
  // 14), column 1 dense, column 2 sparse: its values pass any slot count
  // 500 rows can have.
  constexpr uint32_t kWidth = 3;
  Rng rng(1518);
  std::vector<Element> rows;
  for (int r = 0; r < 500; ++r) {
    rows.push_back(static_cast<Element>(2 * rng.Below(7)));
    rows.push_back(static_cast<Element>(rng.Below(3)));
    rows.push_back(static_cast<Element>(100000 * rng.Below(5)));
  }
  const uint32_t n = static_cast<uint32_t>(rows.size() / kWidth);
  const std::vector<std::vector<uint32_t>> key_sets = {
      {0}, {1}, {2}, {0, 1}, {1, 2}};
  for (const std::vector<uint32_t>& key_cols : key_sets) {
    SCOPED_TRACE(testing::Message() << "key on " << key_cols.size()
                                    << " columns, first " << key_cols[0]);
    auto key_of = [&](uint32_t r) {
      std::vector<Element> key;
      for (uint32_t c : key_cols) key.push_back(rows[kWidth * r + c]);
      return key;
    };
    // The replaced Build uses the other layout: hashed for a key on a
    // dense column, direct otherwise.
    const bool dense = key_cols.size() == 1 && key_cols[0] != 2;
    rel::HashIndex built, rebuilt;
    built.Build(rows.data(), kWidth, n, key_cols);
    rebuilt.Build(rows.data(), kWidth, n / 5,
                  dense ? std::vector<uint32_t>{2} : std::vector<uint32_t>{1});
    rebuilt.Build(rows.data(), kWidth, n, key_cols);
    for (const rel::HashIndex* index : {&built, &rebuilt}) {
      std::map<std::vector<Element>, uint32_t> first, last;
      for (uint32_t r = 0; r < n; ++r) {
        const std::vector<Element> key = key_of(r);
        first.emplace(key, r);
        last[key] = r;
        const uint32_t next = index->Next(r);
        if (next != rel::HashIndex::kNone) EXPECT_LT(next, r);
        EXPECT_EQ(next == rel::HashIndex::kNone, first.at(key) == r);
      }
      // Every present key, each with one cell bumped (absent for column
      // 0's odd values; one past the largest value for the maxima), and
      // one key far past every value.
      std::vector<std::vector<Element>> probes;
      for (const auto& [key, r] : last) {
        probes.push_back(key);
        for (size_t i = 0; i < key.size(); ++i) {
          probes.push_back(key);
          ++probes.back()[i];
        }
      }
      probes.emplace_back(key_cols.size(), Element{1} << 30);
      rel::ProbeBatch batch;
      batch.Reset(static_cast<uint32_t>(key_cols.size()));
      auto resolve = [&] {
        index->FindFirstBatch(rows.data(), &batch);
        for (size_t i = 0; i < batch.size(); ++i) {
          const std::vector<Element>& key = probes[batch.tag(i)];
          const auto hit = last.find(key);
          const uint32_t want =
              hit == last.end() ? rel::HashIndex::kNone : hit->second;
          EXPECT_EQ(index->FindFirst(rows.data(), key), want);
          EXPECT_EQ(batch.result(i), want);
        }
        batch.Clear();
      };
      for (uint32_t p = 0; p < probes.size(); ++p) {
        std::copy(probes[p].begin(), probes[p].end(), batch.Append(p));
        if (batch.full()) resolve();
      }
      resolve();
    }
  }
}

constexpr unsigned kEquivalenceThreads[] = {1, 2, 8};

/// AcyclicCount at several limits and thread counts against the reference:
/// equal counts, no semijoins, and the reference's materialization stats.
void ExpectCountMatchesReference(const ConjunctiveQuery& q,
                                 const Structure& d,
                                 const ReferenceYannakakis& ref) {
  for (size_t limit : {size_t{1}, size_t{2}, size_t{7}, size_t{10000},
                       size_t{SIZE_MAX}}) {
    const size_t want = ref.Count(limit);
    for (unsigned threads : kEquivalenceThreads) {
      SCOPED_TRACE(testing::Message()
                   << "count limit " << limit << ", " << threads
                   << " threads");
      YannakakisStats stats;
      auto got = AcyclicCount(q, d, limit, &stats, nullptr, threads);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, want);
      EXPECT_EQ(stats.semijoins, 0u);
      EXPECT_EQ(stats.rows_pruned, 0u);
      EXPECT_EQ(stats.atom_tables, q.atoms().size());
      EXPECT_EQ(stats.rows_materialized, ref.rows_materialized());
      EXPECT_EQ(stats.max_table_rows, ref.materialized_max());
    }
  }
}

/// AcyclicProject (rows in order, join_rows, max_table_rows) and
/// AcyclicProjectCount against the reference at every thread count.
void ExpectProjectMatchesReference(const ConjunctiveQuery& q,
                                   const Structure& d,
                                   const ReferenceYannakakis& ref,
                                   const std::vector<VarId>& proj) {
  const ReferenceYannakakis::Projection want = ref.Project(proj);
  for (unsigned threads : kEquivalenceThreads) {
    SCOPED_TRACE(testing::Message() << "project onto " << proj.size()
                                    << " vars, " << threads << " threads");
    YannakakisStats stats;
    auto rows = AcyclicProject(q, d, proj, SIZE_MAX, &stats, nullptr, threads);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(*rows, want.rows);
    EXPECT_EQ(stats.join_rows, want.join_rows);
    EXPECT_EQ(stats.max_table_rows, want.max_table_rows);
    EXPECT_EQ(stats.rows_materialized, ref.rows_materialized());
    auto count = AcyclicProjectCount(q, d, proj, SIZE_MAX, nullptr, nullptr,
                                     threads);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(*count, want.rows.size());
  }
}

VocabularyPtr MixedVocabulary() {
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("E", 2);
  vocab->AddRelation("T", 3);
  vocab->AddRelation("U", 1);
  return vocab;
}

/// A random acyclic query over E/2, T/3, U/1. Each atom after the first
/// shares at most two variables with one earlier atom, so it is an ear and
/// GYO removes it; sometimes it shares none (a forest). One atom in five
/// repeats a variable (E(X,X)), and some queries keep a variable in no
/// atom.
ConjunctiveQuery RandomAcyclicQuery(const VocabularyPtr& vocab, Rng& rng) {
  ConjunctiveQuery q(vocab, "Q");
  VarId next_var = 0;
  auto fresh = [&] {
    return q.GetOrCreateVar("V" + std::to_string(next_var++));
  };
  const size_t atoms = rng.Below(8);
  for (size_t i = 0; i < atoms; ++i) {
    const RelId rel = static_cast<RelId>(rng.Below(3));
    const size_t arity = vocab->arity(rel);
    std::vector<VarId> pool;  // variables the new atom may reuse
    if (i > 0 && !rng.Chance(0.15)) {
      const Atom& host = q.atoms()[rng.Below(i)];
      pool.assign(host.args.begin(), host.args.end());
      std::sort(pool.begin(), pool.end());
      pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
      while (pool.size() > 2) pool.erase(pool.begin() + rng.Below(pool.size()));
    }
    std::vector<VarId> args;
    for (size_t p = 0; p < arity; ++p) {
      if (!args.empty() && rng.Chance(0.2)) {
        args.push_back(args[rng.Below(args.size())]);  // repeated variable
      } else if (!pool.empty() && rng.Chance(0.6)) {
        const size_t k = rng.Below(pool.size());
        args.push_back(pool[k]);
        pool.erase(pool.begin() + k);
      } else {
        args.push_back(fresh());
      }
    }
    q.AddAtom(rel, std::move(args));
  }
  if (atoms == 0 || rng.Chance(0.3)) fresh();  // a variable in no atom
  return q;
}

/// A small database with duplicate tuples and many dangling rows: E and T
/// are sparse random relations, U holds one or two elements, and one
/// relation in six is empty.
Structure RandomDanglingDatabase(const VocabularyPtr& vocab, Rng& rng) {
  const size_t n = rng.Chance(0.05) ? 0 : 2 + rng.Below(5);
  Structure d(vocab, n);
  if (n == 0) return d;
  for (RelId rel = 0; rel < 3; ++rel) {
    if (rng.Chance(1.0 / 6)) continue;
    const size_t arity = vocab->arity(rel);
    const size_t tuples = arity == 1 ? 1 + rng.Below(2) : n + rng.Below(2 * n);
    std::vector<Element> tuple(arity);
    for (size_t t = 0; t < tuples; ++t) {
      for (Element& e : tuple) e = static_cast<Element>(rng.Below(n));
      d.AddTuple(rel, tuple);
      if (rng.Chance(0.2)) d.AddTuple(rel, tuple);  // duplicate tuple
    }
  }
  return d;
}

/// Builds every relation's sorted index, as a serving database has it, so
/// the program knows which relations are duplicate-free: their atoms skip
/// the dedup pass, and the ones holding duplicates still take it. Counts
/// the nonempty relations of each kind.
void IndexEveryRelation(const Structure& d, int* sets, int* bags) {
  for (RelId rel = 0; rel < d.vocabulary()->size(); ++rel) {
    const Relation& relation = d.relation(rel);
    relation.EnsureIndex();
    if (relation.empty()) continue;
    ++*(*relation.duplicate_free() ? sets : bags);
  }
}

TEST(PolyOracleTest, OnePassCountMatchesTheFullReduction) {
  Rng rng(1515);
  auto vocab = MixedVocabulary();
  int pruned = 0, sets = 0, bags = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const ConjunctiveQuery q = RandomAcyclicQuery(vocab, rng);
    ASSERT_TRUE(
        GyoJoinForest(q.var_count(), QueryHyperedges(q)).has_value());
    const Structure d = RandomDanglingDatabase(vocab, rng);
    if (trial % 2 == 1) IndexEveryRelation(d, &sets, &bags);
    const ReferenceYannakakis ref(q, d);
    if (ref.rows_pruned() > 0) ++pruned;
    ExpectCountMatchesReference(q, d, ref);
  }
  // At least a quarter of the instances must exercise what the semijoins
  // prune and the one pass carries as zero counts, and the indexed trials
  // must reach both sides of the dedup skip.
  EXPECT_GT(pruned, 250);
  EXPECT_GT(sets, 100);
  EXPECT_GT(bags, 100);
}

TEST(PolyOracleTest, PrunedProjectionMatchesTheFullJoin) {
  Rng rng(1516);
  auto vocab = MixedVocabulary();
  int sets = 0, bags = 0;
  for (int trial = 0; trial < 500; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const ConjunctiveQuery q = RandomAcyclicQuery(vocab, rng);
    const Structure d = RandomDanglingDatabase(vocab, rng);
    if (trial % 2 == 1) IndexEveryRelation(d, &sets, &bags);
    const ReferenceYannakakis ref(q, d);
    std::vector<VarId> proj;
    const size_t width = rng.Below(4);
    for (size_t i = 0; i < width && q.var_count() > 0; ++i) {
      proj.push_back(static_cast<VarId>(rng.Below(q.var_count())));
    }
    ExpectProjectMatchesReference(q, d, ref, proj);
    // The variables of the join tree's first root and of a leaf.
    if (q.atoms().empty()) continue;
    const JoinTree tree = *GyoJoinForest(q.var_count(), QueryHyperedges(q));
    std::vector<uint8_t> has_child(tree.parent.size(), 0);
    for (uint32_t p : tree.parent) {
      if (p != JoinTree::kNoParent) has_child[p] = 1;
    }
    for (size_t i = 0; i < tree.parent.size(); ++i) {
      if (tree.parent[i] == JoinTree::kNoParent || !has_child[i]) {
        ExpectProjectMatchesReference(q, d, ref, q.atoms()[i].args);
        if (tree.parent[i] == JoinTree::kNoParent) break;
      }
    }
  }
  EXPECT_GT(sets, 50);
  EXPECT_GT(bags, 50);
}

TEST(PolyOracleTest, ChainProjectionsMatchTheFullJoin) {
  // Chains put a leaf and the root at the two ends: project at either end,
  // both, in the middle, and with repeated variables.
  Rng rng(1517);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const size_t length = 1 + rng.Below(6);
    const ConjunctiveQuery q = ChainQuery(vocab, length);
    const Structure d = RandomGraphStructure(vocab, 3 + rng.Below(4), 0.35,
                                             rng, /*symmetric=*/false);
    const ReferenceYannakakis ref(q, d);
    const VarId first = 0;
    const VarId last = static_cast<VarId>(length);
    const VarId mid = static_cast<VarId>(length / 2);
    for (const std::vector<VarId>& proj :
         std::vector<std::vector<VarId>>{{first},
                                         {last},
                                         {first, last},
                                         {last, first, first},
                                         {mid, mid},
                                         {}}) {
      ExpectProjectMatchesReference(q, d, ref, proj);
    }
    ExpectCountMatchesReference(q, d, ref);
  }
}

TEST(PolyOracleTest, EquivalenceDegenerateShapes) {
  auto vocab = MixedVocabulary();
  const RelId e = 0, t = 1, u = 2;
  Structure d(vocab, 3);
  d.AddTuple(e, {0, 0});
  d.AddTuple(e, {0, 1});
  d.AddTuple(e, {0, 1});
  d.AddTuple(e, {1, 2});
  d.AddTuple(t, {0, 1, 0});
  d.AddTuple(t, {2, 2, 2});
  d.AddTuple(u, {1});
  const Structure empty_universe(vocab, 0);
  const Structure no_tuples(vocab, 2);

  const Structure* const dbs[] = {&d, &empty_universe, &no_tuples};

  std::vector<ConjunctiveQuery> queries;
  {  // E(X,X): the repeated variable keeps one tuple of E.
    ConjunctiveQuery q(vocab, "Q");
    VarId x = q.GetOrCreateVar("X");
    q.AddAtom(e, {x, x});
    queries.push_back(q);
  }
  {  // A ternary atom with a repeat, a unary leaf, and an isolated variable.
    ConjunctiveQuery q(vocab, "Q");
    VarId x = q.GetOrCreateVar("X"), y = q.GetOrCreateVar("Y");
    q.GetOrCreateVar("Z");
    q.AddAtom(t, {x, y, x});
    q.AddAtom(u, {y});
    q.AddAtom(e, {x, y});
    queries.push_back(q);
  }
  {  // A forest: two components sharing nothing.
    ConjunctiveQuery q(vocab, "Q");
    VarId a = q.GetOrCreateVar("A"), b = q.GetOrCreateVar("B");
    VarId c = q.GetOrCreateVar("C"), w = q.GetOrCreateVar("W");
    q.AddAtom(e, {a, b});
    q.AddAtom(u, {b});
    q.AddAtom(e, {c, w});
    q.AddAtom(e, {w, w});
    queries.push_back(q);
  }
  {  // No atoms at all: every variable is isolated.
    ConjunctiveQuery q(vocab, "Q");
    q.GetOrCreateVar("X");
    q.GetOrCreateVar("Y");
    queries.push_back(q);
  }
  queries.push_back(ConjunctiveQuery(vocab, "Q"));  // no variables either

  for (size_t i = 0; i < queries.size(); ++i) {
    const ConjunctiveQuery& q = queries[i];
    for (const Structure* db : dbs) {
      SCOPED_TRACE(testing::Message() << "query " << i << ", universe "
                                      << db->universe_size());
      const ReferenceYannakakis ref(q, *db);
      ExpectCountMatchesReference(q, *db, ref);
      std::vector<VarId> all;
      for (VarId v = 0; v < q.var_count(); ++v) all.push_back(v);
      ExpectProjectMatchesReference(q, *db, ref, all);
      if (!all.empty()) {
        ExpectProjectMatchesReference(q, *db, ref, {all.back(), all[0]});
      }
    }
  }
}

}  // namespace
}  // namespace cqcs
