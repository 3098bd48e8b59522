// Front-door routing tests: the HomEngine must (1) pick a polynomial
// backend exactly when the paper's theorems license one, naming the profile
// evidence in Explain(), (2) agree with the uniform search on every answer
// whichever backend ran, (3) fall back — not abort — when an island's
// precondition fails, and (4) reuse a compiled HomProblem's artifacts
// across repeated solves and target rebinds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "api/engine.h"
#include "common/governor.h"
#include "common/rng.h"
#include "core/homomorphism.h"
#include "cq/canonical.h"
#include "cq/containment.h"
#include "cq/parser.h"
#include "gen/generators.h"
#include "solver/backtracking.h"

namespace cqcs {
namespace {

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

// The uniform search as the trusted oracle (its own correctness is locked
// down by the solver crosscheck suite).
bool OracleDecide(const Structure& a, const Structure& b) {
  BacktrackingSolver solver(a, b);
  return solver.Solve().has_value();
}

TEST(EngineRoutingTest, AcyclicSourcePicksYannakakisForDecide) {
  Rng rng(101);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 10; ++trial) {
    Structure a = StructureFromGraph(vocab, RandomTree(8 + rng.Below(6), rng));
    Structure b =
        RandomGraphStructure(vocab, 3 + rng.Below(4), 0.4, rng, true);
    HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
    HomEngine engine;
    EngineResult r = MustRun(engine, p, HomTask::kDecide);
    EXPECT_EQ(r.explain.chosen, Backend::kAcyclic) << r.explain.ToJson();
    EXPECT_TRUE(r.explain.profiled);
    EXPECT_TRUE(r.explain.profile.source_acyclic);
    EXPECT_NE(r.explain.reason.find("acyclic"), std::string::npos);
    EXPECT_FALSE(r.stats.used_search);
    EXPECT_EQ(r.decided, OracleDecide(a, b)) << "trial " << trial;
  }
}

TEST(EngineRoutingTest, TreeSourceWitnessTakesYannakakis) {
  // Witness requests stay on the acyclic route: the full Yannakakis
  // program extracts a witness from the reduced join forest, so a tree
  // source never needs the DP or the search.
  Rng rng(202);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 10; ++trial) {
    Structure a = StructureFromGraph(vocab, RandomTree(8 + rng.Below(6), rng));
    Structure b =
        RandomGraphStructure(vocab, 3 + rng.Below(4), 0.5, rng, true);
    HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
    HomEngine engine;
    EngineResult r = MustRun(engine, p, HomTask::kWitness);
    EXPECT_EQ(r.explain.chosen, Backend::kAcyclic) << r.explain.ToJson();
    EXPECT_FALSE(r.stats.used_search);
    EXPECT_TRUE(r.stats.used_acyclic);
    EXPECT_EQ(r.explain.served, HomTask::kWitness);
    EXPECT_EQ(r.decided, OracleDecide(a, b)) << "trial " << trial;
    if (r.decided) {
      ASSERT_TRUE(r.witness.has_value());
      EXPECT_TRUE(IsHomomorphism(a, b, *r.witness));
    }
  }
}

TEST(EngineRoutingTest, BoundedWidthSourcePicksTreewidthDp) {
  Rng rng(303);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 10; ++trial) {
    // Partial 2-trees keep treewidth <= 2; the min-fill estimate tracks it.
    Structure a = StructureFromGraph(
        vocab, RandomPartialKTree(10 + rng.Below(8), 2, 0.85, rng));
    Structure b =
        RandomGraphStructure(vocab, 3 + rng.Below(3), 0.5, rng, true);
    HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
    HomEngine engine;
    EngineResult r = MustRun(engine, p, HomTask::kWitness);
    // Dropping edges can leave a partial 2-tree acyclic, in which case
    // the (cheaper) Yannakakis route wins; otherwise the DP must fire.
    EXPECT_EQ(r.explain.chosen,
              p.SourceAcyclic() ? Backend::kAcyclic : Backend::kTreewidth)
        << r.explain.ToJson();
    if (!p.SourceAcyclic()) {
      EXPECT_LE(r.explain.profile.width_estimate, 3);
    }
    EXPECT_EQ(r.decided, OracleDecide(a, b)) << "trial " << trial;
    if (r.decided) {
      ASSERT_TRUE(r.witness.has_value());
      EXPECT_TRUE(IsHomomorphism(a, b, *r.witness));
    }
  }
}

TEST(EngineRoutingTest, SchaeferTargetPicksUniformPolyAlgorithm) {
  Rng rng(404);
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("R", 3);
  for (int trial = 0; trial < 10; ++trial) {
    Structure b =
        RandomClosedBooleanStructure(vocab, 3, ClosureOp::kAnd, 4, rng);
    Structure a = RandomStructure(vocab, 8 + rng.Below(8),
                                  12 + rng.Below(12), rng);
    HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
    HomEngine engine;
    EngineResult r = MustRun(engine, p, HomTask::kWitness);
    EXPECT_EQ(r.explain.chosen, Backend::kSchaefer) << r.explain.ToJson();
    EXPECT_TRUE(r.explain.profile.target_boolean);
    EXPECT_NE(r.explain.profile.schaefer_classes, 0);
    EXPECT_FALSE(r.stats.used_search);
    EXPECT_TRUE(r.stats.used_schaefer);
    EXPECT_EQ(r.decided, OracleDecide(a, b)) << "trial " << trial;
    if (r.decided) {
      ASSERT_TRUE(r.witness.has_value());
      EXPECT_TRUE(IsHomomorphism(a, b, *r.witness));
    }
  }
}

TEST(EngineRoutingTest, FallbackWhenWidthEstimateTooHigh) {
  // K6 -> K5: cyclic, width estimate 5 > max_auto_width, non-Boolean
  // target. kAuto must fall all the way back to the uniform search and
  // still answer correctly (no 6-clique in K5).
  auto vocab = MakeGraphVocabulary();
  Structure k6 = CliqueStructure(vocab, 6);
  Structure k5 = CliqueStructure(vocab, 5);
  HomProblem p = MustProblem(HomProblem::FromStructures(k6, k5));
  HomEngine engine;
  EngineResult r = MustRun(engine, p, HomTask::kDecide);
  EXPECT_EQ(r.explain.chosen, Backend::kUniform) << r.explain.ToJson();
  EXPECT_TRUE(r.stats.used_search);
  EXPECT_FALSE(r.decided);
  EXPECT_EQ(r.explain.profile.width_estimate, 5);
  bool noted_width = false;
  for (const std::string& f : r.explain.fallbacks) {
    if (f.find("treewidth") != std::string::npos) noted_width = true;
  }
  EXPECT_TRUE(noted_width) << r.explain.ToJson();
}

TEST(EngineRoutingTest, FallbackOnNonSchaeferBooleanTarget) {
  // 1-in-3-SAT as a structure: Boolean but in no Schaefer class. With a
  // dense cyclic source the width gate fails too, so kAuto lands on the
  // search — with both refusals recorded.
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("R", 3);
  Structure b(vocab, 2);
  b.AddTuple(0, {0, 0, 1});
  b.AddTuple(0, {0, 1, 0});
  b.AddTuple(0, {1, 0, 0});
  Rng rng(505);
  Structure a = RandomStructure(vocab, 12, 40, rng);
  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
  ASSERT_TRUE(p.TargetBoolean());
  ASSERT_EQ(p.TargetSchaeferClasses(), 0);
  ASSERT_FALSE(p.SourceAcyclic());
  ASSERT_GT(p.SourceDecomposition().Width(), 3);
  HomEngine engine;
  EngineResult r = MustRun(engine, p, HomTask::kDecide);
  EXPECT_EQ(r.explain.chosen, Backend::kUniform) << r.explain.ToJson();
  bool noted_schaefer = false;
  for (const std::string& f : r.explain.fallbacks) {
    if (f.find("outside every Schaefer class") != std::string::npos) {
      noted_schaefer = true;
    }
  }
  EXPECT_TRUE(noted_schaefer) << r.explain.ToJson();
  EXPECT_EQ(r.decided, OracleDecide(a, b));
}

TEST(EngineRoutingTest, CrossBackendOracleAgreement) {
  // Randomized agreement net: wherever >= 2 backends apply, they must all
  // return the oracle's decide answer.
  Rng rng(606);
  auto vocab = MakeGraphVocabulary();
  int multi_backend_instances = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Structure a = RandomGraphStructure(vocab, 3 + rng.Below(4),
                                       0.3 + 0.1 * rng.Below(3), rng, false);
    Structure b = RandomGraphStructure(vocab, 2 + rng.Below(3), 0.4, rng,
                                       false);
    bool oracle = OracleDecide(a, b);
    HomProblem p = MustProblem(HomProblem::FromStructures(a, b));

    // kAuto, whatever it picks.
    HomEngine auto_engine;
    EngineResult r = MustRun(auto_engine, p, HomTask::kDecide);
    EXPECT_EQ(r.decided, oracle)
        << "auto chose " << BackendName(r.explain.chosen) << " on trial "
        << trial;

    // Every explicitly applicable backend.
    int applicable = 1;  // uniform always applies
    EngineOptions uniform_options;
    uniform_options.backend = Backend::kUniform;
    EXPECT_EQ(
        MustRun(HomEngine(uniform_options), p, HomTask::kDecide).decided,
        oracle);
    {
      EngineOptions o;
      o.backend = Backend::kTreewidth;  // exact whatever the width
      ++applicable;
      EXPECT_EQ(MustRun(HomEngine(o), p, HomTask::kDecide).decided, oracle)
          << "treewidth disagrees on trial " << trial;
    }
    if (p.SourceAcyclic() && b.universe_size() > 0) {
      EngineOptions o;
      o.backend = Backend::kAcyclic;
      ++applicable;
      EXPECT_EQ(MustRun(HomEngine(o), p, HomTask::kDecide).decided, oracle)
          << "acyclic disagrees on trial " << trial;
    }
    if (p.TargetSchaeferClasses() != 0) {
      EngineOptions o;
      o.backend = Backend::kSchaefer;
      ++applicable;
      EXPECT_EQ(MustRun(HomEngine(o), p, HomTask::kDecide).decided, oracle)
          << "schaefer disagrees on trial " << trial;
    }
    if (applicable >= 2) ++multi_backend_instances;
  }
  EXPECT_GT(multi_backend_instances, 10);
}

TEST(EngineRoutingTest, AcyclicServesCountEnumerateProjectWithoutSearch) {
  // The acceptance net for the full Yannakakis program: on acyclic
  // sources every task is served on the acyclic route — no uniform-search
  // fallback — and every answer matches the search oracle exactly.
  Rng rng(707);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 8; ++trial) {
    Structure a = StructureFromGraph(vocab, RandomTree(4 + rng.Below(3), rng));
    Structure b = RandomGraphStructure(vocab, 3, 0.6, rng, true);
    BacktrackingSolver solver(a, b);
    size_t oracle_count = solver.CountSolutions();
    HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
    ASSERT_TRUE(p.SetProjection({0}).ok());
    HomEngine engine;

    EngineResult count = MustRun(engine, p, HomTask::kCount);
    EXPECT_EQ(count.explain.chosen, Backend::kAcyclic)
        << count.explain.ToJson();
    EXPECT_TRUE(count.explain.profiled);
    EXPECT_FALSE(count.stats.used_search);
    EXPECT_TRUE(count.stats.used_acyclic);
    EXPECT_EQ(count.explain.served, HomTask::kCount);
    EXPECT_EQ(count.count, oracle_count);

    EngineResult all = MustRun(engine, p, HomTask::kEnumerate);
    EXPECT_EQ(all.explain.chosen, Backend::kAcyclic);
    EXPECT_FALSE(all.stats.used_search);
    EXPECT_EQ(all.rows.size(), oracle_count);
    std::set<std::vector<Element>> hom_set(all.rows.begin(), all.rows.end());
    EXPECT_EQ(hom_set.size(), oracle_count) << "duplicate homomorphisms";
    size_t checked = 0;
    BacktrackingSolver(a, b).ForEachSolution([&](const Homomorphism& h) {
      EXPECT_TRUE(hom_set.count(h)) << "oracle solution missing";
      ++checked;
      return true;
    });
    EXPECT_EQ(checked, oracle_count);

    EngineResult rows = MustRun(engine, p, HomTask::kProject);
    EXPECT_EQ(rows.explain.chosen, Backend::kAcyclic);
    EXPECT_FALSE(rows.stats.used_search);
    auto oracle_rows = BacktrackingSolver(a, b).EnumerateProjections(
        std::vector<Element>{0});
    std::set<std::vector<Element>> got(rows.rows.begin(), rows.rows.end());
    std::set<std::vector<Element>> want(oracle_rows.begin(),
                                       oracle_rows.end());
    EXPECT_EQ(got.size(), rows.rows.size()) << "duplicate projections";
    EXPECT_EQ(got, want);
  }
}

TEST(EngineRoutingTest, CyclicSourceCountFallsBackToSearch) {
  // A cyclic source inside the stage-3 gate counts on the treewidth route;
  // one above the gate falls back to the search, and Explain says why both
  // the acyclic and the treewidth route refused.
  auto vocab = MakeGraphVocabulary();
  Structure k3 = CliqueStructure(vocab, 3);
  Structure k4 = CliqueStructure(vocab, 4);
  HomProblem p = MustProblem(HomProblem::FromStructures(k3, k4));
  HomEngine engine;
  EngineResult r = MustRun(engine, p, HomTask::kCount);
  EXPECT_EQ(r.explain.chosen, Backend::kTreewidth) << r.explain.ToJson();
  EXPECT_TRUE(r.stats.used_treewidth);
  EXPECT_FALSE(r.stats.used_search);
  EXPECT_TRUE(r.explain.profiled);
  EXPECT_FALSE(r.explain.profile.source_acyclic);
  EXPECT_EQ(r.count, BacktrackingSolver(k3, k4).CountSolutions());
  EXPECT_EQ(r.count, 24u);

  Structure k5 = CliqueStructure(vocab, 5);
  Structure k6 = CliqueStructure(vocab, 6);
  HomProblem wide = MustProblem(HomProblem::FromStructures(k5, k6));
  EngineResult s = MustRun(engine, wide, HomTask::kCount);
  EXPECT_EQ(s.explain.chosen, Backend::kUniform) << s.explain.ToJson();
  EXPECT_TRUE(s.stats.used_search);
  EXPECT_FALSE(s.stats.used_treewidth);
  EXPECT_EQ(s.count, BacktrackingSolver(k5, k6).CountSolutions());
  EXPECT_EQ(s.count, 720u);
  bool noted_acyclic = false, noted_gate = false;
  for (const std::string& f : s.explain.fallbacks) {
    if (f.rfind("acyclic: ", 0) == 0 && f.find("cyclic") != std::string::npos) {
      noted_acyclic = true;
    }
    if (f.rfind("treewidth: ", 0) == 0 &&
        f.find("exceeds the gate") != std::string::npos) {
      noted_gate = true;
    }
  }
  EXPECT_TRUE(noted_acyclic) << s.explain.ToJson();
  EXPECT_TRUE(noted_gate) << s.explain.ToJson();
}

TEST(EngineRoutingTest, CountLimitZeroCountsNothingOnEveryBackend) {
  // min(count, 0) is 0 whichever backend counts, even where the one
  // homomorphism is the empty map.
  auto vocab = MakeGraphVocabulary();
  const Structure empty(vocab, 0);
  const Structure p3 = PathStructure(vocab, 3);
  const Structure k3 = CliqueStructure(vocab, 3);
  const Structure k4 = CliqueStructure(vocab, 4);
  const std::pair<const Structure*, const Structure*> instances[] = {
      {&empty, &k3}, {&p3, &k3}, {&k3, &k4}};
  for (auto [a, b] : instances) {
    HomProblem p = MustProblem(HomProblem::FromStructures(*a, *b));
    for (Backend backend : {Backend::kAuto, Backend::kUniform,
                            Backend::kAcyclic, Backend::kTreewidth}) {
      SCOPED_TRACE(testing::Message() << BackendName(backend) << " on |A|="
                                      << a->universe_size());
      if (backend == Backend::kAcyclic && !p.SourceAcyclic()) continue;
      EngineOptions options;
      options.backend = backend;
      options.count_limit = 0;
      EngineResult r = MustRun(HomEngine(options), p, HomTask::kCount);
      EXPECT_EQ(r.count, 0u) << r.explain.ToJson();
    }
  }
}

TEST(EngineRoutingTest, CompiledProblemReusesArtifactsAcrossRuns) {
  Rng rng(808);
  auto vocab = MakeGraphVocabulary();
  Structure a = StructureFromGraph(vocab, RandomPartialKTree(10, 2, 0.9, rng));
  Structure b = RandomGraphStructure(vocab, 4, 0.5, rng, true);
  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
  // Same compiled pieces on every access.
  const CspInstance* csp = &p.Csp();
  EXPECT_EQ(csp, &p.Csp());
  const TreeDecomposition* dec = &p.SourceDecomposition();
  EXPECT_EQ(dec, &p.SourceDecomposition());
  // Copies share them.
  HomProblem copy = p;
  EXPECT_EQ(&copy.Csp(), csp);
  // Rebinding the target keeps the whole source side...
  Structure b2 = RandomGraphStructure(vocab, 5, 0.5, rng, true);
  HomProblem rebound = MustProblem(p.WithTarget(b2));
  EXPECT_EQ(&rebound.SourceDecomposition(), dec);
  // ...but recompiles the pair state against the new target.
  EXPECT_NE(&rebound.Csp(), csp);
  // And the rebound problem still answers correctly.
  HomEngine engine;
  EngineResult rebound_run = MustRun(engine, rebound, HomTask::kDecide);
  EXPECT_EQ(rebound_run.explain.profile.target_universe, 5u);
  EXPECT_EQ(rebound_run.decided, OracleDecide(a, b2));
  EXPECT_EQ(MustRun(engine, p, HomTask::kDecide).decided, OracleDecide(a, b));
}

TEST(EngineRoutingTest, ContainmentProblemsRouteThroughPolyBackends) {
  // Chain-query containment: the marked canonical database of a chain is
  // acyclic and width-1, so the front door must not search — this is the
  // acceptance case "kAuto picks a polynomial backend where the uniform
  // solver would search", cross-checked against both Theorem 2.1
  // characterizations.
  auto vocab = MakeGraphVocabulary();
  ConjunctiveQuery chain4 = ChainQuery(vocab, 4);
  ConjunctiveQuery chain6 = ChainQuery(vocab, 6);
  HomProblem p = MustProblem(HomProblem::FromContainment(chain6, chain4));
  HomEngine engine;
  EngineResult r = MustRun(engine, p, HomTask::kDecide);
  EXPECT_NE(r.explain.chosen, Backend::kUniform) << r.explain.ToJson();
  auto via_eval = IsContainedViaEvaluation(chain6, chain4);
  ASSERT_TRUE(via_eval.ok());
  EXPECT_EQ(r.decided, *via_eval);
  auto via_wrapper = IsContained(chain6, chain4);
  ASSERT_TRUE(via_wrapper.ok());
  EXPECT_EQ(r.decided, *via_wrapper);
}

// ---- Theorem 2.1: containment, homomorphism and evaluation agree. --------

/// A tree-shaped query (acyclic): each atom hangs a fresh variable off an
/// existing one. The head is one random variable.
ConjunctiveQuery RandomTreeQuery(const VocabularyPtr& vocab, Rng& rng) {
  ConjunctiveQuery q(vocab, "Q");
  std::vector<VarId> vars = {q.GetOrCreateVar("V0")};
  const size_t atoms = 1 + rng.Below(5);
  for (size_t i = 0; i < atoms; ++i) {
    const VarId old = vars[rng.Below(vars.size())];
    const VarId fresh = q.GetOrCreateVar("V" + std::to_string(vars.size()));
    vars.push_back(fresh);
    if (rng.Chance(0.5)) {
      q.AddAtom(0, {old, fresh});
    } else {
      q.AddAtom(0, {fresh, old});
    }
  }
  q.SetHead({vars[rng.Below(vars.size())]});
  return q;
}

/// A cycle of length 3..5 with random orientations, plus up to two chords
/// or pendant edges. Binary atoms are α-acyclic only on a forest, so the
/// query is cyclic. The head is one random variable.
ConjunctiveQuery RandomCyclicQuery(const VocabularyPtr& vocab, Rng& rng) {
  ConjunctiveQuery q(vocab, "Q");
  const size_t length = 3 + rng.Below(3);
  std::vector<VarId> vars;
  for (size_t i = 0; i < length; ++i) {
    vars.push_back(q.GetOrCreateVar("C" + std::to_string(i)));
  }
  for (size_t i = 0; i < length; ++i) {
    VarId u = vars[i];
    VarId v = vars[(i + 1) % length];
    if (rng.Chance(0.5)) std::swap(u, v);
    q.AddAtom(0, {u, v});
  }
  const size_t extras = rng.Below(3);
  for (size_t i = 0; i < extras; ++i) {
    const VarId u = vars[rng.Below(vars.size())];
    const VarId v = rng.Chance(0.5)
                        ? vars[rng.Below(vars.size())]
                        : q.GetOrCreateVar("P" + std::to_string(i));
    if (v >= vars.size()) vars.push_back(v);
    q.AddAtom(0, {u, v});
  }
  q.SetHead({vars[rng.Below(vars.size())]});
  return q;
}

/// A homomorphic image of q (variables merged at random) plus up to two
/// extra atoms: q maps onto it, so it is contained in q.
ConjunctiveQuery RandomImage(const ConjunctiveQuery& q, Rng& rng) {
  ConjunctiveQuery image(q.vocabulary(), "Q");
  const size_t range = 1 + rng.Below(q.var_count());
  std::vector<VarId> to(q.var_count());
  for (VarId v = 0; v < q.var_count(); ++v) {
    to[v] = image.GetOrCreateVar("W" + std::to_string(rng.Below(range)));
  }
  for (const Atom& atom : q.atoms()) {
    std::vector<VarId> args;
    for (VarId v : atom.args) args.push_back(to[v]);
    image.AddAtom(atom.rel, std::move(args));
  }
  const size_t extras = rng.Below(3);
  for (size_t i = 0; i < extras; ++i) {
    image.AddAtom(0, {static_cast<VarId>(rng.Below(image.var_count())),
                      static_cast<VarId>(rng.Below(image.var_count()))});
  }
  image.SetHead({to[q.head()[0]]});
  return image;
}

TEST(EngineRoutingTest, TheoremTwoOneAgreementSweep) {
  // Q1 ⊆ Q2 asked every way the repo can ask it: the kAuto convenience,
  // the engine forced onto each backend that accepts a containment problem,
  // the evaluation characterization on the raw solver, and "Q1's head is an
  // answer of Q2 on D_{Q1}". All must agree, on acyclic and cyclic Q2.
  Rng rng(2101);
  auto vocab = MakeGraphVocabulary();
  int acyclic_q2 = 0, cyclic_q2 = 0, contained = 0;
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const ConjunctiveQuery q2 = trial % 2 == 0 ? RandomTreeQuery(vocab, rng)
                                               : RandomCyclicQuery(vocab, rng);
    const ConjunctiveQuery q1 =
        rng.Chance(0.5)
            ? RandomImage(q2, rng)
            : RandomQuery(vocab, 3 + rng.Below(5), 1 + rng.Below(4), rng);
    SCOPED_TRACE(ToString(q1) + " vs " + ToString(q2));

    auto decided = IsContained(q1, q2);
    ASSERT_TRUE(decided.ok()) << decided.status().ToString();
    const bool expected = *decided;
    contained += expected;

    HomProblem p = MustProblem(HomProblem::FromContainment(q1, q2));
    (p.SourceAcyclic() ? acyclic_q2 : cyclic_q2) += 1;
    for (Backend backend :
         {Backend::kUniform, Backend::kTreewidth, Backend::kAcyclic}) {
      EngineOptions options;
      options.backend = backend;
      auto r = HomEngine(options).Decide(p);
      if (backend == Backend::kAcyclic && !p.SourceAcyclic()) {
        EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
        continue;
      }
      ASSERT_TRUE(r.ok()) << BackendName(backend) << ": "
                          << r.status().ToString();
      EXPECT_EQ(*r, expected) << BackendName(backend);
    }

    auto witness = Contains(q1, q2);
    ASSERT_TRUE(witness.ok());
    EXPECT_EQ(witness->contained, expected);
    if (witness->contained) {
      ASSERT_TRUE(witness->witness.has_value());
      EXPECT_TRUE(IsHomomorphism(p.source(), p.target(), *witness->witness));
    }

    auto via_evaluation = IsContainedViaEvaluation(q1, q2);
    ASSERT_TRUE(via_evaluation.ok());
    EXPECT_EQ(*via_evaluation, expected);

    const CanonicalDb d1 = MakeCanonicalDb(q1);
    auto answers = Evaluate(q2, d1.structure);
    ASSERT_TRUE(answers.ok());
    const bool head_is_answer =
        std::find(answers->begin(), answers->end(), d1.head) !=
        answers->end();
    EXPECT_EQ(head_is_answer, expected);
  }
  EXPECT_GT(acyclic_q2, 100);
  EXPECT_GT(cyclic_q2, 100);
  EXPECT_GT(contained, 60);
  EXPECT_LT(contained, 240);
}

TEST(EngineRoutingTest, PebblePreflightCertifiesUnsat) {
  // C5 -> K2: not 2-colorable; the Spoiler wins the 4-pebble game, so the
  // preflight proves "no homomorphism" and the search never runs.
  auto vocab = MakeGraphVocabulary();
  Structure c5 = UndirectedCycleStructure(vocab, 5);
  Structure k2 = UndirectedCycleStructure(vocab, 2);
  HomProblem p = MustProblem(HomProblem::FromStructures(c5, k2));
  EngineOptions options;
  options.backend = Backend::kUniform;
  options.pebble_preflight_k = 4;
  EngineResult r = MustRun(HomEngine(options), p, HomTask::kDecide);
  EXPECT_FALSE(r.decided);
  EXPECT_TRUE(r.stats.used_pebble);
  EXPECT_FALSE(r.stats.used_search);
  EXPECT_GT(r.stats.pebble.deleted_positions, 0u);
}

TEST(EngineRoutingTest, ExplicitBackendErrorsInsteadOfFallingBack) {
  auto vocab = MakeGraphVocabulary();
  Structure k4 = CliqueStructure(vocab, 4);   // cyclic source
  Structure k5 = CliqueStructure(vocab, 5);   // non-Boolean target
  HomProblem p = MustProblem(HomProblem::FromStructures(k4, k5));
  {
    EngineOptions o;
    o.backend = Backend::kAcyclic;
    auto r = HomEngine(o).Run(p, HomTask::kDecide);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // The acyclic backend serves every task now — an explicit witness
    // request on an acyclic source must succeed, not error.
    EngineOptions o;
    o.backend = Backend::kAcyclic;
    Structure path = PathStructure(vocab, 3);
    HomProblem acyclic_p = MustProblem(HomProblem::FromStructures(path, k5));
    auto r = HomEngine(o).Run(acyclic_p, HomTask::kWitness);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->decided);
    ASSERT_TRUE(r->witness.has_value());
    EXPECT_TRUE(IsHomomorphism(path, k5, *r->witness));
  }
  {
    EngineOptions o;
    o.backend = Backend::kSchaefer;  // non-Boolean target
    auto r = HomEngine(o).Run(p, HomTask::kDecide);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EngineRoutingTest, NodeLimitSurfacesAsUnknownNeverAsNo) {
  auto vocab = MakeGraphVocabulary();
  Rng rng(909);
  Structure a = CliqueStructure(vocab, 7);
  Structure g = RandomGraphStructure(vocab, 20, 0.5, rng, true);
  HomProblem p = MustProblem(HomProblem::FromStructures(a, g));
  EngineOptions options;
  options.backend = Backend::kUniform;
  options.solve.node_limit = 3;
  HomEngine engine(options);
  EngineResult r = MustRun(engine, p, HomTask::kDecide);
  if (!r.decided) {
    EXPECT_TRUE(r.stats.search.limit_hit);
    auto decided = engine.Decide(p);
    ASSERT_FALSE(decided.ok());
    EXPECT_EQ(decided.status().code(), StatusCode::kUnsupported);
  }
}

TEST(EngineRoutingTest, TrivialUniversesShortCircuit) {
  auto vocab = MakeGraphVocabulary();
  Structure empty(vocab, 0);
  Structure k3 = CliqueStructure(vocab, 3);
  HomEngine engine;
  HomProblem from_empty = MustProblem(HomProblem::FromStructures(empty, k3));
  EngineResult r = MustRun(engine, from_empty, HomTask::kWitness);
  EXPECT_TRUE(r.decided);
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_TRUE(r.witness->empty());
  HomProblem to_empty = MustProblem(HomProblem::FromStructures(k3, empty));
  EngineResult r2 = MustRun(engine, to_empty, HomTask::kDecide);
  EXPECT_FALSE(r2.decided);
  EXPECT_FALSE(r2.stats.search.limit_hit);
}

// ---- The width-capped stage 3 against the full min-fill gate. --------------

/// G(n, p), partial k-trees for k = 1..5, and cliques.
Structure RoutingSource(int trial, Rng& rng) {
  auto vocab = MakeGraphVocabulary();
  switch (trial % 3) {
    case 0:
      return RandomGraphStructure(vocab, 4 + rng.Below(24),
                                  0.1 + 0.1 * rng.Below(4), rng, true);
    case 1: {
      const uint32_t k = 1 + static_cast<uint32_t>(rng.Below(5));
      return StructureFromGraph(
          vocab, RandomPartialKTree(k + 1 + rng.Below(30), k, 0.9, rng));
    }
    default:
      return CliqueStructure(vocab, 2 + rng.Below(8));
  }
}

TEST(EngineRoutingTest, CappedStageThreeRoutesLikeTheFullGate) {
  Rng rng(1515);
  auto vocab = MakeGraphVocabulary();
  int capped_refusals = 0;
  int completed = 0;
  for (int trial = 0; trial < 90; ++trial) {
    Structure a = RoutingSource(trial, rng);
    // Non-Boolean targets (|B| = 1 or 3..6), so stage 1 always refuses.
    const size_t m = rng.Chance(0.2) ? 1 : 3 + rng.Below(4);
    Structure b = RandomGraphStructure(vocab, m, 0.6, rng, true);
    const TreeDecomposition full = *HeuristicDecomposition(a);
    const int w = full.Width();
    const double cost = EstimateTreewidthDpCost(full.node_count(), w, m);

    // The default gate, then gates straddling this instance: the budget
    // exactly at and just under its cost, and the width cap at and just
    // under its width.
    std::vector<EngineOptions> variants(5);
    variants[1].treewidth_cost_budget = cost;
    variants[2].treewidth_cost_budget = std::nextafter(cost, 0.0);
    variants[3].max_auto_width = w;
    variants[4].max_auto_width = w - 1;
    variants[4].treewidth_cost_budget = 1e12;
    for (size_t v = 0; v < variants.size(); ++v) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " variant " << v
                                      << " n=" << a.universe_size()
                                      << " |B|=" << m << " w=" << w);
      const EngineOptions& options = variants[v];
      HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
      // The gate as it reads on the full min-fill decomposition.
      const Backend want =
          p.SourceAcyclic() ? Backend::kAcyclic
          : w <= options.max_auto_width && cost <= options.treewidth_cost_budget
              ? Backend::kTreewidth
              : Backend::kUniform;
      const EngineResult cold = MustRun(HomEngine(options), p, HomTask::kDecide);
      ASSERT_EQ(cold.explain.chosen, want) << cold.explain.ToJson();
      // A warm rerun answers from what the cold one cached.
      const EngineResult warm = MustRun(HomEngine(options), p, HomTask::kDecide);
      ASSERT_EQ(warm.explain.chosen, want) << warm.explain.ToJson();
      EXPECT_EQ(cold.decided, warm.decided);

      const InstanceProfile& prof = cold.explain.profile;
      if (!prof.width_known) continue;
      if (prof.width_lower_bound) {
        ++capped_refusals;
        const int cap = TreewidthWidthCap(a.universe_size(), m,
                                          options.max_auto_width,
                                          options.treewidth_cost_budget);
        EXPECT_GT(prof.width_estimate, cap);
        EXPECT_LE(prof.width_estimate, w);
        EXPECT_LT(prof.eliminations_done, a.universe_size());
      } else {
        // The completed capped elimination cached min-fill's decomposition.
        ++completed;
        EXPECT_EQ(prof.width_estimate, w);
        EXPECT_EQ(p.SourceDecomposition().ToString(), full.ToString());
      }
    }
  }
  EXPECT_GT(capped_refusals, 20);
  EXPECT_GT(completed, 20);
}

TEST(EngineRoutingTest, CappedRefusalIsCachedAndExplained) {
  // K8 -> K7: the cap is 3 by default; the first elimination already
  // records a bag of 8, so min-fill stops before eliminating anything.
  auto vocab = MakeGraphVocabulary();
  HomProblem p = MustProblem(HomProblem::FromStructures(
      CliqueStructure(vocab, 8), CliqueStructure(vocab, 7)));
  EngineResult r = MustRun(HomEngine(), p, HomTask::kDecide);
  EXPECT_EQ(r.explain.chosen, Backend::kUniform);
  EXPECT_FALSE(r.decided);
  EXPECT_TRUE(r.explain.profile.width_lower_bound);
  EXPECT_EQ(r.explain.profile.width_estimate, 7);
  EXPECT_EQ(r.explain.profile.eliminations_done, 0u);
  const std::string text = r.explain.ToJson();
  EXPECT_NE(text.find("min-fill width>3 (a bag of width 7; stopped after 0 of "
                      "8 eliminations)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"width_estimate\":null,\"width_lower_bound\":7,"
                      "\"eliminations_done\":0,\"decomposition_bags\":null,"
                      "\"treewidth_dp_cost\":null}"),
            std::string::npos)
      << text;

  // The verdict is cached: a capped rerun needs no elimination (a governor
  // that trips on its first poll would stop one), and an uncapped request
  // still builds the full decomposition.
  WidthCap cap{.max_width = 3};
  ResourceGovernor tripping;
  GovernorFailpoints fp;
  fp.trip_after_checks = 1;
  tripping.set_failpoints(fp);
  ASSERT_TRUE(p.EnsureSourceDecomposition(&tripping, &cap).ok());
  EXPECT_TRUE(cap.stopped);
  EXPECT_EQ(cap.width_lower_bound, 7);
  EXPECT_EQ(p.SourceDecomposition().Width(), 7);

  // A gate no width fits skips min-fill altogether.
  EngineOptions tight;
  tight.treewidth_cost_budget = 1;
  HomProblem q = MustProblem(HomProblem::FromStructures(
      CliqueStructure(vocab, 4), CliqueStructure(vocab, 3)));
  EngineResult skipped = MustRun(HomEngine(tight), q, HomTask::kDecide);
  EXPECT_EQ(skipped.explain.chosen, Backend::kUniform);
  EXPECT_FALSE(skipped.explain.profile.width_known);
  EXPECT_NE(skipped.explain.ToJson().find("min-fill skipped"),
            std::string::npos);
}

TEST(EngineRoutingTest, ExplainRendersJson) {
  auto vocab = MakeGraphVocabulary();
  Structure path = PathStructure(vocab, 4);
  Structure k3 = CliqueStructure(vocab, 3);
  HomProblem p = MustProblem(HomProblem::FromStructures(path, k3));
  HomEngine engine;
  EngineResult r = MustRun(engine, p, HomTask::kDecide);
  std::string json = r.ToJson();
  EXPECT_NE(json.find("\"chosen\":\"acyclic\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"profile\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"decided\":true"), std::string::npos) << json;
  // The profile renders one key set whatever stage the router reached:
  // min-fill did not stop here, so its lower-bound keys are null.
  EXPECT_NE(json.find("\"width_lower_bound\":null,\"eliminations_done\":null"),
            std::string::npos)
      << json;
  // The acyclic route renders every YannakakisStats counter.
  for (const char* key :
       {"\"atom_tables\":", "\"rows_materialized\":", "\"max_table_rows\":",
        "\"semijoins\":", "\"semijoins_skipped\":", "\"rows_pruned\":",
        "\"join_rows\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  EXPECT_LE(r.stats.yannakakis.semijoins_skipped, r.stats.yannakakis.semijoins);
  // The search renders every SolveStats counter.
  EngineOptions uniform;
  uniform.backend = Backend::kUniform;
  json = MustRun(HomEngine(uniform), p, HomTask::kDecide).ToJson();
  for (const char* key :
       {"\"nodes\":", "\"backtracks\":", "\"backjumps\":",
        "\"longest_backjump\":", "\"restarts\":", "\"max_conflict_set\":",
        "\"revisions\":", "\"support_walks\":", "\"leaves\":",
        "\"cutset\":", "\"workers\":",
        "\"splits\":", "\"steals\":", "\"limit_hit\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  EXPECT_EQ(BackendName(Backend::kTreewidth), std::string("treewidth"));
  EXPECT_EQ(ParseBackendName("schaefer"), Backend::kSchaefer);
  EXPECT_EQ(ParseBackendName("bogus"), std::nullopt);
}

TEST(EngineRoutingTest, UniformReasonNamesTheCycleCutset) {
  // A triangle with a tail and head X0: fixing X0 leaves a forest, so the
  // search stops at backtrack-free leaves and --explain says so. A K3
  // coloring of a dense graph needs a cutset past the cap.
  auto vocab = MakeGraphVocabulary();
  Rng rng(2424);
  Structure g = RandomGraphStructure(vocab, 40, 0.15, rng, true);
  auto q = ParseQuery("Q(X0) :- E(X0, X1), E(X1, X2), E(X2, X0), E(X2, X3).",
                      vocab);
  ASSERT_TRUE(q.ok());
  HomProblem p = MustProblem(HomProblem::FromQuery(*q, g));
  EngineOptions uniform;
  uniform.backend = Backend::kUniform;
  for (HomTask task : {HomTask::kDecide, HomTask::kCount, HomTask::kProject}) {
    EngineResult r = MustRun(HomEngine(uniform), p, task);
    EXPECT_NE(r.explain.reason.find("cycle cutset of 1"), std::string::npos)
        << r.explain.reason;
    EXPECT_EQ(r.stats.search.cutset, 1u);
    EXPECT_GT(r.stats.search.leaves, 0u);
    EXPECT_LE(r.stats.search.leaves, r.stats.search.nodes);
    EngineResult auto_r = MustRun(HomEngine(), p, task);
    EXPECT_EQ(r.decided, auto_r.decided);
    EXPECT_EQ(r.count, auto_r.count);
  }
  EngineResult witness = MustRun(HomEngine(uniform), p, HomTask::kWitness);
  EXPECT_EQ(witness.stats.search.leaves, 0u);
  EXPECT_EQ(witness.stats.search.cutset, 0u);

  Structure dense = RandomGraphStructure(vocab, 30, 0.3, rng, true);
  HomProblem coloring = MustProblem(
      HomProblem::FromStructures(dense, CliqueStructure(vocab, 3)));
  EngineResult r = MustRun(HomEngine(uniform), coloring, HomTask::kDecide);
  EXPECT_NE(r.explain.reason.find("no backtrack-free leaves"),
            std::string::npos)
      << r.explain.reason;
  EXPECT_EQ(r.stats.search.leaves, 0u);
  EXPECT_EQ(r.stats.search.cutset, 0u);
}

TEST(EngineRoutingTest, ExplainJsonEscapesStrings) {
  EngineExplain e;
  e.reason = "q\"b\\n\nt\tc\x01.";
  e.fallbacks = {e.reason, "plain"};
  EXPECT_EQ(e.ToJson(),
            "{\"requested\":\"auto\",\"chosen\":\"uniform\",\"served\":"
            "\"decide\",\"reason\":\"q\\\"b\\\\n\\nt\\tc\\u0001.\",\"fallbacks\":"
            "[\"q\\\"b\\\\n\\nt\\tc\\u0001.\",\"plain\"],\"profile\":null}");
}

}  // namespace
}  // namespace cqcs
