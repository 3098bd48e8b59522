// Front-door routing tests: the HomEngine must (1) pick a polynomial
// backend exactly when the paper's theorems license one, naming the profile
// evidence in Explain(), (2) agree with the uniform search on every answer
// whichever backend ran, (3) fall back — not abort — when an island's
// precondition fails, and (4) reuse a compiled HomProblem's artifacts
// across repeated solves and target rebinds.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "api/engine.h"
#include "common/governor.h"
#include "common/rng.h"
#include "core/homomorphism.h"
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
    EXPECT_EQ(r.explain.chosen, Backend::kAcyclic) << r.explain.ToString();
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
    EXPECT_EQ(r.explain.chosen, Backend::kAcyclic) << r.explain.ToString();
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
        << r.explain.ToString();
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
    EXPECT_EQ(r.explain.chosen, Backend::kSchaefer) << r.explain.ToString();
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
  EXPECT_EQ(r.explain.chosen, Backend::kUniform) << r.explain.ToString();
  EXPECT_TRUE(r.stats.used_search);
  EXPECT_FALSE(r.decided);
  EXPECT_EQ(r.explain.profile.width_estimate, 5);
  bool noted_width = false;
  for (const std::string& f : r.explain.fallbacks) {
    if (f.find("treewidth") != std::string::npos) noted_width = true;
  }
  EXPECT_TRUE(noted_width) << r.explain.ToString();
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
  ASSERT_TRUE(p.Profile().target_boolean);
  ASSERT_EQ(p.Profile().schaefer_classes, 0);
  ASSERT_FALSE(p.Profile().source_acyclic);
  ASSERT_GT(p.Profile().width_estimate, 3);
  HomEngine engine;
  EngineResult r = MustRun(engine, p, HomTask::kDecide);
  EXPECT_EQ(r.explain.chosen, Backend::kUniform) << r.explain.ToString();
  bool noted_schaefer = false;
  for (const std::string& f : r.explain.fallbacks) {
    if (f.find("outside every Schaefer class") != std::string::npos) {
      noted_schaefer = true;
    }
  }
  EXPECT_TRUE(noted_schaefer) << r.explain.ToString();
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
    const InstanceProfile& prof = p.Profile();

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
    if (prof.source_acyclic && b.universe_size() > 0) {
      EngineOptions o;
      o.backend = Backend::kAcyclic;
      ++applicable;
      EXPECT_EQ(MustRun(HomEngine(o), p, HomTask::kDecide).decided, oracle)
          << "acyclic disagrees on trial " << trial;
    }
    if (prof.schaefer_classes != 0) {
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
        << count.explain.ToString();
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
  // Counting has no polynomial island for cyclic sources: the router
  // must land on the search and say why the acyclic route refused.
  auto vocab = MakeGraphVocabulary();
  Structure k3 = CliqueStructure(vocab, 3);
  Structure k4 = CliqueStructure(vocab, 4);
  HomProblem p = MustProblem(HomProblem::FromStructures(k3, k4));
  HomEngine engine;
  EngineResult r = MustRun(engine, p, HomTask::kCount);
  EXPECT_EQ(r.explain.chosen, Backend::kUniform) << r.explain.ToString();
  EXPECT_TRUE(r.stats.used_search);
  EXPECT_TRUE(r.explain.profiled);
  EXPECT_FALSE(r.explain.profile.source_acyclic);
  EXPECT_EQ(r.count, BacktrackingSolver(k3, k4).CountSolutions());
  bool noted_acyclic = false;
  for (const std::string& f : r.explain.fallbacks) {
    if (f.find("cyclic") != std::string::npos) noted_acyclic = true;
  }
  EXPECT_TRUE(noted_acyclic) << r.explain.ToString();
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
  const InstanceProfile* prof = &p.Profile();
  EXPECT_EQ(prof, &p.Profile());
  // Copies share them.
  HomProblem copy = p;
  EXPECT_EQ(&copy.Csp(), csp);
  // Rebinding the target keeps the whole source side...
  Structure b2 = RandomGraphStructure(vocab, 5, 0.5, rng, true);
  HomProblem rebound = MustProblem(p.WithTarget(b2));
  EXPECT_EQ(&rebound.SourceDecomposition(), dec);
  // ...but recompiles the pair state against the new target.
  EXPECT_NE(&rebound.Csp(), csp);
  EXPECT_EQ(rebound.Profile().target_universe, 5u);
  // And the rebound problem still answers correctly.
  HomEngine engine;
  EXPECT_EQ(MustRun(engine, rebound, HomTask::kDecide).decided,
            OracleDecide(a, b2));
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
  EXPECT_NE(r.explain.chosen, Backend::kUniform) << r.explain.ToString();
  auto via_eval = IsContainedViaEvaluation(chain6, chain4);
  ASSERT_TRUE(via_eval.ok());
  EXPECT_EQ(r.decided, *via_eval);
  auto via_wrapper = IsContained(chain6, chain4);
  ASSERT_TRUE(via_wrapper.ok());
  EXPECT_EQ(r.decided, *via_wrapper);
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
      ASSERT_EQ(cold.explain.chosen, want) << cold.explain.ToString();
      // A warm rerun answers from what the cold one cached.
      const EngineResult warm = MustRun(HomEngine(options), p, HomTask::kDecide);
      ASSERT_EQ(warm.explain.chosen, want) << warm.explain.ToString();
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
  const std::string text = r.explain.ToString();
  EXPECT_NE(text.find("min-fill width>3 (a bag of width 7; stopped after 0 of "
                      "8 eliminations)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("width>=7 (min-fill stopped after 0 of 8 eliminations)"),
            std::string::npos)
      << text;
  EXPECT_NE(r.ToJson().find("\"width_lower_bound\":7"), std::string::npos);

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
  EXPECT_NE(skipped.explain.ToString().find("min-fill skipped"),
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
  EXPECT_EQ(BackendName(Backend::kTreewidth), std::string("treewidth"));
  EXPECT_EQ(ParseBackendName("schaefer"), Backend::kSchaefer);
  EXPECT_EQ(ParseBackendName("bogus"), std::nullopt);
}

}  // namespace
}  // namespace cqcs
