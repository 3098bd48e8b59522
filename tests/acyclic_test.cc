// Tests for acyclic conjunctive queries: GYO acyclicity, join trees,
// Yannakakis evaluation, and polynomial containment with acyclic right-hand
// sides (the [Yan81]/[CR97] line the paper's introduction discusses).
// Containment has one entry point, the engine: the acyclic route is
// checked by forcing Backend::kAcyclic on HomProblem::FromContainment.

#include <gtest/gtest.h>

#include <optional>

#include "api/engine.h"
#include "common/rng.h"
#include "cq/acyclic.h"
#include "cq/containment.h"
#include "cq/gyo.h"
#include "cq/parser.h"
#include "gen/generators.h"

namespace cqcs {
namespace {

ConjunctiveQuery MustParse(std::string_view text, VocabularyPtr vocab = {}) {
  auto q = vocab == nullptr ? ParseQuery(text) : ParseQuery(text, vocab);
  CQCS_CHECK_MSG(q.ok(), q.status().ToString());
  return *std::move(q);
}

/// GYO on the query's hypergraph: its join forest, or nullopt when cyclic.
std::optional<JoinTree> JoinForest(const ConjunctiveQuery& q) {
  return GyoJoinForest(q.var_count(), QueryHyperedges(q));
}

/// Q1 ⊆ Q2, decided by the engine forced onto `backend`.
Result<bool> ContainedOn(Backend backend, const ConjunctiveQuery& q1,
                         const ConjunctiveQuery& q2) {
  CQCS_ASSIGN_OR_RETURN(HomProblem problem,
                        HomProblem::FromContainment(q1, q2));
  EngineOptions options;
  options.backend = backend;
  return HomEngine(options).Decide(problem);
}

TEST(AcyclicTest, ChainsAndStarsAreAcyclic) {
  auto vocab = MakeGraphVocabulary();
  EXPECT_TRUE(JoinForest(ChainQuery(vocab, 5)).has_value());
  EXPECT_TRUE(JoinForest(StarQuery(vocab, 4)).has_value());
}

TEST(AcyclicTest, TriangleIsCyclic) {
  auto q = MustParse("Q() :- E(X, Y), E(Y, Z), E(Z, X).");
  EXPECT_FALSE(JoinForest(q).has_value());
}

TEST(AcyclicTest, WideAtomsMakeCyclesAcyclic) {
  // A triangle closed off by a covering ternary atom is alpha-acyclic.
  auto q = MustParse("Q() :- E(X, Y), E(Y, Z), E(Z, X), T(X, Y, Z).");
  EXPECT_TRUE(JoinForest(q).has_value());
}

TEST(AcyclicTest, JoinTreeShape) {
  auto vocab = MakeGraphVocabulary();
  ConjunctiveQuery chain = ChainQuery(vocab, 4);
  auto tree = JoinForest(chain);
  ASSERT_TRUE(tree.has_value());
  size_t roots = 0;
  for (uint32_t p : tree->parent) {
    if (p == JoinTree::kNoParent) ++roots;
  }
  EXPECT_EQ(roots, 1u);
}

TEST(AcyclicTest, YannakakisMatchesBacktrackingEvaluation) {
  Rng rng(83);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 40; ++trial) {
    // Random acyclic query: a chain or a star with random extras that keep
    // acyclicity (attach a fresh leaf variable to an existing one).
    ConjunctiveQuery q(vocab, "Q");
    RelId e = 0;
    VarId v0 = q.GetOrCreateVar("V0");
    std::vector<VarId> vars{v0};
    size_t atoms = 1 + rng.Below(6);
    for (size_t i = 0; i < atoms; ++i) {
      VarId existing = vars[rng.Below(vars.size())];
      VarId fresh = q.GetOrCreateVar("V" + std::to_string(vars.size()));
      vars.push_back(fresh);
      if (rng.Chance(0.5)) {
        q.AddAtom(e, {existing, fresh});
      } else {
        q.AddAtom(e, {fresh, existing});
      }
    }
    q.SetHead({});
    ASSERT_TRUE(JoinForest(q).has_value()) << ToString(q);
    Structure d = RandomGraphStructure(vocab, 2 + rng.Below(5), 0.3, rng,
                                       false);
    auto fast = EvaluateBooleanAcyclic(q, d);
    auto slow = EvaluateBoolean(q, d);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(*fast, *slow) << ToString(q);
  }
}

TEST(AcyclicTest, EmptyDatabaseFails) {
  auto vocab = MakeGraphVocabulary();
  ConjunctiveQuery chain = ChainQuery(vocab, 2);
  Structure d(vocab, 3);  // no edges
  auto r = EvaluateBooleanAcyclic(chain, d);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST(AcyclicTest, ContainmentMatchesGeneric) {
  auto vocab = MakeGraphVocabulary();
  struct Pair {
    const char* q1;
    const char* q2;
  };
  std::vector<Pair> pairs = {
      {"Q(X) :- E(X, Y), E(Y, Z), E(Z, X).", "Q(X) :- E(X, Y)."},
      {"Q(X) :- E(X, Y).", "Q(X) :- E(X, Y), E(Y, Z)."},
      {"Q(X, Y) :- E(X, Y).", "Q(Y, X) :- E(X, Y)."},
      {"Q() :- E(X, Y), E(Y, X).", "Q() :- E(X, Y)."},
      {"Q(X) :- E(X, X).", "Q(X) :- E(X, Y), E(Y, Z)."},
  };
  for (const auto& [t1, t2] : pairs) {
    ConjunctiveQuery q1 = MustParse(t1, vocab);
    ConjunctiveQuery q2 = MustParse(t2, vocab);
    auto fast = ContainedOn(Backend::kAcyclic, q1, q2);
    auto slow = ContainedOn(Backend::kUniform, q1, q2);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString() << " for " << t1;
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(*fast, *slow) << t1 << " vs " << t2;
  }
}

TEST(AcyclicTest, RandomAcyclicContainmentSweep) {
  Rng rng(89);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 30; ++trial) {
    ConjunctiveQuery q1 =
        RandomQuery(vocab, 2 + rng.Below(3), 2 + rng.Below(4), rng);
    ConjunctiveQuery q2 = ChainQuery(vocab, 1 + rng.Below(4));
    if (q1.arity() != q2.arity()) {
      // ChainQuery is binary-headed; rebuild q1's head to match.
      std::vector<VarId> head = {q1.head()[0], q1.head()[0]};
      q1.SetHead(head);
    }
    auto fast = ContainedOn(Backend::kAcyclic, q1, q2);
    auto slow = ContainedOn(Backend::kUniform, q1, q2);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(*fast, *slow) << ToString(q1) << " vs " << ToString(q2);
  }
}

TEST(AcyclicTest, CyclicRightSideRejected) {
  // An explicit acyclic backend refuses a cyclic D_{Q2}; kAuto would fall
  // back to another route instead.
  auto vocab = MakeGraphVocabulary();
  ConjunctiveQuery q1 = MustParse("Q() :- E(X, Y).", vocab);
  ConjunctiveQuery q2 = MustParse("Q() :- E(X, Y), E(Y, Z), E(Z, X).", vocab);
  auto r = ContainedOn(Backend::kAcyclic, q1, q2);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cqcs
