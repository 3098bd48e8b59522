// Tests for the ∃FO^k fragment: formula construction, bottom-up
// evaluation, and the Lemma 5.2 translation from tree decompositions.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fo/evaluate.h"
#include "fo/from_decomposition.h"
#include "gen/generators.h"
#include "solver/backtracking.h"

namespace cqcs {
namespace {

TEST(FoFormulaTest, FreeVarsAndSlots) {
  // Ex1 (E(x0, x1) & E(x1, x0)) — x0 free, 2 slots.
  FoFormula f = FoFormula::Exists(
      1, FoFormula::And({FoFormula::Atom(0, {0, 1}),
                         FoFormula::Atom(0, {1, 0})}));
  EXPECT_EQ(f.FreeVars(), (std::vector<uint32_t>{0}));
  EXPECT_EQ(f.SlotCount(), 2u);
}

TEST(FoFormulaTest, RebindingDoesNotLeak) {
  // Ex0 E(x0, x1): only x1 free even though x0 occurs.
  FoFormula f = FoFormula::Exists(0, FoFormula::Atom(0, {0, 1}));
  EXPECT_EQ(f.FreeVars(), (std::vector<uint32_t>{1}));
}

TEST(FoEvaluateTest, AtomSelection) {
  auto vocab = MakeGraphVocabulary();
  Structure path = PathStructure(vocab, 3);  // edges (0,1), (1,2)
  FoFormula atom = FoFormula::Atom(0, {0, 1});
  auto r = EvaluateFo(atom, path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
  // Repeated slot: E(x0, x0) selects self-loops only.
  FoFormula loop = FoFormula::Atom(0, {0, 0});
  auto rl = EvaluateFo(loop, path);
  ASSERT_TRUE(rl.ok());
  EXPECT_TRUE(rl->rows.empty());
  EXPECT_EQ(rl->vars.size(), 1u);
}

TEST(FoEvaluateTest, JoinAndProjection) {
  auto vocab = MakeGraphVocabulary();
  Structure path = PathStructure(vocab, 4);
  // ∃x1 (E(x0, x1) ∧ E(x1, x2)): pairs at distance exactly 2.
  FoFormula two_step = FoFormula::Exists(
      1, FoFormula::And({FoFormula::Atom(0, {0, 1}),
                         FoFormula::Atom(0, {1, 2})}));
  auto r = EvaluateFo(two_step, path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->vars, (std::vector<uint32_t>{0, 2}));
  std::set<std::vector<Element>> expected = {{0, 2}, {1, 3}};
  EXPECT_EQ(r->rows, expected);
}

TEST(FoEvaluateTest, SlotReuseEvaluatesCorrectly) {
  // The bounded-variable idiom: a 3-step walk with 2 slots.
  // ∃x1(E(x0,x1) ∧ ∃x0(E(x1,x0) ∧ ∃x1 E(x0,x1))) — "a walk of length 3
  // starts at x0".
  auto vocab = MakeGraphVocabulary();
  FoFormula walk3 = FoFormula::Exists(
      1,
      FoFormula::And(
          {FoFormula::Atom(0, {0, 1}),
           FoFormula::Exists(
               0, FoFormula::And({FoFormula::Atom(0, {1, 0}),
                                  FoFormula::Exists(
                                      1, FoFormula::Atom(0, {0, 1}))}))}));
  EXPECT_EQ(walk3.SlotCount(), 2u);
  Structure path = PathStructure(vocab, 5);
  auto r = EvaluateFo(walk3, path);
  ASSERT_TRUE(r.ok());
  // Walks of length 3 start at 0 and 1 only.
  std::set<std::vector<Element>> expected = {{0}, {1}};
  EXPECT_EQ(r->rows, expected);
}

TEST(FoEvaluateTest, SentenceAndErrors) {
  auto vocab = MakeGraphVocabulary();
  Structure triangle = CliqueStructure(vocab, 3);
  FoFormula has_edge =
      FoFormula::Exists(0, FoFormula::Exists(1, FoFormula::Atom(0, {0, 1})));
  auto yes = EvaluateFoSentence(has_edge, triangle);
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  // Not a sentence.
  FoFormula open = FoFormula::Atom(0, {0, 1});
  EXPECT_FALSE(EvaluateFoSentence(open, triangle).ok());
  // Arity mismatch.
  FoFormula bad = FoFormula::Atom(0, {0});
  EXPECT_FALSE(EvaluateFo(bad, triangle).ok());
}

TEST(FromDecompositionTest, SlotBudgetMatchesWidth) {
  auto vocab = MakeGraphVocabulary();
  Structure cycle = UndirectedCycleStructure(vocab, 8);
  TreeDecomposition td = *HeuristicDecomposition(cycle);
  ASSERT_EQ(td.Width(), 2);
  auto sentence = BuildSentenceFromDecomposition(cycle, td);
  ASSERT_TRUE(sentence.ok()) << sentence.status().ToString();
  EXPECT_LE(sentence->SlotCount(), 3u);  // width + 1 = 3 (Lemma 5.2)
  EXPECT_TRUE(sentence->FreeVars().empty());
}

TEST(FromDecompositionTest, SentenceDecidesHomomorphism) {
  // Third decision procedure for hom(A -> B): B ⊨ Q_A. Cross-validate
  // against backtracking on random bounded-treewidth sources.
  Rng rng(61);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 30; ++trial) {
    uint32_t k = 1 + static_cast<uint32_t>(rng.Below(2));
    Graph ga = RandomPartialKTree(4 + rng.Below(7), k, 0.8, rng);
    Structure a = StructureFromGraph(vocab, ga);
    Structure b =
        RandomGraphStructure(vocab, 2 + rng.Below(4), 0.5, rng, true);
    auto sentence = BuildSentence(a);
    ASSERT_TRUE(sentence.ok());
    auto models = EvaluateFoSentence(*sentence, b);
    ASSERT_TRUE(models.ok());
    EXPECT_EQ(*models, HasHomomorphism(a, b)) << "trial " << trial;
  }
}

TEST(FromDecompositionTest, DisconnectedSources) {
  auto vocab = MakeGraphVocabulary();
  // Two components: a triangle and an edge.
  Structure a(vocab, 5);
  a.AddTuple(0, {0, 1});
  a.AddTuple(0, {1, 2});
  a.AddTuple(0, {2, 0});
  a.AddTuple(0, {3, 4});
  auto sentence = BuildSentence(a);
  ASSERT_TRUE(sentence.ok());
  Structure k3 = CliqueStructure(vocab, 3);
  auto m = EvaluateFoSentence(*sentence, k3);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(*m);
  Structure k2 = CliqueStructure(vocab, 2);  // no directed triangle
  auto m2 = EvaluateFoSentence(*sentence, k2);
  ASSERT_TRUE(m2.ok());
  EXPECT_FALSE(*m2);
}

TEST(FromDecompositionTest, EmptyStructureIsTrue) {
  auto vocab = MakeGraphVocabulary();
  Structure empty(vocab, 0);
  auto sentence = BuildSentence(empty);
  ASSERT_TRUE(sentence.ok());
  Structure b = CliqueStructure(vocab, 2);
  EXPECT_TRUE(*EvaluateFoSentence(*sentence, b));
}

TEST(FromDecompositionTest, PrintsReadably) {
  auto vocab = MakeGraphVocabulary();
  Structure path = PathStructure(vocab, 3);
  auto sentence = BuildSentence(path);
  ASSERT_TRUE(sentence.ok());
  std::string text = sentence->ToString(*vocab);
  EXPECT_NE(text.find("E("), std::string::npos);
  EXPECT_NE(text.find("Ex"), std::string::npos);
}

}  // namespace
}  // namespace cqcs
