// Tests for nice tree decompositions and the textbook-form DP.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/generators.h"
#include "solver/backtracking.h"
#include "treewidth/nice.h"

namespace cqcs {
namespace {

TEST(NiceDecompositionTest, PreservesWidthAndValidates) {
  Rng rng(91);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 20; ++trial) {
    uint32_t k = 1 + static_cast<uint32_t>(rng.Below(3));
    Graph g = RandomPartialKTree(5 + rng.Below(12), k, 0.8, rng);
    Structure a = StructureFromGraph(vocab, g);
    TreeDecomposition td = *HeuristicDecomposition(a);
    NiceDecomposition nice = MakeNice(td);
    EXPECT_EQ(nice.Width(), td.Width());
    EXPECT_TRUE(nice.ValidateFor(a).ok()) << nice.ValidateFor(a).ToString();
  }
}

TEST(NiceDecompositionTest, NodeKindsArePresent) {
  auto vocab = MakeGraphVocabulary();
  // A star forces a join-free spine; a branching decomposition gets joins.
  Structure grid = GridStructure(vocab, 3, 3);
  NiceDecomposition nice = MakeNice(*HeuristicDecomposition(grid));
  bool has_leaf = false, has_introduce = false, has_forget = false;
  for (const auto& node : nice.nodes) {
    has_leaf |= node.kind == NiceNodeKind::kLeaf;
    has_introduce |= node.kind == NiceNodeKind::kIntroduce;
    has_forget |= node.kind == NiceNodeKind::kForget;
  }
  EXPECT_TRUE(has_leaf);
  EXPECT_TRUE(has_introduce);
  EXPECT_TRUE(has_forget);
}

TEST(NiceDpTest, MatchesGeneralDpAndBacktracking) {
  Rng rng(93);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 30; ++trial) {
    uint32_t k = 1 + static_cast<uint32_t>(rng.Below(2));
    Graph ga = RandomPartialKTree(4 + rng.Below(8), k, 0.8, rng);
    Structure a = StructureFromGraph(vocab, ga);
    Structure b = RandomGraphStructure(vocab, 2 + rng.Below(4), 0.5, rng,
                                       /*symmetric=*/true);
    TreeDecomposition td = *HeuristicDecomposition(a);
    NiceDecomposition nice = MakeNice(td);
    auto via_nice = SolveViaNiceDecomposition(a, b, nice);
    ASSERT_TRUE(via_nice.ok()) << via_nice.status().ToString();
    bool expected = HasHomomorphism(a, b);
    EXPECT_EQ(via_nice->has_value(), expected) << "trial " << trial;
    if (via_nice->has_value()) {
      EXPECT_TRUE(IsHomomorphism(a, b, **via_nice));
    }
  }
}

TEST(NiceDpTest, HandlesSelfLoopsAndUnaryFacts) {
  auto vocab = std::make_shared<Vocabulary>();
  RelId e = vocab->AddRelation("E", 2);
  RelId p = vocab->AddRelation("P", 1);
  Structure a(vocab, 2);
  a.AddTuple(e, {0, 0});  // self loop: an all-same-element tuple
  a.AddTuple(e, {0, 1});
  a.AddTuple(p, {1});
  Structure b(vocab, 2);
  b.AddTuple(e, {0, 0});
  b.AddTuple(e, {0, 1});
  b.AddTuple(p, {1});
  NiceDecomposition nice = MakeNice(*HeuristicDecomposition(a));
  auto h = SolveViaNiceDecomposition(a, b, nice);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->has_value());
  EXPECT_TRUE(IsHomomorphism(a, b, **h));
  // Remove the loop from B: now element 0 has no image.
  Structure b2(vocab, 2);
  b2.AddTuple(e, {0, 1});
  b2.AddTuple(p, {1});
  auto h2 = SolveViaNiceDecomposition(a, b2, nice);
  ASSERT_TRUE(h2.ok());
  EXPECT_FALSE(h2->has_value());
}

TEST(NiceDpTest, EmptySource) {
  auto vocab = MakeGraphVocabulary();
  Structure empty(vocab, 0);
  Structure b = CliqueStructure(vocab, 2);
  NiceDecomposition nice = MakeNice(*HeuristicDecomposition(empty));
  auto h = SolveViaNiceDecomposition(empty, b, nice);
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h->has_value());
}

}  // namespace
}  // namespace cqcs
