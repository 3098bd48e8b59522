// Tests for tree decompositions, treewidth heuristics/exact computation,
// the DP homomorphism solver (Theorem 5.4), and the binary encoding
// (Lemma 5.5).

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "common/rng.h"
#include "gen/generators.h"
#include "solver/backtracking.h"
#include "treewidth/binary_encoding.h"
#include "treewidth/decomposition.h"
#include "treewidth/hom_dp.h"

namespace cqcs {
namespace {

Graph CycleGraph(size_t n) {
  Graph g(n);
  for (uint32_t i = 0; i < n; ++i) {
    g.AddEdge(i, static_cast<uint32_t>((i + 1) % n));
  }
  return g;
}

Graph CliqueGraph(size_t n) {
  Graph g(n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) g.AddEdge(i, j);
  }
  return g;
}

// ---- Reference elimination: the original O(n^2 * d^2) scan. ---------------
//
// MinFillOrder / MinDegreeOrder / HeuristicDecomposition run incrementally
// (a lazy score heap over flat adjacency). These are the plain
// definitions they must reproduce exactly: at every step rescan every live
// vertex on std::set adjacency and take the lowest score, the smallest id
// among ties; then simulate the elimination once more to record the bags.

std::vector<std::set<uint32_t>> SetAdjacency(const Graph& g) {
  std::vector<std::set<uint32_t>> adj(g.vertex_count());
  for (uint32_t v = 0; v < g.vertex_count(); ++v) {
    for (uint32_t w : g.neighbors(v)) adj[v].insert(w);
  }
  return adj;
}

void EliminateFromSets(std::vector<std::set<uint32_t>>& adj, uint32_t v) {
  for (uint32_t w1 : adj[v]) {
    for (uint32_t w2 : adj[v]) {
      if (w1 != w2) adj[w1].insert(w2);
    }
    adj[w1].erase(v);
  }
  adj[v].clear();
}

std::vector<uint32_t> ReferenceOrder(const Graph& g, bool min_fill) {
  const size_t n = g.vertex_count();
  std::vector<std::set<uint32_t>> adj = SetAdjacency(g);
  std::vector<uint8_t> eliminated(n, 0);
  std::vector<uint32_t> order;
  for (size_t step = 0; step < n; ++step) {
    uint32_t best = UINT32_MAX;
    size_t best_score = SIZE_MAX;
    for (uint32_t v = 0; v < n; ++v) {
      if (eliminated[v]) continue;
      size_t score = 0;
      if (min_fill) {
        for (uint32_t w1 : adj[v]) {
          for (uint32_t w2 : adj[v]) {
            if (w1 < w2 && adj[w1].count(w2) == 0) ++score;
          }
        }
      } else {
        score = adj[v].size();
      }
      if (score < best_score) {
        best_score = score;
        best = v;
      }
    }
    order.push_back(best);
    eliminated[best] = 1;
    EliminateFromSets(adj, best);
  }
  return order;
}

TreeDecomposition ReferenceDecomposition(const Graph& g,
                                         const std::vector<uint32_t>& order) {
  const size_t n = g.vertex_count();
  std::vector<std::set<uint32_t>> adj = SetAdjacency(g);
  std::vector<size_t> position(n);
  for (size_t i = 0; i < n; ++i) position[order[i]] = i;
  std::vector<std::vector<Element>> bag_of(n);
  for (uint32_t v : order) {
    bag_of[v].push_back(v);
    bag_of[v].insert(bag_of[v].end(), adj[v].begin(), adj[v].end());
    EliminateFromSets(adj, v);
  }
  TreeDecomposition out;
  std::vector<uint32_t> node_of(n);
  for (size_t i = n; i-- > 0;) {
    const uint32_t v = order[i];
    uint32_t parent = TreeDecomposition::kNoParent;
    size_t best = SIZE_MAX;
    for (Element w : bag_of[v]) {
      if (w != v && position[w] < best) {
        best = position[w];
        parent = node_of[w];
      }
    }
    node_of[v] = out.AddNode(bag_of[v], parent);
  }
  return out;
}

Graph RandomGnp(size_t n, double p, Rng& rng) {
  Graph g(n);
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v = u + 1; v < n; ++v) {
      if (rng.Chance(p)) g.AddEdge(u, v);
    }
  }
  return g;
}

/// The shape sweep of the equivalence net: trivial graphs, disconnected
/// unions, cliques, stars, partial k-trees for k = 1..4, and G(n, p).
Graph RandomShape(int trial, Rng& rng) {
  switch (trial % 8) {
    case 0:
      return Graph(rng.Below(2));  // empty or a single vertex
    case 1: {
      // Disconnected: two random pieces side by side, plus isolated vertices.
      Graph left = RandomPartialKTree(3 + rng.Below(12), 2, 0.7, rng);
      Graph right = RandomGnp(1 + rng.Below(10), 0.4, rng);
      const uint32_t off = static_cast<uint32_t>(left.vertex_count());
      Graph g(off + right.vertex_count() + rng.Below(3));
      for (uint32_t u = 0; u < off; ++u) {
        for (uint32_t v : left.neighbors(u)) g.AddEdge(u, v);
      }
      for (uint32_t u = 0; u < right.vertex_count(); ++u) {
        for (uint32_t v : right.neighbors(u)) g.AddEdge(off + u, off + v);
      }
      return g;
    }
    case 2: {
      Graph g(1 + rng.Below(9));
      for (uint32_t u = 0; u < g.vertex_count(); ++u) {
        for (uint32_t v = u + 1; v < g.vertex_count(); ++v) g.AddEdge(u, v);
      }
      return g;
    }
    case 3: {
      // Star with its center at a random id, sometimes with extra leaf edges.
      const size_t n = 2 + rng.Below(30);
      const uint32_t center = static_cast<uint32_t>(rng.Below(n));
      Graph g(n);
      for (uint32_t v = 0; v < n; ++v) g.AddEdge(center, v);
      for (int extra = static_cast<int>(rng.Below(3)); extra > 0; --extra) {
        g.AddEdge(static_cast<uint32_t>(rng.Below(n)),
                  static_cast<uint32_t>(rng.Below(n)));
      }
      return g;
    }
    case 4:
    case 5: {
      const uint32_t k = 1 + static_cast<uint32_t>(rng.Below(4));
      return RandomPartialKTree(k + 1 + rng.Below(40), k,
                                0.5 + 0.5 * rng.Chance(0.5), rng);
    }
    default:
      return RandomGnp(rng.Below(36), 0.05 + 0.4 * (rng.Below(100) / 100.0),
                       rng);
  }
}

TEST(EliminationOrderTest, IncrementalOrdersMatchTheReferenceScan) {
  Rng rng(2024);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 2400; ++trial) {
    Graph g = RandomShape(trial, rng);
    SCOPED_TRACE(testing::Message() << "trial " << trial << " n="
                                    << g.vertex_count() << " m="
                                    << g.edge_count());
    const std::vector<uint32_t> fill_order = ReferenceOrder(g, true);
    ASSERT_EQ(MinFillOrder(g), fill_order);
    ASSERT_EQ(MinDegreeOrder(g), ReferenceOrder(g, false));

    // HeuristicDecomposition records the bags during its own elimination;
    // bags and parents must equal the reference's node for node.
    const std::string want = ReferenceDecomposition(g, fill_order).ToString();
    Result<TreeDecomposition> td =
        HeuristicDecomposition(StructureFromGraph(vocab, g));
    ASSERT_TRUE(td.ok());
    ASSERT_EQ(td->ToString(), want);
    ASSERT_EQ(DecompositionFromEliminationOrder(g, fill_order).ToString(),
              want);

    // Any order, not just greedy ones, goes through the same flat core.
    std::vector<uint32_t> shuffled = fill_order;
    rng.Shuffle(shuffled);
    ASSERT_EQ(DecompositionFromEliminationOrder(g, shuffled).ToString(),
              ReferenceDecomposition(g, shuffled).ToString());
  }
}

// ---- Validation rejects every broken condition. ----------------------------

/// A copy of `td` with each node's bag and parent passed through `edit`.
TreeDecomposition Rebuild(
    const TreeDecomposition& td,
    const std::function<void(uint32_t, std::vector<Element>&, uint32_t&)>&
        edit) {
  TreeDecomposition out;
  for (uint32_t node = 0; node < td.node_count(); ++node) {
    std::vector<Element> bag = td.bag(node);
    uint32_t parent = td.parent(node);
    edit(node, bag, parent);
    out.AddNode(std::move(bag), parent);
  }
  return out;
}

TEST(DecompositionTest, ValidationRejectsEveryBrokenCondition) {
  auto vocab = MakeGraphVocabulary();
  Structure a = UndirectedCycleStructure(vocab, 10);
  Graph g = GaifmanGraph(a);
  const TreeDecomposition td = *HeuristicDecomposition(a);
  ASSERT_TRUE(td.ValidateFor(a).ok());
  ASSERT_TRUE(td.ValidateFor(g).ok());
  ASSERT_GE(td.node_count(), 4u);

  // Both overloads share the element-level conditions and their messages.
  auto expect_both = [&](const TreeDecomposition& broken,
                         const std::string& message) {
    Status sg = broken.ValidateFor(g);
    Status sa = broken.ValidateFor(a);
    EXPECT_EQ(sg.code(), StatusCode::kInvalidArgument) << sg.ToString();
    EXPECT_EQ(sg.message(), message);
    EXPECT_EQ(sa.code(), StatusCode::kInvalidArgument) << sa.ToString();
    EXPECT_EQ(sa.message(), message);
  };

  expect_both(TreeDecomposition(), "no bags for a nonempty graph");
  expect_both(Rebuild(td,
                      [](uint32_t node, std::vector<Element>& bag, uint32_t&) {
                        if (node == 2) bag.clear();
                      }),
              "empty bag");
  expect_both(Rebuild(td,
                      [](uint32_t node, std::vector<Element>& bag, uint32_t&) {
                        if (node == 1) bag.push_back(10);
                      }),
              "bag element out of range");
  // Drop a vertex from every bag (one that is never a bag on its own, so
  // no bag empties first).
  int dropped = 0;
  for (Element x = 0; x < 10; ++x) {
    bool alone = false;
    for (uint32_t node = 0; node < td.node_count(); ++node) {
      alone |= td.bag(node) == std::vector<Element>{x};
    }
    if (alone) continue;
    ++dropped;
    expect_both(Rebuild(td,
                        [&](uint32_t, std::vector<Element>& bag, uint32_t&) {
                          std::erase(bag, x);
                        }),
                "vertex " + std::to_string(x) + " is in no bag");
  }
  EXPECT_GT(dropped, 0);

  // Non-subtree: add a vertex to a node that neither holds it nor touches
  // a node holding it, so its nodes split into two tops.
  for (Element x = 0; x < 10; ++x) {
    auto holds = [&](uint32_t node) {
      const auto& bag = td.bag(node);
      return std::binary_search(bag.begin(), bag.end(), x);
    };
    for (uint32_t node = 0; node < td.node_count(); ++node) {
      const uint32_t p = td.parent(node);
      bool touches = holds(node) ||
                     (p != TreeDecomposition::kNoParent && holds(p));
      for (uint32_t child : td.children(node)) touches |= holds(child);
      if (touches) continue;
      SCOPED_TRACE(testing::Message() << "x=" << x << " node=" << node);
      // Elements below x are untouched, so x is the first one reported.
      expect_both(Rebuild(td,
                          [&](uint32_t n, std::vector<Element>& bag,
                              uint32_t&) {
                            if (n == node) bag.push_back(x);
                          }),
                  "bags containing vertex " + std::to_string(x) +
                      " do not form a subtree");
    }
  }

  // Uncovered edge (graph) and uncovered tuple (structure): link two
  // elements that share no bag.
  bool found = false;
  for (Element u = 0; u < 10 && !found; ++u) {
    for (Element v = u + 1; v < 10 && !found; ++v) {
      bool share = false;
      for (uint32_t node = 0; node < td.node_count(); ++node) {
        const auto& bag = td.bag(node);
        share |= std::binary_search(bag.begin(), bag.end(), u) &&
                 std::binary_search(bag.begin(), bag.end(), v);
      }
      if (share) continue;
      found = true;
      Graph wider = g;
      wider.AddEdge(u, v);
      Status sg = td.ValidateFor(wider);
      EXPECT_EQ(sg.message(), "edge {" + std::to_string(u) + "," +
                                  std::to_string(v) + "} is in no bag");
      Structure extra = a;
      extra.AddTuple(0, {v, u});
      Status sa = td.ValidateFor(extra);
      EXPECT_EQ(sa.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(sa.message(), "a tuple of E is covered by no bag");
    }
  }
  EXPECT_TRUE(found);
}

TEST(DecompositionTest, ValidationAssignsEveryTupleToACoveringNode) {
  // Each node lists exactly the tuples its bag covers, in tuple order, so
  // every tuple appears at least once and at every covering node.
  Rng rng(61);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 20; ++trial) {
    Structure a = StructureFromGraph(
        vocab, RandomPartialKTree(4 + rng.Below(30), 2, 0.8, rng));
    const TreeDecomposition td = *HeuristicDecomposition(a);
    TreeDecomposition::TupleAssignment assignment;
    ASSERT_TRUE(td.ValidateFor(a, &assignment).ok());
    ASSERT_EQ(assignment.size(), td.node_count());
    std::vector<int> listed(a.relation(0).tuple_count(), 0);
    for (uint32_t node = 0; node < td.node_count(); ++node) {
      const auto& bag = td.bag(node);
      std::vector<std::pair<RelId, uint32_t>> want;
      for (uint32_t t = 0; t < a.relation(0).tuple_count(); ++t) {
        bool covered = true;
        for (Element e : a.relation(0).tuple(t)) {
          covered = covered && std::binary_search(bag.begin(), bag.end(), e);
        }
        if (covered) want.emplace_back(0, t);
      }
      EXPECT_EQ(assignment[node], want) << "node " << node;
      for (auto [rel, t] : assignment[node]) ++listed[t];
    }
    for (int times : listed) EXPECT_GE(times, 1);
  }
}

TEST(DecompositionTest, ManualValidDecomposition) {
  // Path 0-1-2: bags {0,1} and {1,2}.
  Graph path(3);
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  TreeDecomposition td;
  uint32_t root = td.AddNode({0, 1}, TreeDecomposition::kNoParent);
  td.AddNode({1, 2}, root);
  EXPECT_TRUE(td.ValidateFor(path).ok());
  EXPECT_EQ(td.Width(), 1);
}

TEST(DecompositionTest, DetectsViolations) {
  Graph path(3);
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  {
    // Missing vertex 2.
    TreeDecomposition td;
    td.AddNode({0, 1}, TreeDecomposition::kNoParent);
    EXPECT_FALSE(td.ValidateFor(path).ok());
  }
  {
    // Edge {1,2} in no bag.
    TreeDecomposition td;
    uint32_t root = td.AddNode({0, 1}, TreeDecomposition::kNoParent);
    td.AddNode({2}, root);
    EXPECT_FALSE(td.ValidateFor(path).ok());
  }
  {
    // Vertex 0's bags disconnected.
    TreeDecomposition td;
    uint32_t root = td.AddNode({0, 1}, TreeDecomposition::kNoParent);
    uint32_t mid = td.AddNode({1, 2}, root);
    td.AddNode({0, 2}, mid);
    EXPECT_FALSE(td.ValidateFor(path).ok());
  }
}

TEST(DecompositionTest, EliminationOrderWidths) {
  // Trees have width 1, cycles 2, cliques n-1 under any elimination order
  // heuristic that is not pathological.
  Rng rng(3);
  Graph tree = RandomTree(20, rng);
  auto td_tree =
      DecompositionFromEliminationOrder(tree, MinFillOrder(tree));
  EXPECT_TRUE(td_tree.ValidateFor(tree).ok());
  EXPECT_EQ(td_tree.Width(), 1);

  Graph cycle = CycleGraph(12);
  auto td_cycle =
      DecompositionFromEliminationOrder(cycle, MinFillOrder(cycle));
  EXPECT_TRUE(td_cycle.ValidateFor(cycle).ok());
  EXPECT_EQ(td_cycle.Width(), 2);

  Graph clique = CliqueGraph(6);
  auto td_clique =
      DecompositionFromEliminationOrder(clique, MinDegreeOrder(clique));
  EXPECT_TRUE(td_clique.ValidateFor(clique).ok());
  EXPECT_EQ(td_clique.Width(), 5);
}

TEST(DecompositionTest, ValidatesOnRandomPartialKTrees) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    uint32_t k = 1 + static_cast<uint32_t>(rng.Below(3));
    Graph g = RandomPartialKTree(6 + rng.Below(15), k, 0.7, rng);
    for (auto order : {MinDegreeOrder(g), MinFillOrder(g)}) {
      auto td = DecompositionFromEliminationOrder(g, order);
      EXPECT_TRUE(td.ValidateFor(g).ok());
    }
  }
}

TEST(ExactTreewidthTest, KnownValues) {
  EXPECT_EQ(*ExactTreewidth(Graph(0)), -1);
  EXPECT_EQ(*ExactTreewidth(Graph(3)), 0);  // no edges
  Graph path(4);
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  path.AddEdge(2, 3);
  EXPECT_EQ(*ExactTreewidth(path), 1);
  EXPECT_EQ(*ExactTreewidth(CycleGraph(7)), 2);
  EXPECT_EQ(*ExactTreewidth(CliqueGraph(5)), 4);
  // 3x3 grid has treewidth 3.
  auto vocab = MakeGraphVocabulary();
  Structure grid = GridStructure(vocab, 3, 3);
  EXPECT_EQ(*ExactTreewidth(GaifmanGraph(grid)), 3);
}

TEST(ExactTreewidthTest, BoundsEnforced) {
  EXPECT_FALSE(ExactTreewidth(Graph(25)).ok());
}

TEST(ExactTreewidthTest, HeuristicsAreUpperBounds) {
  Rng rng(19);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g(8);
    for (uint32_t u = 0; u < 8; ++u) {
      for (uint32_t v = u + 1; v < 8; ++v) {
        if (rng.Chance(0.3)) g.AddEdge(u, v);
      }
    }
    int exact = *ExactTreewidth(g);
    int min_fill =
        DecompositionFromEliminationOrder(g, MinFillOrder(g)).Width();
    int min_degree =
        DecompositionFromEliminationOrder(g, MinDegreeOrder(g)).Width();
    EXPECT_GE(min_fill, exact);
    EXPECT_GE(min_degree, exact);
  }
}

TEST(ExactTreewidthTest, KTreesHaveTreewidthK) {
  Rng rng(23);
  for (uint32_t k = 1; k <= 3; ++k) {
    Graph g = RandomKTree(9, k, rng);
    EXPECT_EQ(*ExactTreewidth(g), static_cast<int>(k));
  }
}

TEST(GaifmanVsIncidenceTest, SingleWideTuple) {
  // Section 5: one n-ary tuple has Gaifman treewidth n-1 but incidence
  // treewidth 1 (its incidence graph is a star).
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("R", 5);
  Structure s(vocab, 5);
  s.AddTuple(0, {0, 1, 2, 3, 4});
  EXPECT_EQ(*ExactTreewidth(GaifmanGraph(s)), 4);
  EXPECT_EQ(HeuristicIncidenceTreewidth(s), 1);
}

TEST(HomDpTest, CycleToCliqueMatchesBacktracking) {
  auto vocab = MakeGraphVocabulary();
  for (size_t n = 3; n <= 8; ++n) {
    Structure cn = UndirectedCycleStructure(vocab, n);
    for (size_t kk = 2; kk <= 3; ++kk) {
      Structure target = CliqueStructure(vocab, kk);
      auto dp = SolveBoundedTreewidth(cn, target);
      ASSERT_TRUE(dp.ok()) << dp.status().ToString();
      EXPECT_EQ(dp->has_value(), HasHomomorphism(cn, target))
          << "n=" << n << " k=" << kk;
      if (dp->has_value()) {
        EXPECT_TRUE(IsHomomorphism(cn, target, **dp));
      }
    }
  }
}

TEST(HomDpTest, RandomPartialKTreesMatchBacktracking) {
  Rng rng(29);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 30; ++trial) {
    uint32_t k = 1 + static_cast<uint32_t>(rng.Below(3));
    Graph ga = RandomPartialKTree(5 + rng.Below(8), k, 0.8, rng);
    Structure a = StructureFromGraph(vocab, ga);
    Structure b = RandomGraphStructure(vocab, 2 + rng.Below(4), 0.5, rng,
                                       /*symmetric=*/true);
    TreewidthSolveStats stats;
    auto dp = SolveBoundedTreewidth(a, b, &stats);
    ASSERT_TRUE(dp.ok());
    EXPECT_EQ(dp->has_value(), HasHomomorphism(a, b)) << "trial " << trial;
    if (dp->has_value()) {
      EXPECT_TRUE(IsHomomorphism(a, b, **dp));
    }
    EXPECT_LE(stats.width, static_cast<int>(2 * k + 1));  // heuristic slack
  }
}

TEST(HomDpTest, SuppliedDecompositionIsChecked) {
  auto vocab = MakeGraphVocabulary();
  Structure c4 = UndirectedCycleStructure(vocab, 4);
  TreeDecomposition bogus;
  bogus.AddNode({0, 1}, TreeDecomposition::kNoParent);
  auto result = SolveViaTreeDecomposition(c4, c4, bogus);
  EXPECT_FALSE(result.ok());
}

TEST(HomDpTest, EmptySource) {
  auto vocab = MakeGraphVocabulary();
  Structure empty(vocab, 0);
  Structure b = UndirectedCycleStructure(vocab, 3);
  auto dp = SolveBoundedTreewidth(empty, b);
  ASSERT_TRUE(dp.ok());
  ASSERT_TRUE(dp->has_value());
  EXPECT_TRUE((*dp)->empty());
}

TEST(HomDpTest, EmptySourceViaSuppliedDecomposition) {
  auto vocab = MakeGraphVocabulary();
  Structure empty(vocab, 0);
  auto via = SolveViaTreeDecomposition(empty, CliqueStructure(vocab, 2),
                                       *HeuristicDecomposition(empty));
  ASSERT_TRUE(via.ok());
  ASSERT_TRUE(via->has_value());
  EXPECT_TRUE((*via)->empty());
}

TEST(HomDpTest, HandlesSelfLoopsAndUnaryFacts) {
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
  const TreeDecomposition td = *HeuristicDecomposition(a);
  auto h = SolveViaTreeDecomposition(a, b, td);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->has_value());
  EXPECT_TRUE(IsHomomorphism(a, b, **h));
  // Remove the loop from B: now element 0 has no image.
  Structure b2(vocab, 2);
  b2.AddTuple(e, {0, 1});
  b2.AddTuple(p, {1});
  auto h2 = SolveViaTreeDecomposition(a, b2, td);
  ASSERT_TRUE(h2.ok());
  EXPECT_FALSE(h2->has_value());
}

TEST(HomDpTest, EmptyTarget) {
  auto vocab = MakeGraphVocabulary();
  Structure a = PathStructure(vocab, 3);
  Structure empty(vocab, 0);
  auto dp = SolveBoundedTreewidth(a, empty);
  ASSERT_TRUE(dp.ok());
  EXPECT_FALSE(dp->has_value());
}

TEST(BinaryEncodingTest, VocabularyShape) {
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("P", 3);
  vocab->AddRelation("R", 2);
  Structure s(vocab, 4);
  s.AddTuple(0, {0, 1, 2});
  s.AddTuple(1, {2, 3});
  BinaryEncoded enc = BinaryEncode(s);
  // (3+2)^2 = 25 coincidence relations; 2 tuples -> 2 elements.
  EXPECT_EQ(enc.vocabulary->size(), 25u);
  EXPECT_EQ(enc.encoded.universe_size(), 2u);
  // Reflexive pairs exist: E_P_P_0_0 contains (s, s).
  auto rel = enc.vocabulary->FindRelation("E_P_P_0_0");
  ASSERT_TRUE(rel.has_value());
  Element self_pair[] = {0, 0};
  EXPECT_TRUE(enc.encoded.relation(*rel).Contains(self_pair));
  // Coincidence across relations: position 2 of the P-tuple equals
  // position 0 of the R-tuple.
  auto cross = enc.vocabulary->FindRelation("E_P_R_2_0");
  ASSERT_TRUE(cross.has_value());
  Element pair[] = {0, 1};
  EXPECT_TRUE(enc.encoded.relation(*cross).Contains(pair));
}

TEST(BinaryEncodingTest, PreservesHomomorphismExistence) {
  Rng rng(31);
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("R", 3);
  for (int trial = 0; trial < 40; ++trial) {
    Structure a = RandomStructure(vocab, 2 + rng.Below(4), rng.Below(5), rng);
    Structure b = RandomStructure(vocab, 2 + rng.Below(3), rng.Below(6), rng);
    bool direct = HasHomomorphism(a, b);
    bool via_encoding = HomomorphismExistsViaBinaryEncoding(
        a, b, [](const Structure& ea, const Structure& eb) {
          return HasHomomorphism(ea, eb);
        });
    EXPECT_EQ(direct, via_encoding) << "trial " << trial;
  }
}

TEST(BinaryEncodingTest, DecodeRoundTrip) {
  Rng rng(37);
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("R", 3);
  for (int trial = 0; trial < 20; ++trial) {
    Structure a = RandomStructure(vocab, 3, 1 + rng.Below(3), rng);
    Structure b = RandomStructure(vocab, 3, 4 + rng.Below(6), rng);
    if (a.TotalTuples() == 0 || b.TotalTuples() == 0) continue;
    BinaryEncoded enc_a = BinaryEncode(a);
    BinaryEncoded enc_b = BinaryEncode(b);
    auto h_enc = FindHomomorphism(enc_a.encoded, enc_b.encoded);
    if (!h_enc.has_value()) continue;
    auto decoded = DecodeBinaryHomomorphism(a, b, enc_a, enc_b, *h_enc);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(IsHomomorphism(a, b, *decoded));
  }
}

TEST(BinaryEncodingTest, LowersArityForTreewidthMachinery) {
  // The point of Lemma 5.5: a high-arity A becomes binary, so the DP of
  // Theorem 5.4 applies after encoding. End to end: encode, decompose, DP.
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("R", 4);
  Rng rng(41);
  Structure a(vocab, 6);
  a.AddTuple(0, {0, 1, 2, 3});
  a.AddTuple(0, {2, 3, 4, 5});
  Structure b = RandomStructure(vocab, 3, 10, rng);
  bool expected = HasHomomorphism(a, b);
  bool got = HomomorphismExistsViaBinaryEncoding(
      a, b, [](const Structure& ea, const Structure& eb) {
        auto dp = SolveBoundedTreewidth(ea, eb);
        CQCS_CHECK(dp.ok());
        return dp->has_value();
      });
  EXPECT_EQ(expected, got);
}

TEST(GeneratorsTest, ChainAndStarQueries) {
  auto vocab = MakeGraphVocabulary();
  ConjunctiveQuery chain = ChainQuery(vocab, 3);
  EXPECT_EQ(chain.atoms().size(), 3u);
  EXPECT_EQ(chain.arity(), 2u);
  EXPECT_TRUE(chain.Validate().ok());
  ConjunctiveQuery star = StarQuery(vocab, 4);
  EXPECT_EQ(star.atoms().size(), 4u);
  EXPECT_TRUE(star.Validate().ok());
  EXPECT_TRUE(star.IsTwoAtomQuery() == false);
}

TEST(GeneratorsTest, RandomQueriesValidate) {
  Rng rng(43);
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("E", 2);
  vocab->AddRelation("F", 3);
  for (int trial = 0; trial < 30; ++trial) {
    ConjunctiveQuery q =
        RandomQuery(vocab, 1 + rng.Below(5), 1 + rng.Below(6), rng);
    EXPECT_TRUE(q.Validate().ok());
    ConjunctiveQuery two = RandomTwoAtomQuery(vocab, 1 + rng.Below(5), rng);
    EXPECT_TRUE(two.Validate().ok());
    EXPECT_TRUE(two.IsTwoAtomQuery());
  }
}

TEST(GeneratorsTest, GridStructure) {
  auto vocab = MakeGraphVocabulary();
  Structure grid = GridStructure(vocab, 2, 3);
  EXPECT_EQ(grid.universe_size(), 6u);
  EXPECT_EQ(grid.TotalTuples(), 2u * 7u);  // 7 undirected edges
}

}  // namespace
}  // namespace cqcs
