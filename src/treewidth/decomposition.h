// Tree decompositions of graphs and relational structures (Section 5).
//
// A tree decomposition of a structure A is a tree whose nodes are labeled
// with subsets ("bags") of A's universe such that (1) every bag is nonempty
// (the paper's condition; we additionally allow the degenerate empty
// structure), (2) every tuple of A is contained in some bag, and (3) for
// every element the set of bags containing it forms a subtree. By
// Lemma 5.1 this coincides with tree decompositions of the Gaifman graph.

#ifndef CQCS_TREEWIDTH_DECOMPOSITION_H_
#define CQCS_TREEWIDTH_DECOMPOSITION_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/graph.h"
#include "core/structure.h"

namespace cqcs {

class ResourceGovernor;  // common/governor.h

/// A rooted tree decomposition. Node 0 is the root (when nonempty); every
/// other node has a parent with a smaller index.
class TreeDecomposition {
 public:
  TreeDecomposition() = default;

  /// Adds a node with the given bag; parent == kNoParent makes it a root
  /// (only node 0 may be a root in a valid decomposition of a connected
  /// graph, but forests are allowed: validation only checks decomposition
  /// properties). Returns the node id.
  static constexpr uint32_t kNoParent = UINT32_MAX;
  uint32_t AddNode(std::vector<Element> bag, uint32_t parent);

  size_t node_count() const { return bags_.size(); }
  const std::vector<Element>& bag(uint32_t node) const { return bags_[node]; }
  uint32_t parent(uint32_t node) const { return parents_[node]; }
  const std::vector<uint32_t>& children(uint32_t node) const {
    return children_[node];
  }

  /// Width = max bag size - 1 (-1 if there are no nodes).
  int Width() const;

  /// For each node, the tuples (relation, tuple index) of a structure its
  /// bag covers: a tuple is listed at every node whose bag holds all of its
  /// elements.
  using TupleAssignment = std::vector<std::vector<std::pair<RelId, uint32_t>>>;

  /// Checks the three decomposition conditions against a graph: vertex and
  /// edge coverage, and connectedness of every vertex's bag set. Runs over
  /// a per-vertex node-list index built in O(Σ|bag| · log w) for width w:
  /// connectedness counts the nodes holding a vertex whose parent lacks it
  /// (exactly one "top" per vertex), and an edge probes only the node list
  /// of its rarer endpoint.
  Status ValidateFor(const Graph& g) const;

  /// Checks the structure version: every tuple's elements lie in one bag
  /// (Lemma 5.1: equivalent to validating against the Gaifman graph, which
  /// is never built). When `assignment` is non-null it receives, per node,
  /// every tuple its bag covers, found by scanning the node list of the
  /// tuple's rarest element.
  Status ValidateFor(const Structure& a,
                     TupleAssignment* assignment = nullptr) const;

  /// Diagnostic rendering: one "node -> parent: {bag}" line per node.
  std::string ToString() const;

 private:
  std::vector<std::vector<Element>> bags_;  // each sorted ascending
  std::vector<uint32_t> parents_;
  std::vector<std::vector<uint32_t>> children_;
};

/// Builds a tree decomposition from an elimination order: eliminating v
/// connects its remaining neighbors (fill-in) and creates the bag
/// {v} ∪ N_remaining(v). Width equals the max such bag minus one. The
/// classical equivalence: minimizing over all orders yields the treewidth.
TreeDecomposition DecompositionFromEliminationOrder(
    const Graph& g, const std::vector<uint32_t>& order);

/// Min-degree heuristic elimination order: always eliminate a vertex of
/// least remaining degree, the smallest id among ties.
std::vector<uint32_t> MinDegreeOrder(const Graph& g);

/// Min-fill heuristic elimination order (usually tighter): always eliminate
/// a vertex whose elimination adds the fewest fill edges, the smallest id
/// among ties. Both orders run incrementally — a lazy heap of scores where
/// each elimination rescores only the vertices it affects — so a step costs
/// about the local degree squared, not a rescan of the graph.
std::vector<uint32_t> MinFillOrder(const Graph& g);

/// An optional width cap for HeuristicDecomposition, and where a capped
/// elimination stopped.
struct WidthCap {
  int max_width = 0;           ///< in, >= 0: the widest bag allowed, minus one
  bool stopped = false;        ///< out: some bag exceeded the cap
  int width_lower_bound = -1;  ///< out, on a stop: largest bag seen minus one
  size_t eliminated = 0;       ///< out, on a stop: eliminations before it
};

/// Heuristic decomposition of a structure via its Gaifman graph: the
/// min-fill elimination, whose bags are recorded as it goes — identical to
/// DecompositionFromEliminationOrder(g, MinFillOrder(g)). A non-null
/// governor is polled once per eliminated vertex, so a deadline or
/// cancellation aborts with kResourceExhausted; without one the build
/// cannot fail.
///
/// A non-null `cap` bounds the elimination: it stops before recording the
/// first bag of more than cap->max_width + 1 elements, sets cap->stopped,
/// and returns an empty decomposition. The min-fill width then exceeds the
/// cap and is at least cap->width_lower_bound. An elimination that never
/// exceeds the cap returns the uncapped decomposition.
Result<TreeDecomposition> HeuristicDecomposition(
    const Structure& a, ResourceGovernor* governor = nullptr,
    WidthCap* cap = nullptr);

/// Exact treewidth by dynamic programming over vertex subsets
/// (O(2^n · n^2); bounded to n <= 24). Errors with Unsupported beyond that.
Result<int> ExactTreewidth(const Graph& g);

/// The incidence treewidth of a structure: treewidth of its incidence
/// graph, computed with the min-fill heuristic (upper bound).
int HeuristicIncidenceTreewidth(const Structure& a);

}  // namespace cqcs

#endif  // CQCS_TREEWIDTH_DECOMPOSITION_H_
