// The uniform polynomial-time algorithm for bounded-treewidth sources
// (Theorem 5.4): deciding hom(A -> B) over a tree decomposition of A.
//
// The paper proves Theorem 5.4 by translating A into an ∃FO^{k+1} sentence
// and evaluating it on B. That evaluation is Yannakakis's program over bag
// relations: each bag holds at most k+1 elements (the k+1 variables of the
// formula), its relation is every assignment of them that maps the tuples
// of A the bag covers into B, and the decomposition is the join tree. So
// this route builds one table per bag by join and hands the tables to the
// program of cq/acyclic.h (YannakakisProgram::FromBags), which serves every
// task. Cost O(#bags · |B|^{w+1} · poly) at worst; the joins only extend
// assignments that the covered tuples allow.
#ifndef CQCS_TREEWIDTH_HOM_DP_H_
#define CQCS_TREEWIDTH_HOM_DP_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "core/homomorphism.h"
#include "treewidth/decomposition.h"

namespace cqcs {

class ResourceGovernor;  // common/governor.h

/// Statistics from the treewidth route, for the benchmarks. workers/morsels
/// are deterministic per (input, thread count) while steals depends on
/// scheduling.
struct TreewidthSolveStats {
  int width = -1;              ///< width of the decomposition used
  /// Join extensions the bag joins tried: one per candidate value tried
  /// at one bag position, partial assignments included. This counts work
  /// done, not the |B|^{w+1} candidates per bag.
  size_t table_entries = 0;
  size_t table_rows = 0;       ///< bag-table rows before the semijoin passes
  unsigned workers = 0;        ///< resolved worker count of the run
  uint64_t morsels = 0;        ///< morsels of the bag-join dispatch (8 bags
                               ///< each); the program itself dispatches none
  uint64_t steals = 0;         ///< morsels run by pool (non-calling) threads
};

/// Decides hom(A -> B) with a caller-supplied decomposition of A. The
/// decomposition is validated first (InvalidArgument when it is not a tree
/// decomposition of A, or on vocabulary mismatch). Returns a full witness
/// homomorphism or nullopt: YannakakisProgram::FromBags with the walk's
/// passes, then the first assignment.
///
/// An optional ResourceGovernor (common/governor.h) bounds the run: the
/// bag joins and the program poll it on a stride and their tables charge
/// against its memory budget; a trip unwinds with kResourceExhausted and
/// no partial answer.
///
/// `num_threads` (SolveOptions convention: 1 = sequential, 0 = hardware)
/// builds the bags, which are independent, in one flat dispatch on the
/// shared MorselPool; the program's passes then run on the calling thread.
/// Answer and stats (minus workers/steals) are identical at every thread
/// count.
///
/// A non-null `node_tables` receives, per node, its bag table before the
/// semijoin passes (row-major, columns in bag order).
Result<std::optional<Homomorphism>> SolveViaTreeDecomposition(
    const Structure& a, const Structure& b,
    const TreeDecomposition& decomposition,
    TreewidthSolveStats* stats = nullptr,
    ResourceGovernor* governor = nullptr, unsigned num_threads = 1,
    std::vector<std::vector<Element>>* node_tables = nullptr);

/// Convenience: builds a min-fill heuristic decomposition of A and runs
/// SolveViaTreeDecomposition. Polynomial whenever A's treewidth is bounded
/// (the heuristic width is bounded too on partial k-trees in practice; the
/// answer is exact always — only the running time depends on the width
/// found). The governor also bounds the min-fill ordering itself.
Result<std::optional<Homomorphism>> SolveBoundedTreewidth(
    const Structure& a, const Structure& b,
    TreewidthSolveStats* stats = nullptr,
    ResourceGovernor* governor = nullptr, unsigned num_threads = 1);

}  // namespace cqcs

#endif  // CQCS_TREEWIDTH_HOM_DP_H_
