// The uniform polynomial-time algorithm for bounded-treewidth sources
// (Theorem 5.4): deciding hom(A -> B) by dynamic programming over a tree
// decomposition of A.
//
// The paper proves Theorem 5.4 by translating A into an ∃FO^{k+1} query and
// evaluating it on B; operationally that evaluation IS the bag-by-bag
// dynamic program below — each bag holds at most k+1 elements (= the k+1
// variables of the formula), and the subtree tables are the relations the
// bottom-up evaluation maintains. Complexity O(#bags · |B|^{w+1} · poly).

#ifndef CQCS_TREEWIDTH_HOM_DP_H_
#define CQCS_TREEWIDTH_HOM_DP_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "core/homomorphism.h"
#include "treewidth/decomposition.h"

namespace cqcs {

class ResourceGovernor;  // common/governor.h

/// Statistics from the DP run, for the benchmarks. As with
/// YannakakisStats, workers/morsels are deterministic per (input, thread
/// count) while steals depends on scheduling.
struct TreewidthSolveStats {
  int width = -1;              ///< width of the decomposition used
  /// Bag assignments the pruned walk visited, partial ones included: one
  /// per value tried at one bag position. A filter that fails skips every
  /// assignment below it, so this counts work done, not the |B|^{w+1}
  /// candidates per bag.
  size_t table_entries = 0;
  size_t table_rows = 0;       ///< rows kept across all node tables (one
                               ///< per distinct parent-intersection key)
  unsigned workers = 0;        ///< resolved worker count of the run
  uint64_t morsels = 0;        ///< per-bag morsel dispatches
  uint64_t steals = 0;         ///< bags run by pool (non-calling) threads
};

/// Decides hom(A -> B) with a caller-supplied decomposition of A. The
/// decomposition is validated first (InvalidArgument when it is not a tree
/// decomposition of A, or on vocabulary mismatch). Returns a full witness
/// homomorphism or nullopt.
///
/// An optional ResourceGovernor (common/governor.h) bounds the run: the
/// bag-assignment walk polls it on a stride and the DP tables charge
/// their growth against its memory budget; a trip unwinds with
/// kResourceExhausted and no partial answer.
///
/// `num_threads` (SolveOptions convention: 1 = sequential, 0 = hardware)
/// runs independent bags concurrently: the DP is level-scheduled over the
/// forest — every bag of one depth is processed before any bag of the
/// next-shallower depth — and the bags within a level, which share no
/// data, fan out on the shared MorselPool. Answer and stats (minus
/// workers/steals) are identical at every thread count.
///
/// A non-null `node_tables` receives, per node, the rows its table kept
/// (row-major, in the order kept; empty for nodes the DP never reached),
/// so DP implementations can be compared table for table.
Result<std::optional<Homomorphism>> SolveViaTreeDecomposition(
    const Structure& a, const Structure& b,
    const TreeDecomposition& decomposition,
    TreewidthSolveStats* stats = nullptr,
    ResourceGovernor* governor = nullptr, unsigned num_threads = 1,
    std::vector<std::vector<Element>>* node_tables = nullptr);

/// Convenience: builds a min-fill heuristic decomposition of A and runs the
/// DP. Polynomial whenever A's treewidth is bounded (the heuristic width is
/// bounded too on partial k-trees in practice; the answer is exact always —
/// only the running time depends on the width found). The governor also
/// bounds the min-fill ordering itself.
Result<std::optional<Homomorphism>> SolveBoundedTreewidth(
    const Structure& a, const Structure& b,
    TreewidthSolveStats* stats = nullptr,
    ResourceGovernor* governor = nullptr, unsigned num_threads = 1);

}  // namespace cqcs

#endif  // CQCS_TREEWIDTH_HOM_DP_H_
