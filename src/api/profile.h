// Instance analysis for the engine front door (api/engine.h).
//
// The paper's routing theorems are all predicates on the *instance*: is the
// target a Schaefer structure (Theorem 3.1/3.3)?  Is the source hypergraph
// α-acyclic (Yannakakis, [Yan81])?  Does the source have small treewidth
// (Theorem 5.4)?  An InstanceProfile is the result of evaluating those
// predicates once — plus the size statistics a cost-based router needs in
// the spirit of the output/size-bound line of work (PAPERS.md, "Size Bounds
// for Conjunctive Queries") — so routing is a table lookup, not a theory
// quiz for the caller.

#ifndef CQCS_API_PROFILE_H_
#define CQCS_API_PROFILE_H_

#include <cstdint>
#include <string>

#include "core/structure.h"
#include "schaefer/boolean_relation.h"
#include "treewidth/decomposition.h"

namespace cqcs {

/// Everything the router needs to know about a hom(A -> B) instance.
/// Cached inside a HomProblem (Profile()), or built stage by stage by the
/// engine's router.
struct InstanceProfile {
  // -- Size statistics (‖·‖ is the paper's size measure).
  size_t source_universe = 0;
  size_t source_tuples = 0;
  size_t source_size = 0;
  size_t target_universe = 0;
  size_t target_tuples = 0;
  size_t target_size = 0;

  // -- Schaefer island (Theorem 3.1): only meaningful for Boolean targets.
  bool target_boolean = false;          ///< universe of B is {0, 1}
  SchaeferClassSet schaefer_classes = 0;  ///< 0 when not Boolean / not Schaefer

  // -- Acyclicity island (Yannakakis): GYO on the source's hypergraph.
  // `acyclicity_known` is false when the router decided before reaching
  // this stage (e.g. a Schaefer target) — the decision tree evaluates its
  // predicates lazily, cheapest first, and records only what it computed.
  bool acyclicity_known = false;
  bool source_acyclic = false;

  // -- Treewidth island (Theorem 5.4): min-fill heuristic estimate. The
  // heuristic only upper-bounds the true width, so a large estimate never
  // proves intractability — it only steers the router. Like acyclicity,
  // `width_known` marks whether the (comparatively expensive) min-fill
  // stage actually ran.
  bool width_known = false;
  /// Max bag size - 1 (-1 for an empty source). When `width_lower_bound`
  /// is set, the router's capped min-fill stopped early and this is only a
  /// lower bound on min-fill's width: the largest bag it saw, minus one.
  int width_estimate = -1;
  bool width_lower_bound = false;
  size_t eliminations_done = 0;    ///< before the stop (lower bound only)
  size_t decomposition_bags = 0;   ///< nodes of the heuristic decomposition
                                   ///< (0 for a lower bound)
  /// Estimated DP table work: decomposition_bags * |B|^{width+1}. The gate
  /// the router compares against its cost budget (a crude size bound; see
  /// the header comment). 0 for a lower bound.
  double treewidth_dp_cost = 0.0;

  /// One-line diagnostic rendering.
  std::string ToString() const;
  /// Machine-readable rendering for `hom_tool --explain` and the benches.
  std::string ToJson() const;
};

/// Assembles a profile from precomputed routing artifacts (the caching path:
/// HomProblem holds the join tree and decomposition and must not recompute
/// them just to fill in numbers).
InstanceProfile BuildProfile(const Structure& a, const Structure& b,
                             bool source_acyclic,
                             const TreeDecomposition& source_decomposition);

/// Fills the size-statistic fields (the paper's ‖·‖ measures) of `profile`.
/// Shared by BuildProfile and the engine's staged router, which assembles a
/// partial profile one decision stage at a time.
void FillSizeStats(const Structure& a, const Structure& b,
                   InstanceProfile* profile);

/// The treewidth cost gate: bags * |target_universe|^(width+1), 0 when the
/// decomposition is empty (width -1). One definition so the router and
/// Profile() can never disagree about the cost model. Computed in saturating
/// integer arithmetic (common/saturating.h) and widened to double; overflow
/// saturates far above any router budget instead of wrapping.
double EstimateTreewidthDpCost(size_t bags, int width, size_t target_universe);

/// The widest min-fill decomposition the router's treewidth gate admits:
/// the largest w <= max_width with EstimateTreewidthDpCost(source_universe,
/// w, target_universe) <= budget (min-fill makes one bag per source
/// element), or -1 when none does. The cost never falls as w grows, so
/// "width <= cap" is exactly the gate, known before anything is eliminated.
int TreewidthWidthCap(size_t source_universe, size_t target_universe,
                      int max_width, double budget);

/// Worst-case bytes the treewidth DP can charge against a memory budget:
/// bags * |B|^(width+1) rows of (width+1) Elements. Saturates at SIZE_MAX
/// (meaning "more than any budget"); 0 when width < 0. The engine's
/// pre-flight admission check compares this against the governor's budget
/// before any table is built.
size_t EstimateTreewidthDpBytes(size_t bags, int width, size_t target_universe);

/// Worst-case bytes the Yannakakis per-atom materialization can charge:
/// every source tuple of relation R becomes a table of at most |R^B| rows
/// of arity Elements. Saturates at SIZE_MAX (admission then refuses any
/// finite budget, which is the right answer for an estimate that large).
/// Shared by the engine's pre-flight admission and the serving layer's
/// in-flight-bytes queue policy.
size_t EstimateAcyclicBytes(const Structure& a, const Structure& b);

}  // namespace cqcs

#endif  // CQCS_API_PROFILE_H_
