// Queue-driven GYO ear removal — the one source of truth for α-acyclicity.
//
// GYO reduces a hypergraph by repeatedly removing ears: an edge e is an
// ear when every vertex of e is either exclusive to e or covered by one
// single other live edge w (the witness; e becomes w's child in the join
// forest). The hypergraph is α-acyclic iff the reduction empties it, and
// GYO is Church–Rosser, so any maximal removal order yields the verdict.
//
// The seed implementation rescanned every edge pair per pass (O(m² · ‖H‖)
// with up to m passes). This one is worklist-driven: an edge is
// re-examined only when one of its vertices loses its last other
// occurrence — the only event that can newly make it an ear (witness sets
// only shrink over time; an edge's shared-vertex set S_e shrinks exactly
// when some vertex's live-occurrence count hits 1, and at that moment the
// sole live edge holding the vertex is enqueued). Each vertex triggers
// that scan at most once, so the trigger machinery is O(‖H‖) total and
// the whole reduction is near-linear: O(‖H‖) plus the witness subset
// checks, each bounded by the pivot vertex's live degree.
//
// The forest it returns is the whole JoinTree (cq/acyclic.h), shape
// included, so a caller that keeps it never derives the shape again.
// Callers: api/problem.cc, once per compiled plan (StructureJoinForest:
// the router's acyclicity verdict, and the forest every acyclic run of the
// plan reads); cq/acyclic.cc's Acyclic* functions, once per call; and
// solver/residual.cc, once per search (the residual below the leaves).

#ifndef CQCS_CQ_GYO_H_
#define CQCS_CQ_GYO_H_

#include <optional>
#include <span>
#include <vector>

#include "core/structure.h"
#include "cq/query.h"

namespace cqcs {

struct JoinTree;  // cq/acyclic.h

/// Runs GYO on the hypergraph with vertices 0..var_count-1 and one edge
/// per entry of `edges` (duplicate vertices within an edge are fine).
/// Returns the join forest, or nullopt when the hypergraph is cyclic: node
/// i is edge i, parent[i] its witness edge (kNoParent for roots; parents
/// are always removed after their children), and vars(i) its distinct
/// vertices in first-occurrence order.
std::optional<JoinTree> GyoJoinForest(
    size_t var_count, std::span<const std::vector<VarId>> edges);

/// The query's hypergraph: one edge per atom (the atom's argument set).
std::vector<std::vector<VarId>> QueryHyperedges(const ConjunctiveQuery& q);

/// GYO on a structure, taken directly on its tuples (one edge per tuple,
/// relation by relation, in tuple order) — the same hypergraph as
/// CanonicalQuery(a)'s, without materializing the query. CanonicalQuery
/// emits its atoms in that order, so the forest is the canonical query's
/// join forest node for node. This is what HomProblem caches per plan.
std::optional<JoinTree> StructureJoinForest(const Structure& a);

}  // namespace cqcs

#endif  // CQCS_CQ_GYO_H_
