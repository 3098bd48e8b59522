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
// Callers: cq/acyclic.cc (join trees for Yannakakis) and api/problem.cc
// (the router's acyclicity verdict) — previously two independent
// ear-removal implementations that had to agree by luck.

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
/// Returns the join forest (parent[i] = witness edge, kNoParent for
/// roots; parents are always removed after their children), or nullopt
/// when the hypergraph is cyclic.
std::optional<JoinTree> GyoJoinForest(
    size_t var_count, std::span<const std::vector<VarId>> edges);

/// The query's hypergraph: one edge per atom (the atom's argument set).
std::vector<std::vector<VarId>> QueryHyperedges(const ConjunctiveQuery& q);

/// GYO verdict for a structure, taken directly on its tuples (one edge
/// per tuple) — the same hypergraph as CanonicalQuery(a)'s, without
/// materializing the query. This is what the engine router calls.
bool IsAcyclicStructure(const Structure& a);

}  // namespace cqcs

#endif  // CQCS_CQ_GYO_H_
