// Work-stealing parallel subtree search for the uniform homomorphism solver.
//
// The search tree of the NP-complete uniform problem is embarrassingly
// parallel: subtrees share no mutable state, and the trail-based Propagator
// already isolates everything a subtree exploration touches. This module
// turns that into wall-clock speedup with the classic CP decomposition:
//
//   * A shared pool of *subproblems* — decision prefixes into the
//     sequential search tree (solver_internal::SubproblemPool, in
//     solver/search_context.h).
//   * N worker loops, each owning a private Propagator/SearchContext and
//     run as one morsel of a job on the shared MorselPool. A worker pops a
//     subproblem, replays its prefix through the trail, and exhausts the
//     subtree below it.
//   * Dynamic splitting on demand: while any worker is idle and the pool is
//     dry, busy workers donate the untried values of their shallowest open
//     decision — the largest subtrees they can prove they have not started.
//   * An atomic first-solution/cancellation flag checked in every worker's
//     node loop (and inside long propagation fixpoints), so Solve stops the
//     fleet as soon as one worker wins the race.
//
// Callbacks are serialized behind one mutex, so the closures the public
// entry points build (dedup sets, counters, first-witness capture) need no
// locking of their own. Determinism guarantees: enumeration entry points
// produce the exact sequential solution multiset (each subtree is explored
// by exactly one worker) in nondeterministic *order*; Solve returns a valid
// witness but which one depends on scheduling; per-worker stats merge into
// totals that are scheduling-dependent except under the default strategy,
// where the node total equals the sequential tree's (see docs/solver.md).
//
// This header is internal — solver/backtracking.h is the public API and
// routes here when SolveOptions::num_threads resolves to more than one.

#ifndef CQCS_SOLVER_PARALLEL_H_
#define CQCS_SOLVER_PARALLEL_H_

#include <functional>
#include <span>

#include "common/work_pool.h"
#include "core/homomorphism.h"
#include "solver/backtracking.h"
#include "solver/csp.h"

namespace cqcs {
namespace solver_internal {

struct LeafSink;  // solver/search_context.h

/// Runs the full search with ResolveThreadCount(options.num_threads)
/// workers. Mirrors SearchContext::Run: `on_solution` is invoked once per
/// solution found (serialized; returning false cancels every worker), and
/// the return value is the number of callback invocations. `projection`
/// enables the projection-prefix pruning exactly as in the sequential
/// search, and `leaf` (may be null) the leaf rule, whose on_count goes
/// through the same lock. Requires options.num_threads to resolve to > 1 —
/// the sequential path never comes through here.
size_t ParallelSearch(const CspInstance& csp, const SolveOptions& options,
                      std::span<const Element> projection,
                      const std::function<bool(const Homomorphism&)>&
                          on_solution,
                      const LeafSink* leaf, SolveStats* stats,
                      bool first_solution_only);

}  // namespace solver_internal
}  // namespace cqcs

#endif  // CQCS_SOLVER_PARALLEL_H_
