// Generic backtracking homomorphism solver — the uniform baseline.
//
// This is the algorithm every instance of the problem admits: search over
// assignments of B-values to A-elements with constraint propagation (forward
// checking or full MAC), pluggable variable/value ordering, optional
// conflict-directed backjumping, and optional Luby restarts (SearchStrategy).
// Exponential in the worst case (the problem is NP-complete, [CM77]); the
// paper's Sections 3-5 identify inputs where specialized polynomial
// algorithms apply.

#ifndef CQCS_SOLVER_BACKTRACKING_H_
#define CQCS_SOLVER_BACKTRACKING_H_

#include <functional>
#include <optional>

#include "core/homomorphism.h"
#include "solver/csp.h"

namespace cqcs {

class ResourceGovernor;  // common/governor.h

/// Propagation strength maintained during search.
enum class Propagation {
  kForwardChecking,  ///< Revise only constraints touching the assigned var.
  kMac,              ///< Maintain full generalized arc consistency.
};

/// Variable-ordering heuristics.
enum class VarOrder {
  kLex,      ///< First unassigned variable, in element order.
  kMrv,      ///< Minimum remaining values, degree tie-break.
  kDomWdeg,  ///< Minimize domain / failure-weight (wdeg); weights count
             ///< constraint wipeouts per scope variable and are halved on
             ///< every restart (Propagator::failure_weight).
};

/// Value-ordering heuristics.
enum class ValOrder {
  kLex,  ///< Increasing value.
  kLeastConstraining,  ///< Most-supported value first, scored statically
                       ///< from the CSR support index
                       ///< (CspInstance::ValueSupportScores); lex tie-break.
};

/// How the search explores the tree. The defaults reproduce the PR 1
/// behavior exactly (MRV, lexicographic values, chronological backtracking,
/// no restarts); each knob is independently switchable.
struct SearchStrategy {
  VarOrder var_order = VarOrder::kMrv;
  ValOrder val_order = ValOrder::kLex;
  /// Conflict-directed backjumping: propagation records, per variable, the
  /// set of decisions responsible for its domain prunings; on failure the
  /// search returns straight to the deepest decision in the conflict set
  /// instead of the chronologically previous one. Sound for all entry
  /// points: once a solution is reported in a subtree, that subtree's
  /// ancestors fall back to chronological backtracking so enumeration
  /// never skips sibling solutions.
  bool backjumping = false;
  /// Luby-sequence restarts (cutoffs restart_base * 1,1,2,1,1,2,4,...
  /// nodes), reusing the trail for the unwind. Only applied by Solve()
  /// (first-solution search): a restarted enumeration would revisit
  /// solutions, so ForEachSolution / CountSolutions / EnumerateProjections
  /// ignore this flag. Complete: cutoffs grow without bound, so some run
  /// exhausts the tree. Restarts never reset the node counter — node_limit
  /// keeps its meaning across runs. Only useful with kDomWdeg: the decayed
  /// failure weights are the one thing that survives the unwind, so under
  /// any other (deterministic) ordering each run re-walks the identical
  /// prefix and restarts are pure overhead.
  bool restarts = false;
  /// Luby unit, in search nodes (values < 1 are treated as 1).
  uint64_t restart_base = 128;
};

/// Tuning and resource limits for the search.
struct SolveOptions {
  Propagation propagation = Propagation::kMac;
  /// Abort after this many search nodes (0 = unlimited). When the limit is
  /// hit, Solve returns nullopt and stats->limit_hit is set: callers must
  /// treat that as "unknown", not "no". The counter is cumulative across
  /// restarts, and with num_threads > 1 it is a *global* budget enforced
  /// across all workers (total nodes may overshoot by at most one in-flight
  /// node per worker before everyone observes the cancellation).
  uint64_t node_limit = 0;
  /// Heuristics: variable/value order, backjumping, restarts.
  SearchStrategy strategy;
  /// Worker loops for the search. 1 (the default) is exactly the
  /// sequential search — byte-for-byte the same behavior and stats as
  /// before this option existed. 0 means one worker per hardware thread.
  /// With more than one worker the search tree is explored by work-stealing
  /// subtree decomposition (see docs/solver.md "Parallel search"): Solve
  /// races workers to the first solution (which witness wins is
  /// nondeterministic, but validity is not), enumeration entry points
  /// deliver the exact sequential solution/projection sets in
  /// nondeterministic order, and callbacks are serialized — never invoked
  /// concurrently.
  unsigned num_threads = 1;
  /// Optional per-request budget (common/governor.h), not owned. Workers
  /// poll it on a node stride; a deadline/memory/cancel trip stops the
  /// search with stats->limit_hit set ("unknown", exactly like node_limit),
  /// with overshoot bounded by the poll stride per worker. nullptr (the
  /// default) costs one branch per node, like an unlimited node budget.
  ResourceGovernor* governor = nullptr;
};

/// Search statistics, for the benchmark harnesses.
struct SolveStats {
  uint64_t nodes = 0;
  uint64_t backtracks = 0;
  /// Levels skipped by conflict-directed backjumping: each unit is one
  /// variable whose remaining values were provably futile and never tried.
  /// Zero when strategy.backjumping is off.
  uint64_t backjumps = 0;
  /// Longest single jump (consecutive levels skipped by one conflict).
  uint64_t longest_backjump = 0;
  /// Completed restarts (strategy.restarts; only Solve() restarts).
  uint64_t restarts = 0;
  /// Largest wipeout explanation seen: decisions in the conflict set at a
  /// domain wipeout. Zero when backjumping is off.
  uint64_t max_conflict_set = 0;
  // -- Parallel search (num_threads > 1; all zero on the sequential path).
  // Per-worker counters are merged deterministically after the run:
  // nodes/backtracks/backjumps/restarts are summed, longest_backjump and
  // max_conflict_set maxed, limit_hit ORed.
  /// Resolved worker loops; at most the shared pool's cap run at once.
  uint64_t workers = 0;
  /// Split events: a busy worker donated the untried values of its
  /// shallowest open decision to the shared pool.
  uint64_t splits = 0;
  /// Subproblems taken from the shared pool by a worker other than the one
  /// that seeded it (every pool pop except the initial root).
  uint64_t steals = 0;
  bool limit_hit = false;
};

/// Backtracking search over a CspInstance.
class BacktrackingSolver {
 public:
  BacktrackingSolver(const Structure& a, const Structure& b,
                     SolveOptions options = {});

  /// Runs over an externally owned, prebuilt network (which must outlive the
  /// solver). This is the reuse path — repeated solves against the same
  /// (A, B) pair (api/problem.h's compiled HomProblem) skip re-extracting
  /// constraints and rebuilding the CSR support indexes.
  explicit BacktrackingSolver(const CspInstance* csp, SolveOptions options = {});

  // Not copyable/movable: csp_ may point into owned_csp_, and the default
  // operations would leave a copy aimed at the source object's storage.
  BacktrackingSolver(const BacktrackingSolver&) = delete;
  BacktrackingSolver& operator=(const BacktrackingSolver&) = delete;

  /// Returns a homomorphism A -> B, or nullopt if none exists (or the node
  /// limit was hit — check stats).
  std::optional<Homomorphism> Solve(SolveStats* stats = nullptr);

  /// Invokes `on_solution` for every homomorphism; stop early by returning
  /// false from the callback. Returns the number of solutions delivered.
  size_t ForEachSolution(const std::function<bool(const Homomorphism&)>&
                             on_solution,
                         SolveStats* stats = nullptr);

  /// Enumerates the distinct projections of solutions onto `projection`
  /// (a list of A-elements): this is conjunctive-query evaluation when A is
  /// a canonical database and `projection` its distinguished variables.
  /// The search backtracks immediately after witnessing each projection, so
  /// the cost is per-answer, not per-homomorphism. Results are deduplicated.
  std::vector<std::vector<Element>> EnumerateProjections(
      std::span<const Element> projection, size_t max_results = SIZE_MAX,
      SolveStats* stats = nullptr);

  /// Counts homomorphisms, stopping at `limit`.
  size_t CountSolutions(size_t limit = SIZE_MAX, SolveStats* stats = nullptr);

 private:
  /// Populated by the (A, B) constructor; empty when running over an
  /// external instance. `csp_` points at whichever is in effect.
  std::optional<CspInstance> owned_csp_;
  const CspInstance* csp_;
  SolveOptions options_;
};

/// Convenience one-shot: is there a homomorphism A -> B? Routes through the
/// HomEngine front door (api/engine.h, where it is defined), so tractable
/// instances take the paper's polynomial algorithms.
bool HasHomomorphism(const Structure& a, const Structure& b);

/// Convenience one-shot returning a witness. Engine-routed like
/// HasHomomorphism.
std::optional<Homomorphism> FindHomomorphism(const Structure& a,
                                             const Structure& b);

}  // namespace cqcs

#endif  // CQCS_SOLVER_BACKTRACKING_H_
