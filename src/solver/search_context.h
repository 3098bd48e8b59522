// The DFS engine shared by the sequential and parallel solver front ends.
//
// SearchContext was born inside backtracking.cc; the parallel subsystem
// (solver/parallel.cc) needs the same loop — variable/value ordering,
// conflict-directed backjumping, Luby restarts, projection-prefix pruning —
// running inside each worker thread, so it lives here as an internal header.
// It is not part of the public API (include solver/backtracking.h instead).
//
// Two extensions over the PR 2 search make subtree parallelism possible:
//
//  * Subproblem replay. RunSubproblem takes a decision prefix (a list of
//    (variable, value) assignments) and replays it through the ordinary
//    trail machinery before searching the subtree below it. A subproblem is
//    therefore nothing but a path into the sequential search tree, and a
//    worker's propagator reaches the exact domain state the donor had at
//    the split point — same subtree, same node counts.
//
//  * The subproblem pool. When constructed with a SubproblemPool pointer the
//    node loop additionally (a) checks the pool's cancellation flag, (b)
//    counts nodes against its shared budget so node_limit bounds the whole
//    parallel search, and (c) when idle workers exist and the pool is
//    empty, donates the untried values of its shallowest open decision as
//    fresh subproblems (TrySplit). With a null pointer all three checks
//    compile down to one branch per node and the search is byte-for-byte
//    the sequential PR 2 behavior.

#ifndef CQCS_SOLVER_SEARCH_CONTEXT_H_
#define CQCS_SOLVER_SEARCH_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/homomorphism.h"
#include "solver/backtracking.h"
#include "solver/csp.h"
#include "solver/propagator.h"
#include "solver/residual.h"

namespace cqcs {
namespace solver_internal {

/// A decision prefix: assignments in the order they were branched on. Workers
/// replay it (with propagation after each step) to reconstruct the donor's
/// search state, then explore the subtree below exhaustively.
struct Subproblem {
  std::vector<std::pair<Element, Element>> decisions;
};

/// The shared subproblem pool of one parallel search (solver/parallel.cc),
/// seeded with the root (the empty prefix), plus the idle/termination
/// protocol: Acquire/Release, Donate for dynamic splitting, a cooperative
/// cancel flag, and split/steal counters. Locking discipline: the mutex
/// guards only pool pushes/pops and the busy/done bookkeeping — events that
/// happen once per subproblem, not per node. The per-node hot path
/// (cancellation, split polling, node budget) reads the atomics below
/// without ever taking the lock.
class SubproblemPool {
 public:
  SubproblemPool() { pool_.emplace_back(); }  // the root: the empty prefix

  // Each hot atomic on its own cache line: cancel/want_work/pool_size are
  // read by every worker at every node, and global_nodes (node_limit runs)
  // is written by every worker at every node — sharing a line would turn
  // the reads into cross-core misses on each increment.

  /// Set once, read per node (relaxed): first solution found in a race,
  /// callback asked to stop, or the global node budget ran out.
  alignas(64) std::atomic<bool> cancel{false};
  /// Number of workers currently idle and waiting in Acquire.
  alignas(64) std::atomic<uint32_t> want_work{0};
  /// The pool's size, mirrored for lock-free reads. Splitting is worth it
  /// only when the pool is dry.
  alignas(64) std::atomic<size_t> pool_size{1};
  /// Nodes across all workers; node_limit is enforced against this total.
  alignas(64) std::atomic<uint64_t> global_nodes{0};

  /// Blocks until a subproblem is available (returns true, with `*task`
  /// filled and the caller marked busy) or the run is over — cancelled, or
  /// pool empty with nobody busy (returns false).
  bool Acquire(Subproblem* task) {
    MutexLock lock(mu_);
    for (;;) {
      if (cancel.load(std::memory_order_relaxed) || done_) return false;
      if (!pool_.empty()) {
        *task = std::move(pool_.front());
        pool_.pop_front();
        pool_size.store(pool_.size(), std::memory_order_relaxed);
        ++pops_;
        ++busy_;
        return true;
      }
      if (busy_ == 0) {
        done_ = true;
        cv_.NotifyAll();
        return false;
      }
      want_work.fetch_add(1, std::memory_order_relaxed);
      cv_.Wait(mu_, [&] {
        return cancel.load(std::memory_order_relaxed) || done_ ||
               !pool_.empty();
      });
      want_work.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Marks the caller idle again; declares the run done if it drained the
  /// last work.
  void Release() {
    MutexLock lock(mu_);
    --busy_;
    if (pool_.empty() && busy_ == 0) {
      done_ = true;
      cv_.NotifyAll();
    }
  }

  /// A busy worker donating freshly split subproblems; wakes the waiters.
  /// An empty list is a no-op.
  void Donate(std::vector<Subproblem> tasks) {
    if (tasks.empty()) return;
    MutexLock lock(mu_);
    ++splits_;
    for (Subproblem& task : tasks) pool_.push_back(std::move(task));
    pool_size.store(pool_.size(), std::memory_order_relaxed);
    cv_.NotifyAll();
  }

  /// Wakes every waiter after `cancel` was set (the flag is in the wait
  /// predicate, so lock-then-notify cannot miss anyone).
  void NotifyCancelled() {
    MutexLock lock(mu_);
    cv_.NotifyAll();
  }

  /// Donate calls that handed over at least one subproblem.
  uint64_t splits() const {
    MutexLock lock(mu_);
    return splits_;
  }
  /// Every pop except the initial root came from another worker's donation.
  uint64_t steals() const {
    MutexLock lock(mu_);
    return pops_ > 0 ? pops_ - 1 : 0;
  }

 private:
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<Subproblem> pool_ CQCS_GUARDED_BY(mu_);
  size_t busy_ CQCS_GUARDED_BY(mu_) = 0;
  bool done_ CQCS_GUARDED_BY(mu_) = false;
  uint64_t pops_ CQCS_GUARDED_BY(mu_) = 0;
  uint64_t splits_ CQCS_GUARDED_BY(mu_) = 0;
};

/// How the backtrack-free leaf rule reports (docs/solver.md, "Backtrack-
/// free leaves"). Decide, count and project pass one; witness and
/// enumerate pass none and assign every variable. The rule runs only where
/// ResidualForest::ForSearch finds a residual; the search then branches on
/// the projection and the cutset first, and a node where both are assigned
/// without a wipeout is a leaf: every value left extends to a solution.
struct LeafSink {
  /// Project: a leaf reports through on_solution, and only the projection
  /// and cutset entries of that Homomorphism are meaningful; then it
  /// prunes like any reported solution. Otherwise a leaf calls on_count.
  bool project = false;
  /// Adds the number of solutions below a leaf, saturated at `limit`
  /// (decide is a count at limit 1, which needs no counting); returns
  /// false to stop the search.
  std::function<bool(size_t)> on_count;
  size_t limit = SIZE_MAX;
  /// The residual below every leaf, built once per search and read by
  /// every worker; the rule is off while it is null.
  const ResidualForest* residual = nullptr;
};

class SearchContext {
 public:
  /// `leaf` (may be null; not owned) turns on the leaf rule when it carries
  /// a residual. `pool` (not owned) is the parallel search's shared pool,
  /// null on the sequential path.
  SearchContext(const CspInstance& csp, const SolveOptions& options,
                std::span<const Element> projection,
                std::function<bool(const Homomorphism&)> on_solution,
                const LeafSink* leaf, SolveStats* stats,
                bool first_solution_only = false,
                SubproblemPool* pool = nullptr);

  /// Root propagation: MAC establishes GAC, forward checking verifies no
  /// domain starts empty. Returns false iff the whole instance is already
  /// refuted (then no subproblem can succeed either). Call once.
  bool PrepareRoot();

  /// Replays `decisions` (empty = the whole tree) and exhausts the subtree
  /// below, including the per-run restart loop for first-solution searches.
  /// Reusable: call repeatedly on the same context with different prefixes;
  /// trail state is fully unwound between calls (residues, dom/wdeg weights
  /// persist — they are heuristic hints, not logical state).
  void RunSubproblem(std::span<const std::pair<Element, Element>> decisions);

  /// The sequential entry point: PrepareRoot + RunSubproblem({}).
  /// Returns the number of callback invocations.
  size_t Run();

  size_t solutions() const { return solutions_; }

 private:
  enum class Step {
    kExhausted,  // subtree fully explored
    kPrune,      // solution found below; unwind to the prune boundary
    kStop,       // abort the whole search (callback said stop / node limit)
    kRestart,    // restart cutoff reached; unwind to the root and rerun
  };

  Step Search(size_t depth);
  Step EmitSolution();
  /// The leaf rule at a node whose prefix (projection and cutset) is
  /// assigned: report and prune, or stop.
  Step Leaf();
  /// The residual forest's solution count at a leaf, saturated at the
  /// sink's limit; fails only on a governor trip.
  Result<size_t> CountResidual();
  Element SelectVariable(size_t depth);
  Element SelectLex() const;
  Element SelectMrv() const;
  Element SelectDomWdeg() const;

  /// Counts one search node locally and (in parallel mode) against the
  /// shared budget. Returns false iff node_limit was exceeded — the caller
  /// must stop; in parallel mode this also cancels every other worker.
  bool CountNode();

  /// Donates every untried value of the shallowest open decision frame at or
  /// above `cur_depth` as one subproblem each, truncating the local frame so
  /// the values are explored exactly once (by their stealers). The donated
  /// frame falls back to chronological backtracking: its "all values failed"
  /// conflict union would otherwise cover values it no longer tried.
  void TrySplit(size_t cur_depth);

  /// Adds the propagator's revision counters accrued since the last call to
  /// the stats.
  void SyncRevisionStats();

  const CspInstance& csp_;
  SolveOptions options_;
  std::function<bool(const Homomorphism&)> on_solution_;
  SolveStats* stats_;
  SolveStats owned_stats_;
  Propagator prop_;
  const bool cbj_;
  const bool restarts_;
  SubproblemPool* const pool_;
  std::vector<uint8_t> assigned_;
  std::vector<Element> prefix_;
  std::vector<uint8_t> in_prefix_;
  std::vector<std::vector<Element>> values_by_depth_;
  Homomorphism solution_;
  size_t prune_boundary_ = SIZE_MAX;
  size_t solutions_ = 0;
  /// The leaf rule's sink, or nullptr when the rule is off; then prefix_
  /// holds the projection only. When on, prefix_ continues with the cycle
  /// cutset and leaf_->residual is the residual below every leaf.
  const LeafSink* leaf_ = nullptr;
  /// The instance's shared least-constraining value permutation
  /// (CspInstance::LcvValuePermutation), or nullptr unless
  /// ValOrder::kLeastConstraining: var_count x domain_size, flat.
  const Element* lcv_perm_ = nullptr;

  // CBJ plumbing: a failed child leaves its conflict set in fail_set_ (valid
  // only when fail_is_conflict_); conflict_by_depth_ accumulates the value
  // conflicts of the frame at each depth; jump_chain_ measures consecutive
  // skipped levels for the longest_backjump stat.
  size_t cw_ = 0;
  std::vector<uint64_t> fail_set_;
  bool fail_is_conflict_ = false;
  std::vector<std::vector<uint64_t>> conflict_by_depth_;
  uint64_t jump_chain_ = 0;

  // Restart bookkeeping for the current run.
  uint64_t restart_cutoff_ = 0;
  uint64_t run_start_nodes_ = 0;

  // Propagator counters already added to stats_ (see SyncRevisionStats).
  uint64_t synced_revisions_ = 0;
  uint64_t synced_support_walks_ = 0;

  // Subproblem replay + splitting state. replay_len_ is the depth offset of
  // Search(0) in the donor's (absolute) tree: frame k here sits at absolute
  // depth k + replay_len_, which is what prune_boundary_ and the projection
  // prefix are measured against. var_by_depth_ / value_idx_by_depth_ record,
  // per open frame, the branched variable and the index of the value
  // currently being explored, so TrySplit can package the untried tail;
  // frame_donated_ marks frames whose CBJ exhaustion argument is void.
  std::vector<std::pair<Element, Element>> replay_;
  size_t replay_len_ = 0;
  std::vector<Element> var_by_depth_;
  std::vector<size_t> value_idx_by_depth_;
  std::vector<uint8_t> frame_donated_;
};

}  // namespace solver_internal
}  // namespace cqcs

#endif  // CQCS_SOLVER_SEARCH_CONTEXT_H_
