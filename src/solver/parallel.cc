#include "solver/parallel.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/work_pool.h"
#include "solver/search_context.h"

namespace cqcs {
namespace solver_internal {

namespace {

void MergeStats(const SolveStats& in, SolveStats* out) {
  out->nodes += in.nodes;
  out->backtracks += in.backtracks;
  out->backjumps += in.backjumps;
  out->longest_backjump = std::max(out->longest_backjump, in.longest_backjump);
  out->restarts += in.restarts;
  out->revisions += in.revisions;
  out->support_walks += in.support_walks;
  out->leaves += in.leaves;
  out->cutset = std::max(out->cutset, in.cutset);
  out->max_conflict_set = std::max(out->max_conflict_set, in.max_conflict_set);
  out->limit_hit = out->limit_hit || in.limit_hit;
}

}  // namespace

size_t ParallelSearch(const CspInstance& csp, const SolveOptions& options,
                      std::span<const Element> projection,
                      const std::function<bool(const Homomorphism&)>&
                          on_solution,
                      const LeafSink* leaf, SolveStats* stats,
                      bool first_solution_only) {
  const unsigned workers = ResolveThreadCount(options.num_threads);
  CQCS_CHECK(workers > 1);

  // Materialize the lazily built shared caches while still single-threaded:
  // after this, every CspInstance read the workers perform is const and
  // data-race free (see the thread-safety note in solver/csp.h).
  if (options.strategy.val_order == ValOrder::kLeastConstraining) {
    csp.LcvValuePermutation();  // builds ValueSupportScores too
  }

  SubproblemPool pool;

  // All solution delivery is serialized here, so the caller's closure needs
  // no internal locking, Solve's first-solution race has exactly one winner,
  // and a false return (or a prior cancellation) suppresses every later
  // delivery fleet-wide.
  Mutex cb_mu;
  size_t delivered = 0;
  auto deliver = [&](auto&& report) {
    MutexLock lock(cb_mu);
    if (pool.cancel.load(std::memory_order_relaxed)) return false;
    ++delivered;
    const bool keep_going = report();
    if (!keep_going) {
      pool.cancel.store(true, std::memory_order_relaxed);
      pool.NotifyCancelled();
    }
    return keep_going;
  };
  auto serialized = [&](const Homomorphism& h) {
    return deliver([&] { return on_solution(h); });
  };
  // Leaf counts go through the same lock, so the caller's sum needs none.
  LeafSink serialized_leaf;
  if (leaf != nullptr) {
    serialized_leaf = *leaf;
    if (leaf->on_count != nullptr) {
      serialized_leaf.on_count = [&](size_t n) {
        return deliver([&] { return leaf->on_count(n); });
      };
    }
  }

  // Cache-line padded: stats_->nodes is a per-node write, and adjacent
  // workers' stats sharing a line would false-share it.
  struct alignas(64) PaddedStats {
    SolveStats stats;
  };
  std::vector<PaddedStats> worker_stats(workers);
  // Morsel w of one shared-pool job is worker loop w, the caller worker 0.
  // A loop that starts after the run ended returns at once.
  auto worker_loop = [&](unsigned, size_t w, size_t) {
    if (pool.cancel.load(std::memory_order_relaxed)) return true;
    SearchContext ctx(csp, options, projection, serialized,
                      leaf != nullptr ? &serialized_leaf : nullptr,
                      &worker_stats[w].stats, first_solution_only, &pool);
    // Root propagation is subproblem-independent: a refutation for one
    // worker is one for all. Every worker runs it anyway: the fixpoints run
    // concurrently, and each seeds its worker's private AC-2001 residues.
    if (ctx.PrepareRoot()) {
      Subproblem sp;
      while (pool.Acquire(&sp)) {
        ctx.RunSubproblem(sp.decisions);
        pool.Release();
      }
    }
    // Whatever ended this loop (drained pool, cancel, refuted root) ended
    // the run: cancel to wake any waiter and turn away later loops.
    pool.cancel.store(true, std::memory_order_relaxed);
    pool.NotifyCancelled();
    return true;
  };
  MorselPool::Shared().Run(workers, workers, 1, worker_loop);

  SolveStats owned;
  SolveStats* merged = stats != nullptr ? stats : &owned;
  for (const PaddedStats& ws : worker_stats) MergeStats(ws.stats, merged);
  merged->workers = workers;
  merged->splits = pool.splits();
  merged->steals = pool.steals();
  return delivered;
}

}  // namespace solver_internal
}  // namespace cqcs
