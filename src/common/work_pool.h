// The shared worker-pool machinery under every parallel path in the repo.
//
// Three pieces, one module, so the solver's work-stealing subtree search,
// the treewidth route's bag joins, and the serving layer all draw threads
// through the same code (the library starts no others):
//
//   * ResolveThreadCount — the one mapping from a `num_threads` option to
//     an actual worker count (0 = one per hardware thread, never < 1).
//   * WorkPool<Task>    — the PR 3 mutex+condvar task pool generalized
//     over its task type: Acquire/Release with the idle/termination
//     protocol, Donate for dynamic splitting, a cooperative cancel flag,
//     and split/steal counters. The solver instantiates it with its
//     decision-prefix Subproblem; the type carries the PR 9 thread-safety
//     annotations unchanged.
//   * MorselPool        — a lazily started, process-wide pool of parked
//     worker threads running *morsels*: contiguous index ranges claimed
//     dynamically from an atomic cursor. It has two dispatchers: the
//     treewidth route's independent bag joins (YannakakisProgram::FromBags
//     in treewidth/hom_dp.cc, 8 bags a morsel) and the parallel search's
//     worker loops (solver/parallel.cc, one loop a morsel). The Yannakakis
//     passes and the rel/ operators run on the calling thread: their
//     per-node sweeps are mostly far below one morsel, and dispatching them
//     made the count slower at each added thread. Because the pool is
//     shared, a single serving-layer request can soak every idle worker.
//
// Morsel execution contract: the calling thread is always worker 0 and
// participates; results must not depend on which worker runs which morsel
// (writers own disjoint slots and merge in morsel order, so every thread
// count produces byte-identical output). Bodies poll their
// ResourceGovernor per morsel and return false to cancel the remaining
// morsels — the clean-trip contract of common/governor.h.

#ifndef CQCS_COMMON_WORK_POOL_H_
#define CQCS_COMMON_WORK_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace cqcs {

/// `num_threads` option -> actual worker count: 0 means one per hardware
/// thread (never less than 1).
unsigned ResolveThreadCount(unsigned num_threads);

/// The shared task pool plus the idle/termination protocol (extracted from
/// src/solver/parallel.cc, PR 3). Locking discipline: the mutex guards only
/// pool pushes/pops and the busy/done bookkeeping — events that happen once
/// per task, not per node. The per-node hot path (cancellation, split
/// polling, node budget) reads the atomics mirrored next to it without ever
/// taking the lock.
template <typename Task>
class WorkPool {
 public:
  explicit WorkPool(Task root) {
    pool_.push_back(std::move(root));
    pool_size_.store(1, std::memory_order_relaxed);
  }

  // Each hot atomic on its own cache line: cancel/want_work/pool_size are
  // read by every worker at every node, and global_nodes (node_limit runs)
  // is written by every worker at every node — sharing a line would turn
  // the reads into cross-core misses on each increment.
  alignas(64) std::atomic<bool> cancel{false};
  alignas(64) std::atomic<uint32_t> want_work{0};
  alignas(64) std::atomic<size_t> pool_size_{0};
  alignas(64) std::atomic<uint64_t> global_nodes{0};

  /// Blocks until a task is available (returns true, with `*task` filled
  /// and the caller marked busy) or the run is over — cancelled, or pool
  /// empty with nobody busy (returns false).
  bool Acquire(Task* task) {
    MutexLock lock(mu_);
    for (;;) {
      if (cancel.load(std::memory_order_relaxed) || done_) return false;
      if (!pool_.empty()) {
        *task = std::move(pool_.front());
        pool_.pop_front();
        pool_size_.store(pool_.size(), std::memory_order_relaxed);
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

  /// A busy worker donating freshly split tasks.
  void Donate(std::vector<Task> tasks) {
    if (tasks.empty()) return;
    MutexLock lock(mu_);
    ++splits_;
    for (Task& task : tasks) pool_.push_back(std::move(task));
    pool_size_.store(pool_.size(), std::memory_order_relaxed);
    cv_.NotifyAll();
  }

  /// Wakes every waiter after `cancel` was set (the flag is in the wait
  /// predicate, so lock-then-notify cannot miss anyone).
  void NotifyCancelled() {
    MutexLock lock(mu_);
    cv_.NotifyAll();
  }

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
  std::deque<Task> pool_ CQCS_GUARDED_BY(mu_);
  size_t busy_ CQCS_GUARDED_BY(mu_) = 0;
  bool done_ CQCS_GUARDED_BY(mu_) = false;
  uint64_t pops_ CQCS_GUARDED_BY(mu_) = 0;
  uint64_t splits_ CQCS_GUARDED_BY(mu_) = 0;
};

/// What one MorselPool::Run dispatch did; the bag-join dispatch copies it
/// into TreewidthSolveStats. `workers` and `morsels` are
/// schedule-independent; `steals` (morsels a pool thread ran instead of
/// the caller) depends on timing and is excluded from thread-count
/// invariance checks.
struct MorselCounters {
  unsigned workers = 0;   ///< worker slots the dispatch ran with
  uint64_t morsels = 0;   ///< contiguous ranges claimed and executed
  uint64_t steals = 0;    ///< morsels executed by pool threads (worker > 0)
};

/// A persistent pool of parked morsel workers. One instance is shared
/// process-wide (Shared()); the backends never construct their own, so one
/// serving request's parallel pass can reuse the threads another request
/// just released. One Run() at a time owns the pool threads; a Run() that
/// finds another in flight (concurrent, or nested in a body) runs inline.
class MorselPool {
 public:
  /// Hard cap on pool threads; requests beyond it still run, the extra
  /// worker slots just share the capped threads.
  static constexpr unsigned kMaxThreads = 16;

  /// The process-wide pool. Threads start lazily on first parallel Run and
  /// park between dispatches.
  static MorselPool& Shared();

  MorselPool() = default;
  MorselPool(const MorselPool&) = delete;
  MorselPool& operator=(const MorselPool&) = delete;
  ~MorselPool();

  /// `body(worker, begin, end)` — must be safe to run concurrently on
  /// disjoint [begin, end) ranges; returns false to cancel the remaining
  /// morsels (already claimed ones still finish).
  using Body = std::function<bool(unsigned worker, size_t begin, size_t end)>;

  /// Runs `body` over [0, total) in contiguous morsels of `morsel_rows`
  /// (> 0) indexes, claimed dynamically from a shared cursor. The calling
  /// thread is worker 0 and always participates; up to workers-1 pool
  /// threads (grown on demand, capped at kMaxThreads and the spare cores)
  /// join it. Blocks until every claimed morsel finished. With workers <= 1,
  /// total == 0, a range smaller than one morsel, or another dispatch in
  /// flight, runs every morsel inline on the caller with no pool
  /// interaction — the sequential path stays pool-free. Bodies may call Run
  /// themselves.
  MorselCounters Run(size_t total, unsigned workers, size_t morsel_rows,
                     const Body& body);

 private:
  /// The job the pool threads are (or were last) running. Reads of the hot
  /// fields (cursor, cancel) are lock-free; the descriptor itself only
  /// changes under mu_ between generations.
  struct Job {
    size_t total = 0;
    size_t morsel = 1;
    const Body* body = nullptr;
    unsigned participants = 0;  ///< pool workers allowed to touch this job
    std::atomic<size_t> cursor{0};
    std::atomic<bool> cancel{false};
    std::atomic<uint64_t> morsels{0};
    std::atomic<uint64_t> steals{0};
  };

  void EnsureThreads(unsigned wanted) CQCS_REQUIRES(mu_);
  void WorkerLoop(unsigned worker);
  /// Claims and runs morsels of the current job until the cursor runs dry
  /// or the job is cancelled.
  static void DrainJob(Job* job, unsigned worker);

  Mutex mu_;
  CondVar work_cv_;  // pool threads park here between generations
  CondVar done_cv_;  // Run() waits here for registered workers to finish
  uint64_t generation_ CQCS_GUARDED_BY(mu_) = 0;
  /// Workers currently *registered* on the job: a pool thread registers
  /// (under mu_) only when it wakes into the current generation and still
  /// sees claimable work, and deregisters after its drain. Run() waits only
  /// for registered workers — a thread that the scheduler wakes after the
  /// caller already drained the cursor sees nothing claimable and skips
  /// without registering, so the caller never serializes behind context
  /// switches of workers that did no work (the few-core dispatch-latency
  /// killer).
  unsigned working_ CQCS_GUARDED_BY(mu_) = 0;
  bool shutdown_ CQCS_GUARDED_BY(mu_) = false;
  Job job_;  // written under mu_ between generations, read lock-free within
  std::vector<std::thread> threads_ CQCS_GUARDED_BY(mu_);
  // Set while a Run() owns the pool threads. Not a try-locked mutex: a
  // nested Run() on the owning thread would relock it.
  std::atomic<bool> dispatching_{false};
};

}  // namespace cqcs

#endif  // CQCS_COMMON_WORK_POOL_H_
