#include "common/work_pool.h"

#include <algorithm>

#include "common/check.h"

namespace cqcs {

unsigned ResolveThreadCount(unsigned num_threads) {
  if (num_threads != 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

MorselPool& MorselPool::Shared() {
  static MorselPool pool;
  return pool;
}

MorselPool::~MorselPool() {
  std::vector<std::thread> threads;
  {
    MutexLock lock(mu_);
    shutdown_ = true;
    work_cv_.NotifyAll();
    threads.swap(threads_);
  }
  for (std::thread& t : threads) t.join();
}

void MorselPool::EnsureThreads(unsigned wanted) {
  while (threads_.size() < wanted) {
    // Pool thread i is morsel worker i+1; the dispatching caller is always
    // worker 0.
    const unsigned worker = static_cast<unsigned>(threads_.size()) + 1;
    threads_.emplace_back([this, worker] { WorkerLoop(worker); });
  }
}

void MorselPool::WorkerLoop(unsigned worker) {
  uint64_t seen = 0;
  for (;;) {
    {
      MutexLock lock(mu_);
      work_cv_.Wait(mu_, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      // Threads left over from a wider earlier dispatch sit this one out:
      // callers size per-worker scratch to the worker count they asked
      // for, so only workers 1..participants may touch the job.
      if (worker > job_.participants) continue;
      // Register only if there is still something to claim. A thread the
      // scheduler wakes late — after the caller (and any registered peers)
      // already drained the cursor — skips without registering, so Run()
      // never blocks on its context switch. Once the cursor is exhausted
      // or the job cancelled, no new registration can happen, which is
      // what makes Run()'s working_ == 0 wait sufficient.
      if (job_.cancel.load(std::memory_order_relaxed) ||
          job_.cursor.load(std::memory_order_relaxed) >= job_.total) {
        continue;
      }
      ++working_;
    }
    DrainJob(&job_, worker);
    {
      MutexLock lock(mu_);
      if (--working_ == 0) done_cv_.NotifyAll();
    }
  }
}

void MorselPool::DrainJob(Job* job, unsigned worker) {
  const size_t total = job->total;
  const size_t morsel = job->morsel;
  // A body returning false (governor trip, cap reached) sets the job's
  // cancel flag; in-flight morsels on other workers finish, unclaimed ones
  // are abandoned — the clean-trip contract needs no torn partial ranges
  // because each body owns its [begin, end) exclusively.
  while (!job->cancel.load(std::memory_order_acquire)) {
    const size_t begin = job->cursor.fetch_add(morsel,
                                               std::memory_order_relaxed);
    if (begin >= total) break;
    const size_t end = std::min(total, begin + morsel);
    job->morsels.fetch_add(1, std::memory_order_relaxed);
    if (worker != 0) job->steals.fetch_add(1, std::memory_order_relaxed);
    if (!(*job->body)(worker, begin, end)) {
      job->cancel.store(true, std::memory_order_release);
      break;
    }
  }
}

MorselCounters MorselPool::Run(size_t total, unsigned workers,
                               size_t morsel_rows, const Body& body) {
  CQCS_CHECK(morsel_rows > 0);
  MorselCounters counters;
  counters.workers = std::max(1u, workers);
  if (total == 0) return counters;

  // Inline path: the sequential case (and any range that fits in one
  // morsel) never touches the pool, so `num_threads = 1` has zero
  // synchronization cost; a caller that finds the pool busy never waits.
  if (workers <= 1 || total <= morsel_rows ||
      dispatching_.exchange(true, std::memory_order_acquire)) {
    size_t begin = 0;
    while (begin < total) {
      const size_t end = std::min(total, begin + morsel_rows);
      ++counters.morsels;
      if (!body(0, begin, end)) break;
      begin = end;
    }
    return counters;
  }

  const size_t chunks = (total + morsel_rows - 1) / morsel_rows;
  // Pool threads beside the caller are capped three ways: never more than
  // the caller asked for, never more than there are morsels to claim
  // beyond the caller's first (waking a worker that will find the cursor
  // exhausted costs a context switch for zero work), and never more than
  // the spare hardware cores — a compute-bound morsel sweep gains nothing
  // from runnable threads beyond the core count, it just pays their
  // wakeups. The spare-core cap is floored at one pool thread so the
  // cross-thread path is genuinely exercised (and sanitizer-checked) even
  // on a single-core host.
  const unsigned spare_cores = std::max(1u, ResolveThreadCount(0) - 1);
  const unsigned participants = static_cast<unsigned>(std::min<size_t>(
      std::min(std::min(workers, kMaxThreads) - 1, spare_cores),
      chunks - 1));
  {
    // Rewriting job_ is safe here: the previous Run returned only after
    // working_ hit zero, and a stale worker waking into this generation
    // re-reads everything under mu_ before touching the job.
    MutexLock lock(mu_);
    EnsureThreads(participants);
    job_.total = total;
    job_.morsel = morsel_rows;
    job_.body = &body;
    job_.participants = participants;
    job_.cursor.store(0, std::memory_order_relaxed);
    job_.cancel.store(false, std::memory_order_relaxed);
    job_.morsels.store(0, std::memory_order_relaxed);
    job_.steals.store(0, std::memory_order_relaxed);
    ++generation_;
    work_cv_.NotifyAll();
  }
  DrainJob(&job_, 0);
  {
    // The caller drained until the cursor ran dry (or the job cancelled),
    // so no worker can register from here on; it only waits for workers
    // that registered in time to do real work. The mutex handoff is what
    // publishes those workers' body writes: each releases mu_ after its
    // decrement, the caller reacquires it to observe zero.
    MutexLock lock(mu_);
    done_cv_.Wait(mu_, [&] { return working_ == 0; });
  }
  counters.morsels = job_.morsels.load(std::memory_order_relaxed);
  counters.steals = job_.steals.load(std::memory_order_relaxed);
  dispatching_.store(false, std::memory_order_release);
  return counters;
}

}  // namespace cqcs
