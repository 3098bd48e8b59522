// Annotated mutex wrappers for Clang Thread Safety Analysis.
//
// std::mutex is not a TSA capability, so attributes like CQCS_GUARDED_BY
// cannot reference it. cqcs::Mutex is a zero-overhead std::mutex wrapper
// carrying the capability attribute; MutexLock is the annotated RAII guard
// (replaces std::lock_guard) and CondVar the companion condition variable
// (replaces std::condition_variable for Mutex-guarded state). Modules whose
// lock discipline is machine-checked (serve/, api/problem.cc,
// solver/parallel.cc) use these; see docs/static_analysis.md.

#ifndef CQCS_COMMON_MUTEX_H_
#define CQCS_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace cqcs {

/// A std::mutex annotated as a TSA capability. Lowercase lock()/unlock()
/// keep it a C++ Lockable, so std:: lock adapters still compose where the
/// annotated MutexLock below does not fit.
class CQCS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CQCS_ACQUIRE() { mu_.lock(); }
  void unlock() CQCS_RELEASE() { mu_.unlock(); }
  bool try_lock() CQCS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII guard over Mutex, visible to the analysis: constructing one
/// acquires the capability for the enclosing scope.
class CQCS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CQCS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() CQCS_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable for Mutex-guarded state. Wait() atomically releases
/// and reacquires the caller's lock, so from the analysis's point of view
/// the capability is held across the call — which is exactly the caller's
/// contract.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) CQCS_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) CQCS_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock, std::move(pred));
    lock.release();
  }

  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace cqcs

#endif  // CQCS_COMMON_MUTEX_H_
