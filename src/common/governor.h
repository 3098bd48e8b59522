// Per-request resource governance: wall-clock deadline, memory ceiling,
// and cooperative cancellation, shared by every backend.
//
// A ResourceGovernor is created per engine request and threaded (by
// pointer, nullptr = ungoverned) through the solver, the Yannakakis
// passes, the treewidth DP, min-fill, the Schaefer pipeline, and the
// rel/ kernel. The contract mirrors the solver's node-limit discipline:
//
//  - Enforcement is cooperative. Long loops call Poll() on a stride (or
//    poll the trip flag inside fixpoints) and unwind with the returned
//    kResourceExhausted status; nothing is ever killed mid-write, so a
//    trip never leaves a torn result.
//  - Memory is accounted, not intercepted. rel::Table / rel::HashIndex
//    report capacity deltas via ChargeBytes/ReleaseBytes (each holds a
//    ChargedBytes, below, for its standing charge); crossing the
//    ceiling marks the trip, and the next Poll() observes it. Overshoot
//    is bounded by one allocation step plus one poll stride.
//  - The trip is sticky and first-cause-wins: concurrent workers race to
//    set it once, and every later Poll() returns the same status, so a
//    request that trips deep inside one backend cannot be half-resumed
//    by another.
//
// Fault injection: GovernorFailpoints trips the governor at the Nth
// Poll() or the Kth ChargeBytes() call. The checks live inside methods
// that only governed runs reach — an ungoverned run costs exactly one
// `governor == nullptr` branch per poll site and never touches an atomic.

#ifndef CQCS_COMMON_GOVERNOR_H_
#define CQCS_COMMON_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace cqcs {

/// Why a governor tripped. kNone means it has not.
enum class TripCause {
  kNone = 0,
  kDeadline,   ///< Wall clock passed deadline_ms.
  kMemory,     ///< Charged bytes exceeded the budget.
  kCancelled,  ///< Cancel() or the external cancel flag fired.
  kFailpoint,  ///< Fault injection (tests only).
};

/// Short name: "none", "deadline", "memory", "cancelled", "failpoint".
const char* TripCauseName(TripCause cause);

/// Fault-injection configuration. Zero means disabled; N > 0 trips the
/// governor on the Nth Poll() / Nth ChargeBytes() call.
struct GovernorFailpoints {
  uint64_t trip_after_checks = 0;
  uint64_t trip_after_charges = 0;
};

/// A per-request execution budget. Thread-safe: workers of one request
/// share a single governor; all state is atomics with a CAS-once trip.
class ResourceGovernor {
 public:
  /// deadline_ms == 0 means no deadline; memory_budget_bytes == 0 means
  /// no memory ceiling. The deadline clock starts now.
  explicit ResourceGovernor(uint64_t deadline_ms = 0,
                            size_t memory_budget_bytes = 0);

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  void set_failpoints(const GovernorFailpoints& fp) { failpoints_ = fp; }

  /// Hooks up an external cooperative cancel token, observed at every
  /// Poll(). The pointee must outlive the governor's last use.
  void set_external_cancel(const std::atomic<bool>* flag) {
    external_cancel_ = flag;
  }

  /// Trips the governor with kCancelled (idempotent).
  void Cancel() { Trip(TripCause::kCancelled); }

  /// The cooperative check. OK while within budget; after the first trip
  /// every call returns the same sticky kResourceExhausted status.
  Status Poll();

  /// Memory accounting; never fails, but crossing the ceiling marks the
  /// trip for the next Poll(). Thread-safe.
  void ChargeBytes(size_t bytes);
  void ReleaseBytes(size_t bytes);

  /// Pre-flight admission: would an additional `estimated_bytes` fit under
  /// the ceiling? Always true without a memory budget. Does not trip.
  bool AdmitBytes(size_t estimated_bytes) const;

  bool tripped() const {
    return trip_flag_.load(std::memory_order_acquire);
  }
  TripCause trip_cause() const {
    return static_cast<TripCause>(trip_cause_.load(std::memory_order_acquire));
  }
  /// OK when not tripped, else the same kResourceExhausted Poll() returns.
  Status TripStatus() const;

  /// For propagator fixpoints: a flag that flips to true on the first trip,
  /// compatible with Propagator::set_cancel_flag.
  const std::atomic<bool>* trip_flag() const { return &trip_flag_; }

  uint64_t deadline_ms() const { return deadline_ms_; }
  size_t memory_budget_bytes() const { return memory_budget_bytes_; }
  size_t bytes_in_use() const {
    return bytes_in_use_.load(std::memory_order_relaxed);
  }
  size_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t checks() const { return checks_.load(std::memory_order_relaxed); }
  uint64_t elapsed_ms() const;

 private:
  /// Records the first cause; later calls keep the original. Returns true
  /// iff this call performed the trip.
  bool Trip(TripCause cause);

  uint64_t deadline_ms_ = 0;
  size_t memory_budget_bytes_ = 0;
  std::chrono::steady_clock::time_point start_;
  GovernorFailpoints failpoints_;
  const std::atomic<bool>* external_cancel_ = nullptr;

  std::atomic<bool> trip_flag_{false};
  std::atomic<int> trip_cause_{static_cast<int>(TripCause::kNone)};
  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> charges_{0};
  std::atomic<size_t> bytes_in_use_{0};
  std::atomic<size_t> peak_bytes_{0};
};

/// One buffer's standing charge against a governor. Sync(bytes) charges
/// or releases the difference from what is charged now; destruction
/// releases it all. A move transfers the charge; a copy takes the
/// governor with nothing charged, for its owner to Sync its own buffer.
/// A detached charge (no governor) costs one null check per Sync.
class ChargedBytes {
 public:
  ChargedBytes() = default;
  ~ChargedBytes() { Release(); }
  ChargedBytes(const ChargedBytes& other) : governor_(other.governor_) {}
  ChargedBytes& operator=(const ChargedBytes& other);
  ChargedBytes(ChargedBytes&& other) noexcept;
  ChargedBytes& operator=(ChargedBytes&& other) noexcept;

  /// Moves the charge to `governor` (nullptr detaches) and brings it to
  /// `bytes` there.
  void Attach(ResourceGovernor* governor, size_t bytes);

  /// Brings the charge to `bytes`.
  void Sync(size_t bytes) {
    if (governor_ != nullptr && bytes != bytes_) SyncSlow(bytes);
  }

  /// Releases the whole charge; the governor stays attached.
  void Release();

 private:
  void SyncSlow(size_t bytes);

  ResourceGovernor* governor_ = nullptr;
  size_t bytes_ = 0;
};

}  // namespace cqcs

#endif  // CQCS_COMMON_GOVERNOR_H_
