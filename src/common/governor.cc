#include "common/governor.h"

#include <string>

namespace cqcs {

const char* TripCauseName(TripCause cause) {
  switch (cause) {
    case TripCause::kNone:
      return "none";
    case TripCause::kDeadline:
      return "deadline";
    case TripCause::kMemory:
      return "memory";
    case TripCause::kCancelled:
      return "cancelled";
    case TripCause::kFailpoint:
      return "failpoint";
  }
  return "unknown";
}

ResourceGovernor::ResourceGovernor(uint64_t deadline_ms,
                                   size_t memory_budget_bytes)
    : deadline_ms_(deadline_ms),
      memory_budget_bytes_(memory_budget_bytes),
      start_(std::chrono::steady_clock::now()) {}

bool ResourceGovernor::Trip(TripCause cause) {
  int expected = static_cast<int>(TripCause::kNone);
  if (!trip_cause_.compare_exchange_strong(expected, static_cast<int>(cause),
                                           std::memory_order_acq_rel)) {
    return false;  // already tripped; first cause wins
  }
  trip_flag_.store(true, std::memory_order_release);
  return true;
}

uint64_t ResourceGovernor::elapsed_ms() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

Status ResourceGovernor::TripStatus() const {
  TripCause cause = trip_cause();
  if (cause == TripCause::kNone) return Status::OK();
  std::string msg = "resource budget exhausted (";
  msg += TripCauseName(cause);
  msg += "): spent ";
  msg += std::to_string(elapsed_ms());
  msg += "ms";
  if (deadline_ms_ > 0) {
    msg += " of ";
    msg += std::to_string(deadline_ms_);
    msg += "ms";
  }
  msg += ", peak ";
  msg += std::to_string(peak_bytes());
  msg += " charged bytes";
  if (memory_budget_bytes_ > 0) {
    msg += " of ";
    msg += std::to_string(memory_budget_bytes_);
  }
  return Status::ResourceExhausted(std::move(msg));
}

Status ResourceGovernor::Poll() {
  if (trip_flag_.load(std::memory_order_acquire)) return TripStatus();
  uint64_t n = checks_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (failpoints_.trip_after_checks > 0 &&
      n >= failpoints_.trip_after_checks) {
    Trip(TripCause::kFailpoint);
    return TripStatus();
  }
  if (external_cancel_ != nullptr &&
      external_cancel_->load(std::memory_order_relaxed)) {
    Trip(TripCause::kCancelled);
    return TripStatus();
  }
  if (memory_budget_bytes_ > 0 &&
      bytes_in_use_.load(std::memory_order_relaxed) > memory_budget_bytes_) {
    Trip(TripCause::kMemory);
    return TripStatus();
  }
  // The deadline needs a clock read, which is far costlier than the
  // relaxed loads above (clock_gettime may not be vDSO-accelerated), so
  // it is checked on a stride: overshoot grows by at most 63 poll
  // intervals, which the per-backend poll strides already dominate.
  if (deadline_ms_ > 0 && (n & 63) == 0 && elapsed_ms() > deadline_ms_) {
    Trip(TripCause::kDeadline);
    return TripStatus();
  }
  return Status::OK();
}

void ResourceGovernor::ChargeBytes(size_t bytes) {
  if (bytes == 0) return;
  size_t now = bytes_in_use_.fetch_add(bytes, std::memory_order_relaxed) +
               bytes;
  size_t peak = peak_bytes_.load(std::memory_order_relaxed);
  while (now > peak && !peak_bytes_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  uint64_t k = charges_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (failpoints_.trip_after_charges > 0 &&
      k >= failpoints_.trip_after_charges) {
    Trip(TripCause::kFailpoint);
    return;
  }
  if (memory_budget_bytes_ > 0 && now > memory_budget_bytes_) {
    Trip(TripCause::kMemory);
  }
}

void ResourceGovernor::ReleaseBytes(size_t bytes) {
  if (bytes == 0) return;
  bytes_in_use_.fetch_sub(bytes, std::memory_order_relaxed);
}

bool ResourceGovernor::AdmitBytes(size_t estimated_bytes) const {
  if (memory_budget_bytes_ == 0) return true;
  size_t used = bytes_in_use_.load(std::memory_order_relaxed);
  if (used >= memory_budget_bytes_) return false;
  return estimated_bytes <= memory_budget_bytes_ - used;
}

ChargedBytes& ChargedBytes::operator=(const ChargedBytes& other) {
  if (this == &other) return *this;
  Release();
  governor_ = other.governor_;
  return *this;
}

ChargedBytes::ChargedBytes(ChargedBytes&& other) noexcept
    : governor_(other.governor_), bytes_(other.bytes_) {
  other.bytes_ = 0;
}

ChargedBytes& ChargedBytes::operator=(ChargedBytes&& other) noexcept {
  if (this == &other) return *this;
  Release();
  governor_ = other.governor_;
  bytes_ = other.bytes_;
  other.bytes_ = 0;
  return *this;
}

void ChargedBytes::Attach(ResourceGovernor* governor, size_t bytes) {
  if (governor != governor_) {
    Release();
    governor_ = governor;
  }
  Sync(bytes);
}

void ChargedBytes::Release() {
  if (governor_ != nullptr && bytes_ > 0) governor_->ReleaseBytes(bytes_);
  bytes_ = 0;
}

void ChargedBytes::SyncSlow(size_t bytes) {
  if (bytes > bytes_) {
    governor_->ChargeBytes(bytes - bytes_);
  } else {
    governor_->ReleaseBytes(bytes_ - bytes);
  }
  bytes_ = bytes;
}

}  // namespace cqcs
