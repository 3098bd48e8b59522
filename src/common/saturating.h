// Saturating size_t arithmetic for cost and size estimates.
//
// The polynomial backends reason about table sizes like bags * |B|^(w+1)
// before building anything; those products overflow size_t long before the
// tables would fit in memory, so every estimate saturates at an explicit
// limit instead of wrapping. A saturated estimate compares correctly
// against any budget below the limit, which is all the callers need.

#ifndef CQCS_COMMON_SATURATING_H_
#define CQCS_COMMON_SATURATING_H_

#include <cstddef>

namespace cqcs {

/// a + b, saturated at `limit`.
inline size_t SatAdd(size_t a, size_t b, size_t limit) {
  if (a >= limit) return limit;
  if (b >= limit - a) return limit;
  return a + b;
}

/// a * b, saturated at `limit`. SatMul(x, 0, limit) == 0 for every x.
/// No division: the count fold calls this once per row.
inline size_t SatMul(size_t a, size_t b, size_t limit) {
  size_t product;
  if (__builtin_mul_overflow(a, b, &product) || product > limit) return limit;
  return product;
}

/// base^exp, saturated at `limit` (SatPow(x, 0, limit) == 1 for every x,
/// matching the empty product).
inline size_t SatPow(size_t base, size_t exp, size_t limit) {
  size_t out = 1;
  for (size_t i = 0; i < exp; ++i) {
    out = SatMul(out, base, limit);
    if (out >= limit) return limit;
  }
  return out;
}

}  // namespace cqcs

#endif  // CQCS_COMMON_SATURATING_H_
