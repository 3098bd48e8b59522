// Deterministic pseudo-random number generation.
//
// All workload generators in libcqcs take explicit 64-bit seeds so that tests
// and benchmarks are reproducible across runs and platforms. We use
// SplitMix64 for seeding and xoshiro256** for the stream; both are tiny,
// fast, and have well-understood statistical quality.

#ifndef CQCS_COMMON_RNG_H_
#define CQCS_COMMON_RNG_H_

#include <cstdint>

#include "common/check.h"

namespace cqcs {

/// SplitMix64 step: maps a state to the next state's output. Used both as a
/// standalone mixer and to seed Rng.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator with convenience sampling helpers.
class Rng {
 public:
  /// Seeds the generator deterministically from a single 64-bit seed.
  explicit Rng(uint64_t seed = 0x9ULL) {
    uint64_t sm = seed;
    for (auto& word : state_) word = SplitMix64(sm);
  }

  /// Uniform 64-bit word.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  uint64_t Below(uint64_t bound) {
    CQCS_CHECK(bound > 0);
    // Debiased multiply-shift (Lemire). The retry loop is entered rarely.
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<uint64_t>(m);
    if (low < bound) {
      uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in the inclusive range [lo, hi].
  uint64_t Range(uint64_t lo, uint64_t hi) {
    CQCS_CHECK(lo <= hi);
    return lo + Below(hi - lo + 1);
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool Chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    // 53-bit uniform double in [0,1).
    double u = static_cast<double>(Next() >> 11) * 0x1.0p-53;
    return u < p;
  }

  /// Fisher-Yates shuffle of a random-access container.
  template <typename Container>
  void Shuffle(Container& c) {
    for (size_t i = c.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(Below(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace cqcs

#endif  // CQCS_COMMON_RNG_H_
