// A fixed-size dynamic bitset used for CSP domains and DP tables.
// std::vector<bool> hides the word layout; this exposes it so that domain
// intersection and popcount run a word at a time.

#ifndef CQCS_COMMON_BITSET_H_
#define CQCS_COMMON_BITSET_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace cqcs {

/// Word-level primitives over raw `uint64_t` arrays. The CSP propagator
/// stores all variable domains in one flat word array (cache locality, cheap
/// trail save/restore); these helpers keep that code word-at-a-time without
/// duplicating bit-twiddling at every call site. DynamicBitset exposes its
/// words so the two representations interconvert losslessly.
namespace bitwords {

/// Number of 64-bit words needed for `bits` bits.
inline size_t WordCount(size_t bits) { return (bits + 63) / 64; }

inline bool TestBit(const uint64_t* words, size_t i) {
  return (words[i >> 6] >> (i & 63)) & 1;
}

inline void SetBit(uint64_t* words, size_t i) {
  words[i >> 6] |= (1ULL << (i & 63));
}

inline void ResetBit(uint64_t* words, size_t i) {
  words[i >> 6] &= ~(1ULL << (i & 63));
}

inline size_t Count(const uint64_t* words, size_t nwords) {
  size_t c = 0;
  for (size_t wi = 0; wi < nwords; ++wi) {
    c += static_cast<size_t>(std::popcount(words[wi]));
  }
  return c;
}

inline bool Any(const uint64_t* words, size_t nwords) {
  for (size_t wi = 0; wi < nwords; ++wi) {
    if (words[wi] != 0) return true;
  }
  return false;
}

/// Index of the lowest set bit, or `DynamicBitset::npos` (== SIZE_MAX).
inline size_t FindFirst(const uint64_t* words, size_t nwords) {
  for (size_t wi = 0; wi < nwords; ++wi) {
    if (words[wi] != 0) {
      return (wi << 6) + static_cast<size_t>(std::countr_zero(words[wi]));
    }
  }
  return static_cast<size_t>(-1);
}

/// Calls fn(index) for every set bit in increasing order.
template <typename Fn>
inline void ForEachSetBit(const uint64_t* words, size_t nwords, Fn fn) {
  for (size_t wi = 0; wi < nwords; ++wi) {
    uint64_t w = words[wi];
    while (w != 0) {
      size_t bit = static_cast<size_t>(std::countr_zero(w));
      fn((wi << 6) + bit);
      w &= w - 1;
    }
  }
}

}  // namespace bitwords

/// A bitset whose size is fixed at construction.
class DynamicBitset {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  explicit DynamicBitset(size_t size = 0, bool fill = false)
      : size_(size), words_((size + 63) / 64, fill ? ~0ULL : 0ULL) {
    TrimTail();
  }

  size_t size() const { return size_; }

  bool test(size_t i) const {
    CQCS_CHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void set(size_t i) {
    CQCS_CHECK(i < size_);
    words_[i >> 6] |= (1ULL << (i & 63));
  }

  void reset(size_t i) {
    CQCS_CHECK(i < size_);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }

  void SetAll() {
    for (auto& w : words_) w = ~0ULL;
    TrimTail();
  }

  void ResetAll() {
    for (auto& w : words_) w = 0ULL;
  }

  size_t count() const {
    size_t c = 0;
    for (uint64_t w : words_) c += static_cast<size_t>(std::popcount(w));
    return c;
  }

  bool any() const {
    for (uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  bool none() const { return !any(); }

  /// Index of the lowest set bit, or npos.
  size_t FindFirst() const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      if (words_[wi] != 0) {
        return (wi << 6) +
               static_cast<size_t>(std::countr_zero(words_[wi]));
      }
    }
    return npos;
  }

  /// Index of the lowest set bit strictly above `i`, or npos.
  size_t FindNext(size_t i) const {
    ++i;
    if (i >= size_) return npos;
    size_t wi = i >> 6;
    uint64_t w = words_[wi] & (~0ULL << (i & 63));
    while (true) {
      if (w != 0) {
        return (wi << 6) + static_cast<size_t>(std::countr_zero(w));
      }
      if (++wi == words_.size()) return npos;
      w = words_[wi];
    }
  }

  /// Calls fn(index) for every set bit in increasing order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        size_t bit = static_cast<size_t>(std::countr_zero(w));
        fn((wi << 6) + bit);
        w &= w - 1;
      }
    }
  }

  DynamicBitset& operator&=(const DynamicBitset& o) {
    CQCS_CHECK(size_ == o.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
    return *this;
  }

  DynamicBitset& operator|=(const DynamicBitset& o) {
    CQCS_CHECK(size_ == o.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
    return *this;
  }

  bool operator==(const DynamicBitset& o) const {
    return size_ == o.size_ && words_ == o.words_;
  }

  /// Word-level access, for interconversion with flat word-array storage
  /// (see bitwords above). Words are little-endian in bit index: bit i lives
  /// at word i/64, position i%64; the tail word's unused high bits are zero.
  size_t word_count() const { return words_.size(); }
  uint64_t word(size_t wi) const { return words_[wi]; }
  const uint64_t* words() const { return words_.data(); }

  /// Overwrites word `wi`. The caller must keep the tail word's unused bits
  /// zero (copying words of an equal-sized bitset is always safe).
  void set_word(size_t wi, uint64_t w) { words_[wi] = w; }

  /// True if this is a subset of `o`.
  bool IsSubsetOf(const DynamicBitset& o) const {
    CQCS_CHECK(size_ == o.size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & ~o.words_[i]) != 0) return false;
    }
    return true;
  }

 private:
  void TrimTail() {
    if (size_ % 64 != 0 && !words_.empty()) {
      words_.back() &= (~0ULL >> (64 - (size_ % 64)));
    }
  }

  size_t size_;
  std::vector<uint64_t> words_;
};

}  // namespace cqcs

#endif  // CQCS_COMMON_BITSET_H_
