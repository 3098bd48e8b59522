// rel::HashIndex — an index over flat row-major data, keyed on a subset
// of columns.
//
// The index is a view: it stores row ids only and compares keys against a
// caller-supplied base pointer (a rel::Table's buffer, or a core Relation's
// flattened tuple data — both are row-major Element arrays). Layout:
//
//   slots_  one head row id per distinct key, in one of two layouts:
//           hashed  open addressing (power of two, linear probing);
//           direct  slots_[v] is the head for key value v — chosen by
//                   Build when the key is one column and every value is
//                   below the slot count the hashed layout would allocate,
//                   so the direct array is never the larger one
//   next_   per-row chain links: all rows sharing a key hang off the head
//
// One probe finds the first row with a key (O(1) expected; one load when
// direct); walking the chain enumerates every duplicate. No allocation per
// probe, no stored keys — equality reads the row buffer, so the index costs
// two uint32 arrays regardless of key width. Build() bulk-loads rows
// [0, n), and callers never see which layout it picked.

#ifndef CQCS_REL_HASH_INDEX_H_
#define CQCS_REL_HASH_INDEX_H_

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "common/governor.h"
#include "core/relation.h"

namespace cqcs::rel {

class HashIndex;

/// A strip of gathered keys probed together against one HashIndex.
///
/// Probe-at-a-time FindFirst stalls on one dependent cache miss per key:
/// hash, then wait for the bucket line. A batch splits that into two
/// passes — FindFirstBatch hashes every key and issues __builtin_prefetch
/// on its bucket line, then walks the buckets — so the strip's misses
/// overlap instead of serializing.
///
/// Usage: Reset(key_width) once per (index, operator) pairing, then
/// gather keys into Append() slots until full(), FindFirstBatch, consume
/// result(i)/tag(i), Clear(), repeat. Capacity is fixed and small: large
/// enough to cover DRAM latency with independent loads, small enough that
/// the key strip and bucket lines stay resident in L1 between the passes.
class ProbeBatch {
 public:
  static constexpr size_t kCapacity = 64;

  /// Prepares for keys of `key_width` cells — must match the size of the
  /// probed index's key_cols.
  void Reset(uint32_t key_width) {
    key_width_ = key_width;
    keys_.resize(static_cast<size_t>(key_width) * kCapacity);
    count_ = 0;
  }

  bool full() const { return count_ == kCapacity; }
  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }
  void Clear() { count_ = 0; }

  /// Claims the next key slot: the caller writes key_width cells through
  /// the returned pointer (gathering straight from its source row) and
  /// stamps the slot with `tag` (typically that row's id) to reconnect
  /// results with rows after the probe.
  Element* Append(uint32_t tag) {
    tags_[count_] = tag;
    return keys_.data() + static_cast<size_t>(key_width_) * count_++;
  }

  uint32_t tag(size_t i) const { return tags_[i]; }
  /// Valid after HashIndex::FindFirstBatch: first row matching key i, or
  /// HashIndex::kNone.
  uint32_t result(size_t i) const { return results_[i]; }

 private:
  friend class HashIndex;
  const Element* key(size_t i) const {
    return keys_.data() + static_cast<size_t>(key_width_) * i;
  }

  uint32_t key_width_ = 0;
  size_t count_ = 0;
  std::vector<Element> keys_;  // kCapacity keys, flat
  uint64_t hashes_[kCapacity];
  uint32_t tags_[kCapacity];
  uint32_t results_[kCapacity];
};

class HashIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  HashIndex() = default;
  HashIndex(const HashIndex& other);
  HashIndex& operator=(const HashIndex& other);
  HashIndex(HashIndex&& other) noexcept;
  HashIndex& operator=(HashIndex&& other) noexcept;

  /// Makes the index report its slot/chain capacity (bytes) to `governor`
  /// (nullptr detaches); same contract as Table::AttachGovernor.
  void AttachGovernor(ResourceGovernor* governor);

  /// Indexes rows [0, row_count) of `base`, rows of `width` cells, keyed
  /// on `key_cols` (column positions, each < width), replacing any earlier
  /// contents. The key columns are copied into the index's own buffer,
  /// whose capacity a rebuild reuses. Picks the direct layout for a
  /// one-column key whose values fit the hashed slot count, the hashed
  /// layout otherwise.
  void Build(const Element* base, uint32_t width, uint32_t row_count,
             std::span<const uint32_t> key_cols);
  void Build(const Element* base, uint32_t width, uint32_t row_count,
             std::initializer_list<uint32_t> key_cols) {
    Build(base, width, row_count,
          std::span<const uint32_t>(key_cols.begin(), key_cols.size()));
  }

  /// The bound of the direct layout for `row_count` rows: the slot count
  /// the hashed layout would allocate (the smallest power of two >= 2n,
  /// at least 8). A one-column key whose values all lie below it is
  /// addressed directly; the value-indexed arrays of rel/ops.h use the
  /// same rule, so no key array is ever sized by a universe far past its
  /// rows.
  static size_t DirectLimit(uint32_t row_count);

  /// The direct layout's slot count for rows [0, row_count) keyed on the
  /// one column `col`: the largest value + 1 (0 without rows), or nullopt
  /// once a value reaches DirectLimit(row_count). Build picks the direct
  /// layout exactly when this has a value.
  static std::optional<size_t> DirectSlots(const Element* base,
                                           uint32_t width, uint32_t row_count,
                                           uint32_t col);

  /// First row whose key columns equal `key` (values in key_cols order),
  /// or kNone. Follow with Next() to walk all rows sharing the key.
  uint32_t FindFirst(const Element* base, std::span<const Element> key) const;

  /// Resolves every key in `batch` (results land in batch->result(i)):
  /// pass 1 hashes all keys and prefetches their bucket lines, pass 2
  /// linear-probes (a direct index reads each key's slot in one pass). Equivalent to FindFirst per key, but the bucket-line
  /// misses overlap across the strip. The batch's key width must equal
  /// key_cols().size().
  void FindFirstBatch(const Element* base, ProbeBatch* batch) const;

  /// Next row with the same key as `row`, or kNone. A chain runs in
  /// descending row order — Next(row) < row, FindFirst returns the key's
  /// last row, and Next(row) == kNone exactly at its first — which
  /// Yannakakis' count fold and bulk dedup rely on (cq/acyclic.cc).
  uint32_t Next(uint32_t row) const { return next_[row]; }

  std::span<const uint32_t> key_cols() const { return key_cols_; }

 private:
  uint64_t HashKey(std::span<const Element> key) const;
  uint64_t HashRow(const Element* base, uint32_t row) const;
  bool RowMatchesKey(const Element* base, uint32_t row,
                     std::span<const Element> key) const;
  bool RowsMatch(const Element* base, uint32_t a, uint32_t b) const;
  /// Probes for `row`'s key: chains onto the head if present, else claims
  /// an empty slot.
  void Insert(const Element* base, uint32_t row);
  /// Brings the governor's view in line with slots_/next_ capacity.
  void SyncCharge() {
    charge_.Sync((slots_.capacity() + next_.capacity()) * sizeof(uint32_t));
  }

  uint32_t width_ = 0;
  std::vector<uint32_t> key_cols_;
  std::vector<uint32_t> slots_;  // heads; kNone = empty
  std::vector<uint32_t> next_;   // per-row same-key chain
  bool direct_ = false;          // slots_ indexed by key value, not hash
  ChargedBytes charge_;
};

}  // namespace cqcs::rel

#endif  // CQCS_REL_HASH_INDEX_H_
