// rel::HashIndex — open-addressing hash index over flat row-major data,
// keyed on a subset of columns.
//
// The index is a view: it stores row ids only and compares keys against a
// caller-supplied base pointer (a rel::Table's buffer, or a core Relation's
// flattened tuple data — both are row-major Element arrays). Layout:
//
//   slots_  open-addressing array (power of two, linear probing); each
//           occupied slot holds the head row id of one distinct key
//   next_   per-row chain links: all rows sharing a key hang off the head
//
// One probe finds the first row with a key (O(1) expected); walking the
// chain enumerates every duplicate. No allocation per probe, no stored
// keys — equality reads the row buffer, so the index costs two uint32
// arrays regardless of key width.
//
// Two build modes share the structure: Build() bulk-loads rows [0, n), and
// Add() appends row ids one at a time (the treewidth DP inserts a row only
// after probing for its key, so tables stay deduplicated by key). Rows
// must be added densely: Add(base, r) requires r == size().

#ifndef CQCS_REL_HASH_INDEX_H_
#define CQCS_REL_HASH_INDEX_H_

#include <cstdint>
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
/// overlap instead of serializing. That wins even single-threaded; the
/// morsel-parallel operators additionally keep one batch per worker.
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
  ~HashIndex() { ReleaseCharge(); }
  HashIndex(const HashIndex& other);
  HashIndex& operator=(const HashIndex& other);
  HashIndex(HashIndex&& other) noexcept;
  HashIndex& operator=(HashIndex&& other) noexcept;

  /// Makes the index report its slot/chain capacity (bytes) to `governor`
  /// (nullptr detaches); same contract as Table::AttachGovernor.
  void AttachGovernor(ResourceGovernor* governor);

  /// Prepares an empty index over rows of `width` cells keyed on
  /// `key_cols` (column positions, each < width).
  void Reset(uint32_t width, std::vector<uint32_t> key_cols);

  /// Reset + bulk-load rows [0, row_count) of `base`.
  void Build(const Element* base, uint32_t width, uint32_t row_count,
             std::vector<uint32_t> key_cols);

  /// Adds the next row. `row` must equal size() (dense ids); `base` is the
  /// current buffer start (it may move between calls as the table grows).
  void Add(const Element* base, uint32_t row);

  /// First row whose key columns equal `key` (values in key_cols order),
  /// or kNone. Follow with Next() to walk all rows sharing the key.
  uint32_t FindFirst(const Element* base, std::span<const Element> key) const;

  /// Resolves every key in `batch` (results land in batch->result(i)):
  /// pass 1 hashes all keys and prefetches their bucket lines, pass 2
  /// linear-probes. Equivalent to FindFirst per key, but the bucket-line
  /// misses overlap across the strip. The batch's key width must equal
  /// key_cols().size().
  void FindFirstBatch(const Element* base, ProbeBatch* batch) const;

  /// Next row with the same key as `row`, or kNone. A chain runs in
  /// descending row order — Next(row) < row, FindFirst returns the key's
  /// last row, and Next(row) == kNone exactly at its first — which
  /// Yannakakis' count fold and bulk dedup rely on (cq/acyclic.cc).
  uint32_t Next(uint32_t row) const { return next_[row]; }

  /// Rows indexed so far.
  uint32_t size() const { return static_cast<uint32_t>(next_.size()); }

  std::span<const uint32_t> key_cols() const { return key_cols_; }

 private:
  uint64_t HashKey(std::span<const Element> key) const;
  uint64_t HashRow(const Element* base, uint32_t row) const;
  bool RowMatchesKey(const Element* base, uint32_t row,
                     std::span<const Element> key) const;
  bool RowsMatch(const Element* base, uint32_t a, uint32_t b) const;
  void Grow(const Element* base);
  /// Probes for `row`'s key: chains onto the head if present, else claims
  /// an empty slot.
  void Insert(const Element* base, uint32_t row);
  /// Brings the governor's view in line with slots_/next_ capacity.
  /// Inline fast path, same rationale as Table::SyncCharge: per-Add calls
  /// dominate and capacity only moves on growth steps.
  void SyncCharge() {
    size_t cap = (slots_.capacity() + next_.capacity()) * sizeof(uint32_t);
    if (cap != charged_bytes_) SyncChargeSlow(cap);
  }
  void SyncChargeSlow(size_t cap);
  void ReleaseCharge();

  uint32_t width_ = 0;
  std::vector<uint32_t> key_cols_;
  std::vector<uint32_t> slots_;  // heads; kNone = empty
  std::vector<uint32_t> next_;   // per-row same-key chain
  ResourceGovernor* governor_ = nullptr;
  size_t charged_bytes_ = 0;
};

}  // namespace cqcs::rel

#endif  // CQCS_REL_HASH_INDEX_H_
