// Relational operators over rel::Table + rel::HashIndex: semijoin, hash
// join, and distinct projection. These are the three moves the polynomial
// backends are made of — Yannakakis' reduction is semijoins, its
// witness/count/enumerate phases walk index chains, and its projection
// phase is join + project-distinct. None of them allocates per row: keys
// are spans into the flat buffers, outputs are appended via AppendRowSlot,
// and the semijoin compacts its input in place (a view only once it drops
// a row). A one-column key whose values fit HashIndex's direct bound needs
// no chains at all: SemijoinScratch and the count fold read value-indexed
// arrays (ValueArray) instead.

#ifndef CQCS_REL_OPS_H_
#define CQCS_REL_OPS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/governor.h"
#include "rel/hash_index.h"
#include "rel/table.h"

namespace cqcs::rel {

// Each operator takes an optional ResourceGovernor polled on an input-row
// stride; on a trip the operator stops early without corrupting its
// output (Semijoin leaves `left` untouched, the append operators stop
// appending). Callers observe the sticky trip at their own next poll and
// discard the partial state — the operators themselves never fail.
//
// Semijoin and HashJoinAppend sweep the left table once on the calling
// thread, probing through a ProbeBatch.

/// left := left ⋉ right, in place: keeps the left rows whose key columns
/// (left_key_cols, values in the same order as the index's key_cols) have
/// at least one match in the indexed right table. Returns the number of
/// rows removed; when that is 0, `left` is not written (a view stays a
/// view). `right_index` must be built over `right`'s buffer.
size_t Semijoin(Table& left, std::span<const uint32_t> left_key_cols,
                const Table& right, const HashIndex& right_index,
                ResourceGovernor* governor = nullptr);

/// An array with one slot per key value, for a one-column key whose
/// values fit HashIndex::DirectSlots. Assign zero-fills and keeps the
/// capacity, so one array serves every node of a pass; the capacity is
/// charged to the attached governor like a Table's buffer.
template <typename T>
class ValueArray {
 public:
  ValueArray() = default;
  ValueArray(const ValueArray&) = delete;
  ValueArray& operator=(const ValueArray&) = delete;

  /// Same contract as Table::AttachGovernor.
  void AttachGovernor(ResourceGovernor* governor) {
    charge_.Attach(governor, slots_.capacity() * sizeof(T));
  }

  /// `n` slots of T{}.
  void Assign(size_t n) {
    slots_.assign(n, T{});
    charge_.Sync(slots_.capacity() * sizeof(T));
  }

  T* data() { return slots_.data(); }
  T& operator[](size_t v) { return slots_[v]; }

 private:
  std::vector<T> slots_;
  ChargedBytes charge_;
};

/// The semijoin with its right-side key built per call, reusing its
/// buffers across calls (one scratch serves a whole pass). A one-column
/// key is read from a presence bitset over the right rows' values, so a
/// left row costs one load and nothing is chained: the caller's bitset
/// when it has one, else one marked here when the values lie below
/// HashIndex::DirectLimit. Any other key builds a HashIndex over `right`.
/// Both buffers are charged to the governor.
class SemijoinScratch {
 public:
  explicit SemijoinScratch(ResourceGovernor* governor = nullptr);

  /// left := left ⋉ right on the aligned key columns; the contract of
  /// Semijoin above (rows removed, `left` unwritten when none are or on a
  /// governor trip). `right_presence`, for a one-column key only, is the
  /// exact set of values right's key column holds (bit v of word v/64),
  /// read in place of marking the column: a relation's Presence when
  /// `right` is an unreduced view of it. Empty when there is none.
  size_t Run(Table& left, std::span<const uint32_t> left_key_cols,
             const Table& right, std::span<const uint32_t> right_key_cols,
             std::span<const uint64_t> right_presence = {});

 private:
  /// Marks column `col` of `right` in present_, one bit per value below
  /// the direct bound for right's rows, and returns the bitset; empty as
  /// soon as a value reaches the bound.
  std::span<const uint64_t> MarkPresent(const Table& right, uint32_t col);

  ResourceGovernor* governor_;
  HashIndex index_;
  ValueArray<uint64_t> present_;  // bit v of word v/64: value v occurs
  std::vector<uint32_t> keep_;
};

/// Appends to `out` one row per join match: the left row's cells followed
/// by the matching right row's `right_extra_cols`. out->width() must equal
/// left.width() + right_extra_cols.size(). `right_index` is keyed on the
/// right-side join columns; `left_key_cols` supplies the probe key in the
/// same column order.
void HashJoinAppend(const Table& left, std::span<const uint32_t> left_key_cols,
                    const Table& right, const HashIndex& right_index,
                    std::span<const uint32_t> right_extra_cols, Table* out,
                    ResourceGovernor* governor = nullptr);

/// The ascending ids of the rows of `table` whose values in `cols` no
/// earlier row has: one index build keyed on `cols`, after which a key's
/// first row is the one that ends its chain. Partial after a governor
/// trip.
std::vector<uint32_t> FirstOccurrences(const Table& table,
                                       std::span<const uint32_t> cols,
                                       ResourceGovernor* governor = nullptr);

/// Appends the distinct projections of `src` onto `cols` to the empty
/// table `*out` (width must equal cols.size()), in first-occurrence order.
void ProjectDistinct(const Table& src, std::span<const uint32_t> cols,
                     Table* out, ResourceGovernor* governor = nullptr);

}  // namespace cqcs::rel

#endif  // CQCS_REL_OPS_H_
