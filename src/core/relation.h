// A finite relation: a set of tuples over a dense element universe.
//
// Tuples are stored flattened in insertion order. Membership queries use a
// lazily built sorted index (invalidated by mutation); this keeps bulk
// loading O(1) amortized per tuple while making Contains O(log m) without a
// second copy of the data.

#ifndef CQCS_CORE_RELATION_H_
#define CQCS_CORE_RELATION_H_

#include <cstdint>
#include <span>
#include <vector>

namespace cqcs {

/// Elements of a structure's universe are dense indices 0..n-1.
using Element = uint32_t;

/// A set of `arity`-tuples of elements.
class Relation {
 public:
  explicit Relation(uint32_t arity) : arity_(arity) {}

  uint32_t arity() const { return arity_; }

  /// Number of tuples (counting duplicates until Dedup() is called).
  size_t tuple_count() const { return data_.size() / arity_; }

  bool empty() const { return data_.empty(); }

  /// Appends a tuple. Does not check for duplicates (call Dedup() after bulk
  /// loads if set semantics matter). CHECK-fails on wrong length.
  void Add(std::span<const Element> tuple);
  void Add(std::initializer_list<Element> tuple);

  /// The i-th tuple, valid until the next mutation.
  std::span<const Element> tuple(size_t i) const {
    return {data_.data() + i * arity_, arity_};
  }

  /// Set membership; O(log m) after a one-time O(m log m) index build.
  bool Contains(std::span<const Element> tuple) const;

  /// Builds (or reuses) the sorted index behind Contains. Neither this nor
  /// EnsurePositionIndex is synchronized: a relation shared across threads
  /// must have both built before it is shared.
  void EnsureIndex() const;

  /// Builds (or reuses) the (position, value) support index: for every
  /// position p < arity and value v < num_values, the list of tuple ids t
  /// with tuple(t)[p] == v, in increasing t. One O(m·arity) CSR pass; the
  /// CSP propagator walks these lists instead of rescanning all tuples.
  /// CHECK-fails if some tuple mentions an element >= num_values.
  /// Invalidated by mutation, like the sorted index.
  void EnsurePositionIndex(Element num_values) const;

  /// Tuple ids whose position `pos` holds `value`. Requires a prior
  /// EnsurePositionIndex(n) with value < n (returns an empty span for
  /// out-of-range values). Valid until the next mutation.
  std::span<const uint32_t> TuplesWith(uint32_t pos, Element value) const;

  /// Removes duplicate tuples (keeps first occurrences' values; order is
  /// normalized to lexicographic).
  void Dedup();

  /// Removes all tuples.
  void Clear();

  /// Raw flattened storage (tuple_count() * arity() elements).
  const std::vector<Element>& data() const { return data_; }

  /// Largest element mentioned plus one; 0 if empty. Useful for validation.
  Element MaxElementPlusOne() const;

  bool operator==(const Relation& other) const;

 private:
  /// Lexicographic comparison of tuples at offsets a and b.
  bool TupleLess(size_t a, size_t b) const;

  uint32_t arity_;
  std::vector<Element> data_;
  // Sorted tuple indices for binary search; rebuilt on demand.
  mutable std::vector<uint32_t> index_;
  mutable bool index_valid_ = false;
  // (position, value) -> tuple-id CSR index; see EnsurePositionIndex.
  // Slot (p, v) spans pos_offsets_[p * num_values + v] ..
  // pos_offsets_[p * num_values + v + 1] of pos_ids_.
  mutable std::vector<uint32_t> pos_offsets_;
  mutable std::vector<uint32_t> pos_ids_;
  mutable Element pos_num_values_ = 0;
  mutable bool pos_index_valid_ = false;
};

}  // namespace cqcs

#endif  // CQCS_CORE_RELATION_H_
