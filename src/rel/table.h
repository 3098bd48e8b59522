// rel::Table — the flat column store under the polynomial backends.
//
// A Table is a bag of fixed-width rows of Elements in one contiguous
// buffer: row r occupies cells [r*width, (r+1)*width). What the columns
// *mean* (query variables, bag elements) is the caller's bookkeeping —
// the kernel only moves flat rows, so atom tables and bag tables share
// the same storage, operators, and hash index
// (rel/hash_index.h, rel/ops.h) with no per-row allocation anywhere:
// appending writes into the buffer, filtering compacts it in place, and
// keys are spans into it.
//
// A table either owns its buffer or borrows one: View() wraps existing
// row-major storage (a relation's flat tuples) without copying it. A view
// is read-only and never outlives the storage it borrows; the first
// KeepRows on it copies the kept rows into an owned buffer
// (copy-on-write), and appending to a view is an error.
//
// Resource accounting: AttachGovernor makes the table report its buffer
// capacity (in bytes) to a ResourceGovernor — charged on growth, released
// on shrink and destruction, transferred on move, re-charged on copy.
// Detached tables (the default) pay one null check per append. A view
// charges nothing: its buffer is the owner's.

#ifndef CQCS_REL_TABLE_H_
#define CQCS_REL_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/governor.h"
#include "core/relation.h"

namespace cqcs::rel {

class Table {
 public:
  Table() = default;
  explicit Table(uint32_t width) : width_(width) {}

  Table(const Table& other);
  Table& operator=(const Table& other);
  Table(Table&& other) noexcept;
  Table& operator=(Table&& other) noexcept;

  /// A read-only view of `rows` rows of `width` cells at `data`, which
  /// must stay alive and unmodified for the view's lifetime. Copies of a
  /// view are views of the same storage. Zero rows give an empty owned
  /// table.
  static Table View(const Element* data, uint32_t width, size_t rows);

  /// True for a view: the buffer belongs to someone else.
  bool borrowed() const { return view_ != nullptr; }

  /// Makes the table report buffer-capacity deltas to `governor` (nullptr
  /// detaches). The current capacity is charged/released immediately.
  void AttachGovernor(ResourceGovernor* governor);

  /// Cells per row. Width-0 tables are allowed (the nullary relation:
  /// either empty or the single empty row) and row_count() tracks the
  /// rows appended, not data_.size() / 0.
  uint32_t width() const { return width_; }
  size_t row_count() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  std::span<const Element> row(size_t r) const {
    return {data() + r * width_, width_};
  }

  /// Appends a row (length must equal width()). Not on a view.
  void AppendRow(std::span<const Element> row);

  /// Appends an uninitialized row and returns the cell to fill — the
  /// zero-copy append used by operators that compose rows from several
  /// sources. The pointer is valid until the next append. Not on a view.
  Element* AppendRowSlot();

  /// Keeps exactly the rows whose ids are listed (ascending), compacting
  /// in place. Used by the semijoin operator. On a view, copies the kept
  /// rows into an owned buffer instead, leaving the borrowed storage as
  /// it was.
  void KeepRows(std::span<const uint32_t> keep);

  /// Drops every row; a view becomes an empty owned table.
  void Clear();

  /// Raw row-major buffer (row_count() * width() cells): the borrowed
  /// storage for a view. The hash index probes this directly.
  const Element* data() const {
    return view_ != nullptr ? view_ : data_.data();
  }

  /// Not on a view.
  void Reserve(size_t rows);

 private:
  /// Brings the governor's view in line with data_.capacity(). Inline
  /// fast path: appends dominate the polynomial backends, and capacity
  /// only changes on the vector's geometric growth steps — the common
  /// call is one multiply + compare, no out-of-line jump.
  void SyncCharge() { charge_.Sync(data_.capacity() * sizeof(Element)); }

  uint32_t width_ = 0;
  size_t rows_ = 0;
  std::vector<Element> data_;      // empty for a view
  const Element* view_ = nullptr;  // borrowed rows, or nullptr if owned
  ChargedBytes charge_;
};

}  // namespace cqcs::rel

#endif  // CQCS_REL_TABLE_H_
