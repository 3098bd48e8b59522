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
// Resource accounting: AttachGovernor makes the table report its buffer
// capacity (in bytes) to a ResourceGovernor — charged on growth, released
// on shrink and destruction, transferred on move, re-charged on copy.
// Detached tables (the default) pay one null check per append.

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
  ~Table() { ReleaseCharge(); }

  Table(const Table& other);
  Table& operator=(const Table& other);
  Table(Table&& other) noexcept;
  Table& operator=(Table&& other) noexcept;

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
    return {data_.data() + r * width_, width_};
  }

  /// Appends a row (length must equal width()).
  void AppendRow(std::span<const Element> row);

  /// Appends an uninitialized row and returns the cell to fill — the
  /// zero-copy append used by operators that compose rows from several
  /// sources. The pointer is valid until the next append.
  Element* AppendRowSlot();

  /// Keeps exactly the rows whose ids are listed (ascending), compacting
  /// in place. Used by the semijoin operator.
  void KeepRows(std::span<const uint32_t> keep);

  void Clear();

  /// Raw row-major buffer (row_count() * width() cells). The hash index
  /// probes this directly.
  const Element* data() const { return data_.data(); }

  void Reserve(size_t rows) {
    data_.reserve(rows * width_);
    if (governor_ != nullptr) SyncCharge();
  }

 private:
  /// Brings the governor's view in line with data_.capacity(). Inline
  /// fast path: appends dominate the polynomial backends, and capacity
  /// only changes on the vector's geometric growth steps — the common
  /// call is one multiply + compare, no out-of-line jump.
  void SyncCharge() {
    size_t cap = data_.capacity() * sizeof(Element);
    if (cap != charged_bytes_) SyncChargeSlow(cap);
  }
  void SyncChargeSlow(size_t cap);
  void ReleaseCharge();

  uint32_t width_ = 0;
  size_t rows_ = 0;
  std::vector<Element> data_;
  ResourceGovernor* governor_ = nullptr;
  size_t charged_bytes_ = 0;
};

}  // namespace cqcs::rel

#endif  // CQCS_REL_TABLE_H_
