#include "rel/table.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace cqcs::rel {

Table::Table(const Table& other)
    : width_(other.width_),
      rows_(other.rows_),
      data_(other.data_),
      view_(other.view_),
      charge_(other.charge_) {
  SyncCharge();
}

Table& Table::operator=(const Table& other) {
  if (this == &other) return *this;
  width_ = other.width_;
  rows_ = other.rows_;
  data_ = other.data_;
  view_ = other.view_;
  charge_ = other.charge_;
  SyncCharge();
  return *this;
}

Table::Table(Table&& other) noexcept
    : width_(other.width_),
      rows_(std::exchange(other.rows_, 0)),
      data_(std::move(other.data_)),
      view_(std::exchange(other.view_, nullptr)),
      charge_(std::move(other.charge_)) {
  other.data_.clear();
}

Table& Table::operator=(Table&& other) noexcept {
  if (this == &other) return *this;
  width_ = other.width_;
  rows_ = std::exchange(other.rows_, 0);
  data_ = std::move(other.data_);
  view_ = std::exchange(other.view_, nullptr);
  charge_ = std::move(other.charge_);
  other.data_.clear();
  return *this;
}

Table Table::View(const Element* data, uint32_t width, size_t rows) {
  Table view(width);
  if (rows == 0) return view;
  CQCS_CHECK(data != nullptr);
  view.rows_ = rows;
  view.view_ = data;
  return view;
}

void Table::AttachGovernor(ResourceGovernor* governor) {
  charge_.Attach(governor, data_.capacity() * sizeof(Element));
}

void Table::AppendRow(std::span<const Element> row) {
  CQCS_CHECK(row.size() == width_ && view_ == nullptr);
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
  SyncCharge();
}

Element* Table::AppendRowSlot() {
  CQCS_CHECK(view_ == nullptr);
  data_.resize(data_.size() + width_);
  ++rows_;
  SyncCharge();
  return data_.data() + (rows_ - 1) * width_;
}

void Table::Reserve(size_t rows) {
  CQCS_CHECK(view_ == nullptr);
  data_.reserve(rows * width_);
  SyncCharge();
}

void Table::KeepRows(std::span<const uint32_t> keep) {
  if (view_ != nullptr) {
    // Copy-on-write: the borrowed rows are read, never written.
    data_.reserve(keep.size() * width_);
    for (uint32_t r : keep) {
      const Element* row = view_ + static_cast<size_t>(r) * width_;
      data_.insert(data_.end(), row, row + width_);
    }
    view_ = nullptr;
    rows_ = keep.size();
    SyncCharge();
    return;
  }
  size_t out = 0;
  for (uint32_t r : keep) {
    if (out != r) {
      std::copy_n(data_.begin() + r * width_, width_,
                  data_.begin() + out * width_);
    }
    ++out;
  }
  rows_ = out;
  data_.resize(rows_ * width_);
}

void Table::Clear() {
  rows_ = 0;
  data_.clear();
  view_ = nullptr;
}

}  // namespace cqcs::rel
