#include "rel/table.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace cqcs::rel {

Table::Table(const Table& other)
    : width_(other.width_),
      rows_(other.rows_),
      data_(other.data_),
      governor_(other.governor_) {
  if (governor_ != nullptr) SyncCharge();
}

Table& Table::operator=(const Table& other) {
  if (this == &other) return *this;
  ReleaseCharge();
  width_ = other.width_;
  rows_ = other.rows_;
  data_ = other.data_;
  governor_ = other.governor_;
  if (governor_ != nullptr) SyncCharge();
  return *this;
}

Table::Table(Table&& other) noexcept
    : width_(other.width_),
      rows_(other.rows_),
      data_(std::move(other.data_)),
      governor_(other.governor_),
      charged_bytes_(other.charged_bytes_) {
  other.rows_ = 0;
  other.data_.clear();
  other.charged_bytes_ = 0;
}

Table& Table::operator=(Table&& other) noexcept {
  if (this == &other) return *this;
  ReleaseCharge();
  width_ = other.width_;
  rows_ = other.rows_;
  data_ = std::move(other.data_);
  governor_ = other.governor_;
  charged_bytes_ = other.charged_bytes_;
  other.rows_ = 0;
  other.data_.clear();
  other.charged_bytes_ = 0;
  return *this;
}

void Table::AttachGovernor(ResourceGovernor* governor) {
  if (governor == governor_) {
    if (governor_ != nullptr) SyncCharge();
    return;
  }
  ReleaseCharge();
  governor_ = governor;
  if (governor_ != nullptr) SyncCharge();
}

void Table::SyncChargeSlow(size_t cap) {
  if (cap > charged_bytes_) {
    governor_->ChargeBytes(cap - charged_bytes_);
  } else {
    governor_->ReleaseBytes(charged_bytes_ - cap);
  }
  charged_bytes_ = cap;
}

void Table::ReleaseCharge() {
  if (charged_bytes_ > 0 && governor_ != nullptr) {
    governor_->ReleaseBytes(charged_bytes_);
  }
  charged_bytes_ = 0;
}

void Table::AppendRow(std::span<const Element> row) {
  CQCS_CHECK(row.size() == width_);
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
  if (governor_ != nullptr) SyncCharge();
}

Element* Table::AppendRowSlot() {
  data_.resize(data_.size() + width_);
  ++rows_;
  if (governor_ != nullptr) SyncCharge();
  return data_.data() + (rows_ - 1) * width_;
}

void Table::KeepRows(std::span<const uint32_t> keep) {
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
}

}  // namespace cqcs::rel
