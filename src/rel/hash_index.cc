#include "rel/hash_index.h"

#include <algorithm>

#include "common/check.h"
#include "common/hash.h"

namespace cqcs::rel {

namespace {

/// Smallest power of two >= 2 * n (load factor <= 0.5), min 8.
size_t SlotCountFor(size_t n) {
  size_t slots = 8;
  while (slots < 2 * n) slots <<= 1;
  return slots;
}

}  // namespace

HashIndex::HashIndex(const HashIndex& other)
    : width_(other.width_),
      key_cols_(other.key_cols_),
      slots_(other.slots_),
      next_(other.next_),
      direct_(other.direct_),
      charge_(other.charge_) {
  SyncCharge();
}

HashIndex& HashIndex::operator=(const HashIndex& other) {
  if (this == &other) return *this;
  width_ = other.width_;
  key_cols_ = other.key_cols_;
  slots_ = other.slots_;
  next_ = other.next_;
  direct_ = other.direct_;
  charge_ = other.charge_;
  SyncCharge();
  return *this;
}

HashIndex::HashIndex(HashIndex&& other) noexcept
    : width_(other.width_),
      key_cols_(std::move(other.key_cols_)),
      slots_(std::move(other.slots_)),
      next_(std::move(other.next_)),
      direct_(other.direct_),
      charge_(std::move(other.charge_)) {
  other.slots_.clear();
  other.next_.clear();
}

HashIndex& HashIndex::operator=(HashIndex&& other) noexcept {
  if (this == &other) return *this;
  width_ = other.width_;
  key_cols_ = std::move(other.key_cols_);
  slots_ = std::move(other.slots_);
  next_ = std::move(other.next_);
  direct_ = other.direct_;
  charge_ = std::move(other.charge_);
  other.slots_.clear();
  other.next_.clear();
  return *this;
}

void HashIndex::AttachGovernor(ResourceGovernor* governor) {
  charge_.Attach(governor,
                 (slots_.capacity() + next_.capacity()) * sizeof(uint32_t));
}

size_t HashIndex::DirectLimit(uint32_t row_count) {
  return SlotCountFor(row_count);
}

std::optional<size_t> HashIndex::DirectSlots(const Element* base,
                                             uint32_t width,
                                             uint32_t row_count,
                                             uint32_t col) {
  const size_t limit = DirectLimit(row_count);
  size_t slots = 0;
  for (uint32_t r = 0; r < row_count; ++r) {
    const Element v = base[static_cast<size_t>(r) * width + col];
    if (v >= limit) return std::nullopt;
    slots = std::max(slots, static_cast<size_t>(v) + 1);
  }
  return slots;
}

void HashIndex::Build(const Element* base, uint32_t width, uint32_t row_count,
                      std::span<const uint32_t> key_cols) {
  for (uint32_t c : key_cols) CQCS_CHECK(c < width);
  width_ = width;
  key_cols_.assign(key_cols.begin(), key_cols.end());
  // A one-column key whose values all fit the slots the hashed layout
  // would allocate is its own slot number: slots_[v] heads v's chain.
  const std::optional<size_t> direct =
      key_cols_.size() == 1
          ? DirectSlots(base, width_, row_count, key_cols_[0])
          : std::nullopt;
  direct_ = direct.has_value();
  slots_.assign(direct_ ? *direct : SlotCountFor(row_count), kNone);
  next_.clear();
  next_.reserve(row_count);
  SyncCharge();
  if (direct_) {
    for (uint32_t r = 0; r < row_count; ++r) {
      // Prepend, as Insert does: chains run in descending row order.
      uint32_t& head =
          slots_[base[static_cast<size_t>(r) * width_ + key_cols_[0]]];
      next_.push_back(head);
      head = r;
    }
  } else {
    for (uint32_t r = 0; r < row_count; ++r) {
      next_.push_back(kNone);
      Insert(base, r);
    }
  }
  SyncCharge();
}

uint64_t HashIndex::HashKey(std::span<const Element> key) const {
  return Fnv1a64(key.data(), key.size());
}

uint64_t HashIndex::HashRow(const Element* base, uint32_t row) const {
  uint64_t h = 0xcbf29ce484222325ULL;
  const Element* cells = base + static_cast<size_t>(row) * width_;
  for (uint32_t c : key_cols_) {
    h ^= cells[c];
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool HashIndex::RowMatchesKey(const Element* base, uint32_t row,
                              std::span<const Element> key) const {
  const Element* cells = base + static_cast<size_t>(row) * width_;
  for (size_t i = 0; i < key_cols_.size(); ++i) {
    if (cells[key_cols_[i]] != key[i]) return false;
  }
  return true;
}

bool HashIndex::RowsMatch(const Element* base, uint32_t a, uint32_t b) const {
  const Element* ca = base + static_cast<size_t>(a) * width_;
  const Element* cb = base + static_cast<size_t>(b) * width_;
  for (uint32_t c : key_cols_) {
    if (ca[c] != cb[c]) return false;
  }
  return true;
}

void HashIndex::Insert(const Element* base, uint32_t row) {
  const uint64_t mask = slots_.size() - 1;
  size_t slot = HashRow(base, row) & mask;
  while (slots_[slot] != kNone) {
    if (RowsMatch(base, slots_[slot], row)) {
      // Same key: prepend to the chain. Chains therefore run in
      // descending row order, which Yannakakis relies on (see Next()).
      next_[row] = slots_[slot];
      slots_[slot] = row;
      return;
    }
    slot = (slot + 1) & mask;
  }
  slots_[slot] = row;
}

uint32_t HashIndex::FindFirst(const Element* base,
                              std::span<const Element> key) const {
  CQCS_CHECK(key.size() == key_cols_.size());
  if (direct_) return key[0] < slots_.size() ? slots_[key[0]] : kNone;
  const uint64_t mask = slots_.size() - 1;
  size_t slot = HashKey(key) & mask;
  while (slots_[slot] != kNone) {
    if (RowMatchesKey(base, slots_[slot], key)) return slots_[slot];
    slot = (slot + 1) & mask;
  }
  return kNone;
}

void HashIndex::FindFirstBatch(const Element* base, ProbeBatch* batch) const {
  CQCS_CHECK(batch->key_width_ == key_cols_.size());
  const size_t n = batch->size();
  if (direct_) {
    // One independent load per key: nothing to hash, nothing to overlap.
    for (size_t i = 0; i < n; ++i) {
      const Element key = *batch->key(i);
      batch->results_[i] = key < slots_.size() ? slots_[key] : kNone;
    }
    return;
  }
  const uint64_t mask = slots_.size() - 1;
  const size_t kw = key_cols_.size();
  // Pass 1: hash every key, kick off its bucket-line load. The prefetches
  // are independent, so they all go to memory in parallel while pass 2 is
  // still working through earlier keys.
  for (size_t i = 0; i < n; ++i) {
    const uint64_t h = Fnv1a64(batch->key(i), kw);
    batch->hashes_[i] = h;
    __builtin_prefetch(&slots_[h & mask], /*rw=*/0, /*locality=*/1);
  }
  // Pass 2: resolve, bucket line (usually) already in flight or landed.
  for (size_t i = 0; i < n; ++i) {
    size_t slot = batch->hashes_[i] & mask;
    const std::span<const Element> key(batch->key(i), kw);
    uint32_t found = kNone;
    while (slots_[slot] != kNone) {
      if (RowMatchesKey(base, slots_[slot], key)) {
        found = slots_[slot];
        break;
      }
      slot = (slot + 1) & mask;
    }
    batch->results_[i] = found;
  }
}

}  // namespace cqcs::rel
