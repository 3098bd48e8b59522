#include "core/relation.h"

#include <algorithm>

#include "common/check.h"

namespace cqcs {

void Relation::Add(std::span<const Element> tuple) {
  CQCS_CHECK_MSG(tuple.size() == arity_,
                 "tuple of length " << tuple.size() << " added to relation of"
                                    << " arity " << arity_);
  data_.insert(data_.end(), tuple.begin(), tuple.end());
  index_valid_ = false;
  pos_index_valid_ = false;
}

void Relation::Add(std::initializer_list<Element> tuple) {
  Add(std::span<const Element>(tuple.begin(), tuple.size()));
}

bool Relation::TupleLess(size_t a, size_t b) const {
  const Element* pa = data_.data() + a * arity_;
  const Element* pb = data_.data() + b * arity_;
  return std::lexicographical_compare(pa, pa + arity_, pb, pb + arity_);
}

void Relation::EnsureIndex() const {
  if (index_valid_) return;
  index_.resize(tuple_count());
  for (uint32_t i = 0; i < index_.size(); ++i) index_[i] = i;
  std::sort(index_.begin(), index_.end(),
            [this](uint32_t a, uint32_t b) { return TupleLess(a, b); });
  // Sorted, equal tuples are adjacent.
  duplicate_free_ = true;
  for (size_t pos = 1; pos < index_.size() && duplicate_free_; ++pos) {
    duplicate_free_ = TupleLess(index_[pos - 1], index_[pos]);
  }
  index_valid_ = true;
}

bool Relation::Contains(std::span<const Element> t) const {
  if (t.size() != arity_) return false;
  EnsureIndex();
  auto less_than_key = [this, &t](uint32_t i) {
    const Element* p = data_.data() + static_cast<size_t>(i) * arity_;
    return std::lexicographical_compare(p, p + arity_, t.begin(), t.end());
  };
  // Manual lower_bound over the permutation.
  size_t lo = 0, hi = index_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (less_than_key(index_[mid])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == index_.size()) return false;
  const Element* p = data_.data() + static_cast<size_t>(index_[lo]) * arity_;
  return std::equal(p, p + arity_, t.begin());
}

void Relation::EnsurePositionIndex(Element num_values) const {
  if (pos_index_valid_ && pos_num_values_ == num_values) return;
  const size_t m = tuple_count();
  const size_t slots = static_cast<size_t>(arity_) * num_values;
  // Counting sort per (position, value) slot: count, prefix-sum, fill.
  pos_offsets_.assign(slots + 1, 0);
  for (size_t t = 0; t < m; ++t) {
    const Element* tup = data_.data() + t * arity_;
    for (uint32_t p = 0; p < arity_; ++p) {
      CQCS_CHECK_MSG(tup[p] < num_values,
                     "position index over " << num_values
                                            << " values, but tuple mentions "
                                            << tup[p]);
      ++pos_offsets_[static_cast<size_t>(p) * num_values + tup[p] + 1];
    }
  }
  for (size_t s = 0; s < slots; ++s) pos_offsets_[s + 1] += pos_offsets_[s];
  pos_ids_.resize(m * arity_);
  std::vector<uint32_t> cursor(pos_offsets_.begin(), pos_offsets_.end() - 1);
  for (size_t t = 0; t < m; ++t) {
    const Element* tup = data_.data() + t * arity_;
    for (uint32_t p = 0; p < arity_; ++p) {
      size_t slot = static_cast<size_t>(p) * num_values + tup[p];
      pos_ids_[cursor[slot]++] = static_cast<uint32_t>(t);
    }
  }
  pos_num_values_ = num_values;
  pos_index_valid_ = true;
}

std::span<const uint32_t> Relation::TuplesWith(uint32_t pos,
                                               Element value) const {
  CQCS_CHECK(pos_index_valid_ && pos < arity_);
  if (value >= pos_num_values_) return {};
  size_t slot = static_cast<size_t>(pos) * pos_num_values_ + value;
  return {pos_ids_.data() + pos_offsets_[slot],
          pos_offsets_[slot + 1] - pos_offsets_[slot]};
}

void Relation::Dedup() {
  EnsureIndex();
  std::vector<Element> compact;
  compact.reserve(data_.size());
  for (size_t pos = 0; pos < index_.size(); ++pos) {
    if (pos > 0) {
      const Element* prev =
          data_.data() + static_cast<size_t>(index_[pos - 1]) * arity_;
      const Element* cur =
          data_.data() + static_cast<size_t>(index_[pos]) * arity_;
      if (std::equal(prev, prev + arity_, cur)) continue;
    }
    const Element* cur =
        data_.data() + static_cast<size_t>(index_[pos]) * arity_;
    compact.insert(compact.end(), cur, cur + arity_);
  }
  data_ = std::move(compact);
  index_valid_ = false;
  pos_index_valid_ = false;
}

void Relation::Clear() {
  data_.clear();
  index_.clear();
  index_valid_ = false;
  pos_index_valid_ = false;
}

Element Relation::MaxElementPlusOne() const {
  Element m = 0;
  for (Element e : data_) m = std::max(m, static_cast<Element>(e + 1));
  return m;
}

bool Relation::operator==(const Relation& other) const {
  if (arity_ != other.arity_) return false;
  if (tuple_count() != other.tuple_count()) return false;
  EnsureIndex();
  other.EnsureIndex();
  for (size_t pos = 0; pos < index_.size(); ++pos) {
    const Element* a = data_.data() + static_cast<size_t>(index_[pos]) * arity_;
    const Element* b = other.data_.data() +
                       static_cast<size_t>(other.index_[pos]) * other.arity_;
    if (!std::equal(a, a + arity_, b)) return false;
  }
  return true;
}

}  // namespace cqcs
