#include "rel/ops.h"

#include <vector>

#include "common/check.h"

namespace cqcs::rel {

size_t Semijoin(Table& left, std::span<const uint32_t> left_key_cols,
                const Table& right, const HashIndex& right_index,
                ResourceGovernor* governor) {
  CQCS_CHECK(left_key_cols.size() == right_index.key_cols().size());
  const size_t before = left.row_count();
  if (before == 0) return 0;

  // A batch answers in append order, so the kept rows come out ascending.
  std::vector<uint32_t> keep;
  keep.reserve(before);
  ProbeBatch batch;
  batch.Reset(static_cast<uint32_t>(left_key_cols.size()));
  auto flush = [&] {
    right_index.FindFirstBatch(right.data(), &batch);
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch.result(i) != HashIndex::kNone) keep.push_back(batch.tag(i));
    }
    batch.Clear();
  };
  for (size_t r = 0; r < before; ++r) {
    if (governor != nullptr && (r & 1023) == 0 && !governor->Poll().ok()) {
      return 0;  // tripped: leave `left` untouched
    }
    std::span<const Element> row = left.row(r);
    Element* key = batch.Append(static_cast<uint32_t>(r));
    for (size_t i = 0; i < left_key_cols.size(); ++i) {
      key[i] = row[left_key_cols[i]];
    }
    if (batch.full()) flush();
  }
  flush();
  // A trip from outside the pass (a cancel, another charge) also counts.
  if (governor != nullptr && governor->tripped()) return 0;
  left.KeepRows(keep);
  return before - left.row_count();
}

void HashJoinAppend(const Table& left, std::span<const uint32_t> left_key_cols,
                    const Table& right, const HashIndex& right_index,
                    std::span<const uint32_t> right_extra_cols, Table* out,
                    ResourceGovernor* governor) {
  CQCS_CHECK(out->width() == left.width() + right_extra_cols.size());
  CQCS_CHECK(left_key_cols.size() == right_index.key_cols().size());
  const size_t rows = left.row_count();
  if (rows == 0) return;

  ProbeBatch batch;
  batch.Reset(static_cast<uint32_t>(left_key_cols.size()));
  // Poll on the *output* cadence as well as the input one: a single probe
  // key can fan out into an unbounded match chain, and the output rows are
  // what eat memory.
  uint64_t tick = 0;
  bool ok = true;
  auto flush = [&] {
    right_index.FindFirstBatch(right.data(), &batch);
    for (size_t i = 0; i < batch.size() && ok; ++i) {
      const uint32_t r = batch.tag(i);
      for (uint32_t m = batch.result(i); m != HashIndex::kNone;
           m = right_index.Next(m)) {
        if (governor != nullptr && (++tick & 1023) == 0 &&
            !governor->Poll().ok()) {
          ok = false;
          break;
        }
        Element* cells = out->AppendRowSlot();
        std::span<const Element> l = left.row(r);
        std::span<const Element> rr = right.row(m);
        for (size_t c = 0; c < l.size(); ++c) cells[c] = l[c];
        for (size_t c = 0; c < right_extra_cols.size(); ++c) {
          cells[l.size() + c] = rr[right_extra_cols[c]];
        }
      }
    }
    batch.Clear();
  };
  for (size_t r = 0; r < rows && ok; ++r) {
    if (governor != nullptr && (++tick & 1023) == 0 &&
        !governor->Poll().ok()) {
      return;
    }
    std::span<const Element> lrow = left.row(r);
    Element* key = batch.Append(static_cast<uint32_t>(r));
    for (size_t i = 0; i < left_key_cols.size(); ++i) {
      key[i] = lrow[left_key_cols[i]];
    }
    if (batch.full()) flush();
  }
  if (ok) flush();
}

std::vector<uint32_t> FirstOccurrences(const Table& table,
                                       std::span<const uint32_t> cols,
                                       ResourceGovernor* governor) {
  const auto rows = static_cast<uint32_t>(table.row_count());
  HashIndex index;
  index.AttachGovernor(governor);
  index.Build(table.data(), table.width(), rows, {cols.begin(), cols.end()});
  std::vector<uint32_t> first;
  for (uint32_t r = 0; r < rows; ++r) {
    if (governor != nullptr && (r & 1023) == 1023 &&
        !governor->Poll().ok()) {
      break;
    }
    if (index.Next(r) == HashIndex::kNone) first.push_back(r);
  }
  return first;
}

void ProjectDistinct(const Table& src, std::span<const uint32_t> cols,
                     Table* out, ResourceGovernor* governor) {
  CQCS_CHECK(out->width() == cols.size());
  CQCS_CHECK(out->row_count() == 0);
  const std::vector<uint32_t> first = FirstOccurrences(src, cols, governor);
  out->Reserve(first.size());
  // cqcs-lint: allow(unpolled-loop): one copy per row FirstOccurrences polled over
  for (uint32_t r : first) {
    std::span<const Element> row = src.row(r);
    Element* cell = out->AppendRowSlot();
    for (size_t i = 0; i < cols.size(); ++i) cell[i] = row[cols[i]];
  }
}

}  // namespace cqcs::rel
