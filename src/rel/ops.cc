#include "rel/ops.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/check.h"

namespace cqcs::rel {

namespace {

/// The semijoin's write, once every left row is probed: none after a
/// governor trip (including one from outside the pass: a cancel, another
/// charge) or when every row is kept, else a KeepRows.
size_t KeepMatched(Table& left, std::span<const uint32_t> keep,
                   ResourceGovernor* governor) {
  if (governor != nullptr && governor->tripped()) return 0;
  const size_t removed = left.row_count() - keep.size();
  if (removed > 0) left.KeepRows(keep);
  return removed;
}

}  // namespace

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
  return KeepMatched(left, keep, governor);
}

SemijoinScratch::SemijoinScratch(ResourceGovernor* governor)
    : governor_(governor) {
  index_.AttachGovernor(governor);
  present_.AttachGovernor(governor);
}

std::span<const uint64_t> SemijoinScratch::MarkPresent(const Table& right,
                                                       uint32_t col) {
  const auto rows = static_cast<uint32_t>(right.row_count());
  const size_t limit = HashIndex::DirectLimit(rows);
  const size_t words = (limit + 63) / 64;
  present_.Assign(words);
  uint64_t* const bits = present_.data();
  const size_t width = right.width();
  for (size_t r = 0; r < rows; ++r) {
    const Element v = right.data()[r * width + col];
    if (v >= limit) return {};
    bits[v >> 6] |= uint64_t{1} << (v & 63);
  }
  return {bits, words};
}

size_t SemijoinScratch::Run(Table& left,
                            std::span<const uint32_t> left_key_cols,
                            const Table& right,
                            std::span<const uint32_t> right_key_cols,
                            std::span<const uint64_t> right_presence) {
  CQCS_CHECK(left_key_cols.size() == right_key_cols.size());
  CQCS_CHECK(right_presence.empty() || right_key_cols.size() == 1);
  const size_t before = left.row_count();
  if (before == 0) return 0;
  std::span<const uint64_t> present = right_presence;
  if (present.empty() && right_key_cols.size() == 1) {
    present = MarkPresent(right, right_key_cols[0]);
  }
  if (present.empty()) {
    index_.Build(right.data(), right.width(),
                 static_cast<uint32_t>(right.row_count()), right_key_cols);
    return Semijoin(left, left_key_cols, right, index_, governor_);
  }
  // Branch-free gather of the kept row ids, polled once per 1024 rows.
  keep_.resize(before);
  uint32_t* const keep = keep_.data();
  const uint64_t* const bits = present.data();
  const Element* const cells = left.data() + left_key_cols[0];
  const size_t left_width = left.width();
  const size_t limit = present.size() * 64;
  size_t kept = 0;
  for (size_t begin = 0; begin < before; begin += 1024) {
    if (governor_ != nullptr && !governor_->Poll().ok()) {
      return 0;  // tripped: leave `left` untouched
    }
    const size_t end = std::min(before, begin + 1024);
    for (size_t r = begin; r < end; ++r) {
      const Element v = cells[r * left_width];
      keep[kept] = static_cast<uint32_t>(r);
      kept += v < limit && (bits[v >> 6] >> (v & 63) & 1) != 0;
    }
  }
  return KeepMatched(left, {keep, kept}, governor_);
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
  index.Build(table.data(), table.width(), rows, cols);
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
