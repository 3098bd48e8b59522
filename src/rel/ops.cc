#include "rel/ops.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace cqcs::rel {

namespace {

/// Workers actually dispatched for `parallel` (MorselPool caps the rest).
unsigned EffectiveWorkers(const OpParallel& parallel) {
  const unsigned w = parallel.num_threads == 0 ? 1 : parallel.num_threads;
  return std::min(w, MorselPool::kMaxThreads);
}

size_t EffectiveMorselRows(const OpParallel& parallel) {
  return parallel.morsel_rows == 0 ? MorselPool::kDefaultMorselRows
                                   : parallel.morsel_rows;
}

}  // namespace

size_t Semijoin(Table& left, std::span<const uint32_t> left_key_cols,
                const Table& right, const HashIndex& right_index,
                ResourceGovernor* governor, const OpParallel& parallel) {
  CQCS_CHECK(left_key_cols.size() == right_index.key_cols().size());
  const size_t before = left.row_count();
  if (before == 0) return 0;
  const unsigned workers = EffectiveWorkers(parallel);

  // Matches are recorded as flags, not appended: each worker owns the
  // flags of its morsel's rows, so writes are disjoint, and the final
  // ascending flag scan reproduces the sequential keep order exactly —
  // byte-identical compaction at every thread count.
  std::vector<uint8_t> keep_flags(before, 0);

  // Each body invocation (one morsel) owns its batch: per-worker batch
  // arrays would cost `workers` allocations per call even when the range
  // runs inline, and semijoins are called tens of thousands of times per
  // reduction pass.
  auto body = [&](unsigned, size_t begin, size_t end) {
    ProbeBatch batch;
    batch.Reset(static_cast<uint32_t>(left_key_cols.size()));
    auto flush = [&] {
      right_index.FindFirstBatch(right.data(), &batch);
      for (size_t i = 0; i < batch.size(); ++i) {
        keep_flags[batch.tag(i)] =
            batch.result(i) != HashIndex::kNone ? 1 : 0;
      }
      batch.Clear();
    };
    for (size_t r = begin; r < end; ++r) {
      if (governor != nullptr && ((r - begin) & 1023) == 0 &&
          !governor->Poll().ok()) {
        return false;  // tripped: abandon the pass, caller leaves `left` be
      }
      std::span<const Element> row = left.row(r);
      Element* key = batch.Append(static_cast<uint32_t>(r));
      for (size_t i = 0; i < left_key_cols.size(); ++i) {
        key[i] = row[left_key_cols[i]];
      }
      if (batch.full()) flush();
    }
    flush();
    return true;
  };
  const MorselCounters run = MorselPool::Shared().Run(
      before, workers, EffectiveMorselRows(parallel), body);
  if (parallel.counters != nullptr) parallel.counters->MergeFrom(run);

  if (governor != nullptr && governor->tripped()) {
    return 0;  // tripped: leave `left` untouched
  }
  std::vector<uint32_t> keep;
  keep.reserve(before);
  for (uint32_t r = 0; r < before; ++r) {
    if (keep_flags[r]) keep.push_back(r);
  }
  left.KeepRows(keep);
  return before - left.row_count();
}

void HashJoinAppend(const Table& left, std::span<const uint32_t> left_key_cols,
                    const Table& right, const HashIndex& right_index,
                    std::span<const uint32_t> right_extra_cols, Table* out,
                    ResourceGovernor* governor, const OpParallel& parallel) {
  CQCS_CHECK(out->width() == left.width() + right_extra_cols.size());
  CQCS_CHECK(left_key_cols.size() == right_index.key_cols().size());
  const size_t rows = left.row_count();
  if (rows == 0) return;
  const unsigned workers = EffectiveWorkers(parallel);
  const size_t morsel_rows = EffectiveMorselRows(parallel);

  // Parallel runs append into one shard table per *morsel* (not per
  // worker): morsel m covers left rows [m*morsel_rows, ...), so
  // concatenating shards in morsel order is the sequential output,
  // whichever worker produced each one. Runs the pool executes inline
  // (one worker, or a range that fits one morsel — the same condition
  // MorselPool::Run uses) skip the shards and append straight into
  // `out`, avoiding a full extra copy of the join output.
  const bool sharded = workers > 1 && rows > morsel_rows;
  std::vector<Table> shards;
  if (sharded) {
    shards.resize((rows + morsel_rows - 1) / morsel_rows);
    for (Table& shard : shards) {
      shard = Table(out->width());
      shard.AttachGovernor(governor);
    }
  }
  auto body = [&](unsigned, size_t begin, size_t end) {
    Table* target = sharded ? &shards[begin / morsel_rows] : out;
    ProbeBatch batch;
    batch.Reset(static_cast<uint32_t>(left_key_cols.size()));
    // Poll on the *output* cadence as well as the input one: a single
    // probe key can fan out into an unbounded match chain, and the output
    // rows are what eat memory.
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
          Element* cells = target->AppendRowSlot();
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
    for (size_t r = begin; r < end && ok; ++r) {
      if (governor != nullptr && (++tick & 1023) == 0 &&
          !governor->Poll().ok()) {
        return false;
      }
      std::span<const Element> lrow = left.row(r);
      Element* key = batch.Append(static_cast<uint32_t>(r));
      for (size_t i = 0; i < left_key_cols.size(); ++i) {
        key[i] = lrow[left_key_cols[i]];
      }
      if (batch.full()) flush();
    }
    if (ok) flush();
    return ok;
  };
  const MorselCounters run = MorselPool::Shared().Run(
      rows, workers, morsel_rows, body);
  if (parallel.counters != nullptr) parallel.counters->MergeFrom(run);

  if (!sharded) return;
  if (governor != nullptr && governor->tripped()) return;  // discard shards
  uint64_t tick = 0;
  for (const Table& shard : shards) {
    for (uint32_t r = 0; r < shard.row_count(); ++r) {
      if (governor != nullptr && (++tick & 1023) == 0 &&
          !governor->Poll().ok()) {
        return;
      }
      out->AppendRow(shard.row(r));
    }
  }
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
