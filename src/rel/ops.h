// Relational operators over rel::Table + rel::HashIndex: semijoin, hash
// join, and distinct projection. These are the three moves the polynomial
// backends are made of — Yannakakis' reduction is semijoins, its
// witness/count/enumerate phases walk index chains, and its projection
// phase is join + project-distinct. None of them allocates per row: keys
// are spans into the flat buffers, outputs are appended via AppendRowSlot,
// and the semijoin compacts its input in place.

#ifndef CQCS_REL_OPS_H_
#define CQCS_REL_OPS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/governor.h"
#include "rel/hash_index.h"
#include "rel/table.h"

namespace cqcs::rel {

// Each operator takes an optional ResourceGovernor polled on an input-row
// stride; on a trip the operator stops early without corrupting its
// output (Semijoin leaves `left` untouched, the append operators stop
// appending). Callers observe the sticky trip at their own next poll and
// discard the partial state — the operators themselves never fail.
//
// Semijoin and HashJoinAppend sweep the left table once on the calling
// thread, probing through a ProbeBatch.

/// left := left ⋉ right, in place: keeps the left rows whose key columns
/// (left_key_cols, values in the same order as the index's key_cols) have
/// at least one match in the indexed right table. Returns the number of
/// rows removed. `right_index` must be built over `right`'s buffer.
size_t Semijoin(Table& left, std::span<const uint32_t> left_key_cols,
                const Table& right, const HashIndex& right_index,
                ResourceGovernor* governor = nullptr);

/// Appends to `out` one row per join match: the left row's cells followed
/// by the matching right row's `right_extra_cols`. out->width() must equal
/// left.width() + right_extra_cols.size(). `right_index` is keyed on the
/// right-side join columns; `left_key_cols` supplies the probe key in the
/// same column order.
void HashJoinAppend(const Table& left, std::span<const uint32_t> left_key_cols,
                    const Table& right, const HashIndex& right_index,
                    std::span<const uint32_t> right_extra_cols, Table* out,
                    ResourceGovernor* governor = nullptr);

/// The ascending ids of the rows of `table` whose values in `cols` no
/// earlier row has: one index build keyed on `cols`, after which a key's
/// first row is the one that ends its chain. Partial after a governor
/// trip.
std::vector<uint32_t> FirstOccurrences(const Table& table,
                                       std::span<const uint32_t> cols,
                                       ResourceGovernor* governor = nullptr);

/// Appends the distinct projections of `src` onto `cols` to the empty
/// table `*out` (width must equal cols.size()), in first-occurrence order.
void ProjectDistinct(const Table& src, std::span<const uint32_t> cols,
                     Table* out, ResourceGovernor* governor = nullptr);

}  // namespace cqcs::rel

#endif  // CQCS_REL_OPS_H_
