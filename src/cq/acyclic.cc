#include "cq/acyclic.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/governor.h"
#include "common/saturating.h"
#include "common/work_pool.h"
#include "cq/gyo.h"
#include "rel/hash_index.h"
#include "rel/ops.h"
#include "rel/table.h"
#include "treewidth/hom_dp.h"

namespace cqcs {

using rel::HashIndex;
using rel::Table;

YannakakisProgram::YannakakisProgram(YannakakisStats* stats,
                                     ResourceGovernor* governor,
                                     unsigned num_threads)
    : stats_(stats),
      gov_(governor),
      threads_(ResolveThreadCount(num_threads)) {}

YannakakisProgram::~YannakakisProgram() {
  if (stats_ != nullptr) {
    stats_->workers = threads_;
    stats_->morsels += mc_.morsels;
    stats_->steals += mc_.steals;
  }
  if (tw_stats_ != nullptr) {
    tw_stats_->workers = threads_;
    tw_stats_->morsels += mc_.morsels;
    tw_stats_->steals += mc_.steals;
  }
}

Status YannakakisProgram::PollTick() {
  if (gov_ != nullptr && (++tick_ & 1023) == 0) return gov_->Poll();
  return Status::OK();
}

Status YannakakisProgram::TripStatus() const {
  return gov_ != nullptr ? gov_->TripStatus() : Status::OK();
}

void YannakakisProgram::BumpTable(size_t rows) {
  if (stats_ != nullptr && rows > stats_->max_table_rows) {
    stats_->max_table_rows = rows;
  }
}

Status YannakakisProgram::FromAtoms(const ConjunctiveQuery& q,
                                    const Structure& d, Passes passes) {
  if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->Poll());
  CQCS_RETURN_IF_ERROR(q.Validate());
  if (!q.vocabulary()->Equals(*d.vocabulary())) {
    return Status::InvalidArgument("query/database vocabulary mismatch");
  }
  auto forest = GyoJoinForest(q.var_count(), QueryHyperedges(q));
  if (!forest.has_value()) {
    return Status::InvalidArgument("the query's hypergraph is cyclic");
  }
  var_count_ = q.var_count();
  universe_ = d.universe_size();
  m_ = q.atoms().size();
  vars_.resize(m_);
  tables_.resize(m_);
  CQCS_RETURN_IF_ERROR(MaterializeAll(q, d));
  return Run(std::move(forest->parent), passes);
}

Status YannakakisProgram::Run(std::vector<uint32_t> parent, Passes passes) {
  parent_ = std::move(parent);
  m_ = tables_.size();
  satisfiable_ = true;

  // Variables outside every node range freely; find them once.
  std::vector<uint8_t> in_node(var_count_, 0);
  // cqcs-lint: allow(unpolled-loop): bounded by forest shape (nodes * vars-per-node), not data
  for (const std::vector<VarId>& vars : vars_) {
    for (VarId v : vars) in_node[v] = 1;
  }
  for (VarId v = 0; v < var_count_; ++v) {
    if (!in_node[v]) isolated_.push_back(v);
  }

  // Emptiness is decided after every table is loaded, in node order: the
  // same tables (and the same stats) exist at every thread count, and
  // satisfiable_ flips on the same first-empty node.
  for (size_t i = 0; i < m_; ++i) {
    if (tables_[i].empty()) {
      satisfiable_ = false;
      return TripStatus();
    }
  }

  // Forest shape: children lists, roots, topological order (children
  // first — every node's subtree is fully processed before its parent).
  children_.resize(m_);
  std::vector<uint32_t> pending_children(m_, 0);
  for (uint32_t i = 0; i < m_; ++i) {
    if (parent_[i] == JoinTree::kNoParent) {
      roots_.push_back(i);
    } else {
      children_[parent_[i]].push_back(i);
      ++pending_children[parent_[i]];
    }
  }
  order_.reserve(m_);
  std::vector<uint32_t> stack;
  for (uint32_t i = 0; i < m_; ++i) {
    if (pending_children[i] == 0) stack.push_back(i);
  }
  while (!stack.empty()) {
    uint32_t node = stack.back();
    stack.pop_back();
    order_.push_back(node);
    uint32_t p = parent_[node];
    if (p != JoinTree::kNoParent && --pending_children[p] == 0) {
      stack.push_back(p);
    }
  }
  CQCS_CHECK(order_.size() == m_);

  // Shared-with-parent variables and their column positions.
  shared_vars_.resize(m_);
  shared_child_cols_.resize(m_);
  shared_parent_cols_.resize(m_);
  // cqcs-lint: allow(unpolled-loop): bounded by forest shape (nodes * vars-per-node), not data
  for (uint32_t node = 0; node < m_; ++node) {
    uint32_t p = parent_[node];
    if (p == JoinTree::kNoParent) continue;
    const auto& cv = vars_[node];
    const auto& pv = vars_[p];
    for (size_t i = 0; i < cv.size(); ++i) {
      auto it = std::lower_bound(pv.begin(), pv.end(), cv[i]);
      if (it != pv.end() && *it == cv[i]) {
        shared_vars_[node].push_back(cv[i]);
        shared_child_cols_[node].push_back(static_cast<uint32_t>(i));
        shared_parent_cols_[node].push_back(
            static_cast<uint32_t>(it - pv.begin()));
      }
    }
  }

  // The walk's match indexes are the ones the bottom-up pass builds.
  if (passes == Passes::kCount || passes == Passes::kWalk) {
    match_index_.resize(m_);
  }
  if (passes != Passes::kCount) CQCS_RETURN_IF_ERROR(Reduce(passes));
  if (!satisfiable_ || passes == Passes::kDecide) return TripStatus();

  // Match indexes for the count pass over the unreduced tables. Builds are
  // independent per node (disjoint match_index_ slots), so they run as
  // node-range morsels on the shared pool.
  if (passes == Passes::kCount) {
    auto body = [&](unsigned, size_t begin, size_t end) {
      for (size_t node = begin; node < end; ++node) {
        if (parent_[node] == JoinTree::kNoParent) continue;
        if (gov_ != nullptr && !gov_->Poll().ok()) return false;
        match_index_[node].AttachGovernor(gov_);
        match_index_[node].Build(
            tables_[node].data(), tables_[node].width(),
            static_cast<uint32_t>(tables_[node].row_count()),
            shared_child_cols_[node]);
      }
      return true;
    };
    mc_.MergeFrom(MorselPool::Shared().Run(m_, threads_, 64, body));
    CQCS_RETURN_IF_ERROR(TripStatus());
  }

  // Forest pre-order for the enumeration walk (parents before children).
  if (passes == Passes::kWalk) {
    seq_.reserve(m_);
    for (size_t i = order_.size(); i-- > 0;) seq_.push_back(order_[i]);
  }
  return TripStatus();
}

Status YannakakisProgram::Reduce(Passes passes) {
  // Bottom-up pass: parent := parent ⋉ child, children first, so every
  // table is final for its own parent's filtering. Governed runs poll
  // once per semijoin — each is one bounded table sweep. The walk has no
  // top-down pass, so a child's index here is its final match index: kWalk
  // keeps it in match_index_; the other passes reuse one scratch index.
  HashIndex scratch;
  scratch.AttachGovernor(gov_);
  for (uint32_t node : order_) {
    uint32_t p = parent_[node];
    if (p == JoinTree::kNoParent) continue;
    if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->Poll());
    HashIndex& index =
        passes == Passes::kWalk ? match_index_[node] : scratch;
    index.AttachGovernor(gov_);
    index.Build(tables_[node].data(), tables_[node].width(),
                static_cast<uint32_t>(tables_[node].row_count()),
                shared_child_cols_[node]);
    size_t removed =
        rel::Semijoin(tables_[p], shared_parent_cols_[node], tables_[node],
                      index, gov_, Par());
    if (stats_ != nullptr) {
      ++stats_->semijoins;
      stats_->rows_pruned += removed;
    }
    if (tables_[p].empty()) {
      satisfiable_ = false;
      return Status::OK();
    }
  }
  // A trip inside the last semijoin leaves its table untouched rather than
  // reduced — catch it here so satisfiable() is never read off a
  // half-reduced program.
  CQCS_RETURN_IF_ERROR(TripStatus());
  if (passes != Passes::kProject) return Status::OK();

  // Top-down pass: child := child ⋉ parent, parents first. A parent row
  // always keeps at least one match in each child (the match that let it
  // survive the bottom-up pass also survives here), so no table empties.
  for (size_t i = order_.size(); i-- > 0;) {
    uint32_t node = order_[i];
    for (uint32_t child : children_[node]) {
      if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->Poll());
      scratch.Build(tables_[node].data(), tables_[node].width(),
                  static_cast<uint32_t>(tables_[node].row_count()),
                  shared_parent_cols_[child]);
      size_t removed = rel::Semijoin(tables_[child],
                                     shared_child_cols_[child],
                                     tables_[node], scratch, gov_, Par());
      if (stats_ != nullptr) {
        ++stats_->semijoins;
        stats_->rows_pruned += removed;
      }
      CQCS_RETURN_IF_ERROR(TripStatus());
      CQCS_CHECK(!tables_[child].empty());
    }
  }
  return Status::OK();
}

Status YannakakisProgram::MaterializeAll(const ConjunctiveQuery& q,
                                         const Structure& d) {
  // Pass 1 (sequential, query-shaped): column layouts and memo grouping.
  // col_of_arg determines the initial table completely (it encodes both
  // the column layout and the repeated-variable equalities), so atoms
  // sharing a (relation, map) key form one materialization group —
  // canonical queries repeat one pattern per relation across thousands of
  // atoms.
  std::vector<std::vector<uint32_t>> col_of_arg(m_);
  std::vector<size_t> rep(m_);      // group representative per atom
  std::vector<size_t> group_reps;   // distinct representatives
  // Two atoms with the same relation and the same position→column map
  // start from identical tables; materialize once, copy after.
  std::map<std::pair<RelId, std::vector<uint32_t>>, size_t> memo;
  // cqcs-lint: allow(unpolled-loop): bounded by query shape (atoms * arity), not data
  for (size_t i = 0; i < m_; ++i) {
    const Atom& atom = q.atoms()[i];
    std::vector<VarId>& vars = vars_[i];
    vars.assign(atom.args.begin(), atom.args.end());
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    col_of_arg[i].resize(atom.args.size());
    for (size_t p = 0; p < atom.args.size(); ++p) {
      col_of_arg[i][p] = static_cast<uint32_t>(
          std::lower_bound(vars.begin(), vars.end(), atom.args[p]) -
          vars.begin());
    }
    auto [it, inserted] = memo.emplace(
        std::make_pair(atom.rel, col_of_arg[i]), i);
    rep[i] = it->second;
    if (inserted) group_reps.push_back(i);
  }

  // Pass 2: materialize the distinct groups. Groups are independent
  // (disjoint tables_ slots, atomic governor accounting), so each runs as
  // a one-group morsel on the shared pool; a governor trip in one cancels
  // the unclaimed rest.
  std::vector<Status> group_status(group_reps.size(), Status::OK());
  auto body = [&](unsigned, size_t begin, size_t end) {
    bool ok = true;
    for (size_t g = begin; g < end; ++g) {
      Status s =
          MaterializeGroup(q, d, group_reps[g], col_of_arg[group_reps[g]]);
      if (!s.ok()) {
        group_status[g] = std::move(s);
        ok = false;
      }
    }
    return ok;
  };
  mc_.MergeFrom(
      MorselPool::Shared().Run(group_reps.size(), threads_, 1, body));
  for (const Status& s : group_status) {
    if (!s.ok()) return s;
  }

  // Pass 3 (sequential, atom order): copy memo hits, accumulate stats.
  for (size_t i = 0; i < m_; ++i) {
    if (rep[i] != i) tables_[i] = tables_[rep[i]];  // re-charges via copy
    if (stats_ != nullptr) {
      ++stats_->atom_tables;
      stats_->rows_materialized += tables_[i].row_count();
    }
    BumpTable(tables_[i].row_count());
  }
  return Status::OK();
}

Status YannakakisProgram::MaterializeGroup(
    const ConjunctiveQuery& q, const Structure& d, size_t i,
    const std::vector<uint32_t>& col_of_arg) {
  const Atom& atom = q.atoms()[i];
  const uint32_t width = static_cast<uint32_t>(vars_[i].size());
  tables_[i] = Table(width);
  Table& table = tables_[i];
  table.AttachGovernor(gov_);
  const Relation& rel = d.relation(atom.rel);
  // Without repeated variables every tuple lands: size the buffer once.
  if (width == atom.args.size()) table.Reserve(rel.tuple_count());

  uint64_t tick = 0;  // local stride: groups poll concurrently
  for (uint32_t t = 0; t < rel.tuple_count(); ++t) {
    if (gov_ != nullptr && (++tick & 1023) == 0) {
      CQCS_RETURN_IF_ERROR(gov_->Poll());
    }
    std::span<const Element> tup = rel.tuple(t);
    // Repeated variables must see equal values.
    bool ok = true;
    for (size_t p = 0; p < tup.size() && ok; ++p) {
      for (size_t r = p + 1; r < tup.size() && ok; ++r) {
        if (atom.args[p] == atom.args[r] && tup[p] != tup[r]) ok = false;
      }
    }
    if (!ok) continue;
    Element* row = table.AppendRowSlot();
    for (size_t p = 0; p < tup.size(); ++p) row[col_of_arg[p]] = tup[p];
  }

  // Bulk dedup: keep each row's first occurrence, in order.
  std::vector<uint32_t> all_cols(width);
  for (uint32_t c = 0; c < width; ++c) all_cols[c] = c;
  table.KeepRows(rel::FirstOccurrences(table, all_cols, gov_));
  return TripStatus();
}

uint32_t YannakakisProgram::FirstRow(size_t depth) {
  const uint32_t node = seq_[depth];
  if (parent_[node] == JoinTree::kNoParent) {
    return tables_[node].empty() ? HashIndex::kNone : 0;
  }
  // The parent's values are already in assign_ (parents precede children
  // in seq_); probe the match index with them.
  key_scratch_.clear();
  for (VarId v : shared_vars_[node]) key_scratch_.push_back(assign_[v]);
  return match_index_[node].FindFirst(tables_[node].data(), key_scratch_);
}

uint32_t YannakakisProgram::NextRow(size_t depth, uint32_t r) const {
  const uint32_t node = seq_[depth];
  if (parent_[node] == JoinTree::kNoParent) {
    return r + 1 < tables_[node].row_count() ? r + 1 : HashIndex::kNone;
  }
  return match_index_[node].Next(r);
}

void YannakakisProgram::WriteRow(size_t depth, uint32_t r) {
  const uint32_t node = seq_[depth];
  std::span<const Element> row = tables_[node].row(r);
  const auto& vars = vars_[node];
  for (size_t i = 0; i < vars.size(); ++i) assign_[vars[i]] = row[i];
}

bool YannakakisProgram::EmitAssignment(
    size_t max_results, std::vector<std::vector<Element>>* out) {
  // All tree variables fixed; expand the isolated ones (every value
  // works) with an odometer over the universe.
  const size_t n = universe_;
  for (VarId v : isolated_) assign_[v] = 0;
  while (true) {
    // A governor trip aborts the walk; the caller turns it into a
    // kResourceExhausted status via the sticky trip state.
    if (!PollTick().ok()) return false;
    out->push_back(assign_);
    if (out->size() >= max_results) return false;
    size_t k = 0;
    while (k < isolated_.size() &&
           ++assign_[isolated_[k]] == static_cast<Element>(n)) {
      assign_[isolated_[k]] = 0;
      ++k;
    }
    if (k == isolated_.size()) return true;
  }
}

Status YannakakisProgram::Enumerate(size_t max_results,
                                    std::vector<std::vector<Element>>* out) {
  CQCS_CHECK(satisfiable_);
  // Every return path reports a governor trip, including the ones where
  // EmitAssignment aborted the walk from inside.
  if (max_results == 0) return TripStatus();
  if (universe_ == 0 && var_count_ > 0) return TripStatus();
  assign_.assign(var_count_, 0);
  const size_t depth_total = seq_.size();
  if (depth_total == 0) {
    EmitAssignment(max_results, out);
    return TripStatus();
  }
  // Explicit-stack pre-order walk over seq_: cur[d] is the current row of
  // seq_[d]'s table; the match chain makes that one uint32 the entire
  // per-depth state, so arbitrarily deep forests cost heap, not stack.
  // Backtracking to depth d never re-probes: NextRow follows the chain,
  // and the ancestors' assign_ values it was keyed on are untouched.
  std::vector<uint32_t> cur(depth_total);
  size_t d = 0;
  bool descending = true;
  while (true) {
    CQCS_RETURN_IF_ERROR(PollTick());
    cur[d] = descending ? FirstRow(d) : NextRow(d, cur[d]);
    if (cur[d] == HashIndex::kNone) {
      if (d == 0) return TripStatus();
      --d;
      descending = false;
      continue;
    }
    WriteRow(d, cur[d]);
    if (d + 1 == depth_total) {
      if (!EmitAssignment(max_results, out)) return TripStatus();
      descending = false;  // advance this depth's chain
    } else {
      ++d;
      descending = true;
    }
  }
}

Result<size_t> YannakakisProgram::Count(size_t limit) {
  CQCS_CHECK(satisfiable_);
  if (limit == 0) return size_t{0};
  // One bottom-up sum-product pass over the unreduced tables: cnt[node][r]
  // = min(#assignments of node's subtree variables extending row r, limit).
  // A row whose subtree has no match sums to 0 — exactly what the semijoin
  // passes would have pruned — and saturation is exact in any order, since
  // min(a·b, L) = min(min(a,L)·min(b,L), L) and likewise for sums.
  //
  // Per child, an ascending fold turns cnt[child] into per-key suffix sums
  // along the match chains: Insert prepends, so Next(s) < s, and each
  // chain head ends up holding its whole key's sum. A parent row then
  // costs one FindFirst. The (node, child) order and the fold are data
  // dependencies; the per-parent-row loop is not — each row r writes only
  // cnt[node][r] — so it splits into row morsels and the parallel result
  // is bitwise the sequential one.
  std::vector<std::vector<size_t>> cnt(m_);
  for (uint32_t node : order_) {
    const Table& table = tables_[node];
    cnt[node].assign(table.row_count(), 1);
    for (uint32_t child : children_[node]) {
      const Table& ct = tables_[child];
      const HashIndex& index = match_index_[child];
      std::vector<size_t>& agg = cnt[child];
      for (uint32_t s = 0; s < agg.size(); ++s) {
        CQCS_RETURN_IF_ERROR(PollTick());
        const uint32_t next = index.Next(s);
        if (next != HashIndex::kNone) {
          agg[s] = SatAdd(agg[s], agg[next], limit);
        }
      }
      auto body = [&](unsigned, size_t begin, size_t end) {
        std::vector<Element> key;
        for (size_t r = begin; r < end; ++r) {
          if (gov_ != nullptr && ((r - begin) & 1023) == 0 &&
              !gov_->Poll().ok()) {
            return false;
          }
          std::span<const Element> row = table.row(r);
          key.clear();
          for (uint32_t c : shared_parent_cols_[child]) key.push_back(row[c]);
          const uint32_t head = index.FindFirst(ct.data(), key);
          cnt[node][r] = head == HashIndex::kNone
                             ? 0
                             : SatMul(cnt[node][r], agg[head], limit);
        }
        return true;
      };
      mc_.MergeFrom(
          MorselPool::Shared().Run(table.row_count(), threads_, 0, body));
      CQCS_RETURN_IF_ERROR(TripStatus());
      agg = std::vector<size_t>();  // read by this parent only
    }
  }
  size_t total = 1;
  // cqcs-lint: allow(unpolled-loop): one flat sum per root table row; the materialization that sized cnt was charged
  for (uint32_t root : roots_) {
    size_t tree_total = 0;
    for (size_t c : cnt[root]) tree_total = SatAdd(tree_total, c, limit);
    total = SatMul(total, tree_total, limit);
  }
  for (size_t k = 0; k < isolated_.size(); ++k) {
    total = SatMul(total, universe_, limit);
  }
  CQCS_RETURN_IF_ERROR(TripStatus());
  return total;
}

Status YannakakisProgram::ProjectReduce(
    std::span<const VarId> proj, std::vector<Table>* r_table,
    std::vector<std::vector<VarId>>* r_cols) {
  std::vector<uint8_t> in_proj(var_count_, 0);
  for (VarId v : proj) in_proj[v] = 1;

  // Bottom-up join-project: R[node] holds the distinct projections of
  // node's subtree joins onto (projection vars of the subtree) ∪
  // (connector vars to the parent). Intermediates never hold a column
  // that neither the output nor a later join needs, which is what keeps
  // them output-bounded. The joins morsel-parallelize inside
  // HashJoinAppend; the per-node dedup stays sequential (first-occurrence
  // order defines it).
  HashIndex index;
  index.AttachGovernor(gov_);
  for (uint32_t node : order_) {
    // `cur` reads the node's own table until the first join replaces it.
    Table joined;
    const Table* cur = &tables_[node];
    std::vector<VarId> cur_cols = vars_[node];
    for (uint32_t child : children_[node]) {
      if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->Poll());
      // Join on the connector variables; pull in the child's accumulated
      // projection columns. A projection variable below the child that
      // also occurs above it must occur in the child's bag too (running
      // intersection), so the extras are always fresh columns.
      const std::vector<VarId>& shared = shared_vars_[child];
      const std::vector<VarId>& child_cols = (*r_cols)[child];
      std::vector<uint32_t> extras;
      std::vector<VarId> extra_vars;
      for (size_t i = 0; i < child_cols.size(); ++i) {
        VarId v = child_cols[i];
        if (std::find(shared.begin(), shared.end(), v) != shared.end()) {
          continue;
        }
        extras.push_back(static_cast<uint32_t>(i));
        extra_vars.push_back(v);
      }
      // Identity join: a child adding no columns would hold exactly the
      // distinct connector values of its reduced subtree, and after the
      // full reduction every row of `cur` has its connector value there —
      // one match per row, in row order — so the join would reproduce
      // `cur`. (That child's R is therefore never built; see below.)
      if (!extras.empty()) {
        std::vector<uint32_t> left_key, right_key;
        for (VarId v : shared) {
          left_key.push_back(static_cast<uint32_t>(
              std::find(cur_cols.begin(), cur_cols.end(), v) -
              cur_cols.begin()));
          right_key.push_back(static_cast<uint32_t>(
              std::find(child_cols.begin(), child_cols.end(), v) -
              child_cols.begin()));
        }
        index.Build((*r_table)[child].data(), (*r_table)[child].width(),
                    static_cast<uint32_t>((*r_table)[child].row_count()),
                    std::move(right_key));
        Table next(static_cast<uint32_t>(cur->width() + extras.size()));
        next.AttachGovernor(gov_);
        rel::HashJoinAppend(*cur, left_key, (*r_table)[child], index, extras,
                            &next, gov_, Par());
        joined = std::move(next);
        cur = &joined;
        cur_cols.insert(cur_cols.end(), extra_vars.begin(), extra_vars.end());
      }
      if (stats_ != nullptr) stats_->join_rows += cur->row_count();
      BumpTable(cur->row_count());
    }
    // Keep projection columns plus the connector to the parent.
    std::vector<uint32_t> keep_cols;
    std::vector<VarId> keep_vars;
    for (size_t i = 0; i < cur_cols.size(); ++i) {
      VarId v = cur_cols[i];
      bool keep = in_proj[v];
      if (!keep && parent_[node] != JoinTree::kNoParent) {
        const std::vector<VarId>& shared = shared_vars_[node];
        keep = std::find(shared.begin(), shared.end(), v) != shared.end();
      }
      if (keep) {
        keep_cols.push_back(static_cast<uint32_t>(i));
        keep_vars.push_back(v);
      }
    }
    // A non-root node keeping only its connector adds no columns, so its
    // parent's join with it is an identity that never reads R[node]: the
    // projection is dead. Skipping it leaves max_table_rows as it was:
    // R[node] never has more rows than `cur`, and `cur` never more than a
    // table already counted (its join, or its atom table as materialized).
    const bool connector_only = parent_[node] != JoinTree::kNoParent &&
                                keep_vars.size() == shared_vars_[node].size();
    (*r_cols)[node] = std::move(keep_vars);
    if (connector_only) continue;
    (*r_table)[node] = Table(static_cast<uint32_t>(keep_cols.size()));
    (*r_table)[node].AttachGovernor(gov_);
    rel::ProjectDistinct(*cur, keep_cols, &(*r_table)[node], gov_);
    BumpTable((*r_table)[node].row_count());
    if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->TripStatus());
  }
  return Status::OK();
}

Result<std::vector<std::vector<Element>>> YannakakisProgram::Project(
    std::span<const VarId> proj, size_t max_results) {
  CQCS_CHECK(satisfiable_);
  std::vector<std::vector<Element>> results;
  if (max_results == 0) return results;
  if (universe_ == 0 && var_count_ > 0) return results;

  std::vector<uint8_t> in_proj(var_count_, 0);
  for (VarId v : proj) in_proj[v] = 1;

  std::vector<Table> r_table(m_);
  std::vector<std::vector<VarId>> r_cols(m_);
  CQCS_RETURN_IF_ERROR(ProjectReduce(proj, &r_table, &r_cols));

  // Assemble output rows: a cross product over the per-tree results and
  // the isolated projection variables (each tree's rows are distinct on
  // projection variables only, so every combination is a distinct row).
  std::vector<VarId> iso_proj;
  for (VarId v : isolated_) {
    if (in_proj[v]) iso_proj.push_back(v);
  }
  std::vector<Element> value_of(var_count_, 0);
  std::vector<size_t> root_row(roots_.size(), 0);
  std::vector<Element> iso_val(iso_proj.size(), 0);
  std::vector<Element> out_row(proj.size());
  while (true) {
    CQCS_RETURN_IF_ERROR(PollTick());
    for (size_t t = 0; t < roots_.size(); ++t) {
      const Table& rt = r_table[roots_[t]];
      std::span<const Element> row = rt.row(root_row[t]);
      const auto& cols = r_cols[roots_[t]];
      for (size_t i = 0; i < cols.size(); ++i) value_of[cols[i]] = row[i];
    }
    for (size_t i = 0; i < iso_proj.size(); ++i) {
      value_of[iso_proj[i]] = iso_val[i];
    }
    for (size_t i = 0; i < proj.size(); ++i) out_row[i] = value_of[proj[i]];
    results.push_back(out_row);
    if (results.size() >= max_results) break;
    // Odometer: isolated values first, then per-tree rows.
    size_t k = 0;
    while (k < iso_val.size() &&
           ++iso_val[k] == static_cast<Element>(universe_)) {
      iso_val[k] = 0;
      ++k;
    }
    if (k < iso_val.size()) continue;
    size_t t = 0;
    while (t < roots_.size() &&
           ++root_row[t] == r_table[roots_[t]].row_count()) {
      root_row[t] = 0;
      ++t;
    }
    if (t == roots_.size()) break;
  }
  CQCS_RETURN_IF_ERROR(TripStatus());
  return results;
}

Result<size_t> YannakakisProgram::ProjectCount(std::span<const VarId> proj,
                                               size_t limit) {
  CQCS_CHECK(satisfiable_);
  if (limit == 0) return size_t{0};
  if (universe_ == 0 && var_count_ > 0) return size_t{0};

  std::vector<Table> r_table(m_);
  std::vector<std::vector<VarId>> r_cols(m_);
  CQCS_RETURN_IF_ERROR(ProjectReduce(proj, &r_table, &r_cols));

  // No cross-product assembly: a root's reduced table is exactly the
  // distinct projections of its tree's variables (its connector set is
  // empty), trees share no projection variables, and isolated projection
  // variables range freely — so the count is a plain saturated product.
  std::vector<uint8_t> in_proj(var_count_, 0);
  for (VarId v : proj) in_proj[v] = 1;
  size_t total = 1;
  for (uint32_t root : roots_) {
    total = SatMul(total, r_table[root].row_count(), limit);
  }
  for (VarId v : isolated_) {
    if (in_proj[v]) total = SatMul(total, universe_, limit);
  }
  CQCS_RETURN_IF_ERROR(TripStatus());
  return total;
}

namespace {

/// A projection variable outside the query is the caller's error.
Status CheckProjection(const ConjunctiveQuery& q,
                       std::span<const VarId> projection) {
  for (VarId v : projection) {
    if (v >= q.var_count()) {
      return Status::InvalidArgument("projection variable out of range");
    }
  }
  return Status::OK();
}

}  // namespace

Result<bool> EvaluateBooleanAcyclic(const ConjunctiveQuery& q,
                                    const Structure& d,
                                    YannakakisStats* stats,
                                    ResourceGovernor* governor,
                                    unsigned num_threads) {
  YannakakisProgram run(stats, governor, num_threads);
  CQCS_RETURN_IF_ERROR(
      run.FromAtoms(q, d, YannakakisProgram::Passes::kDecide));
  return run.satisfiable();
}

Result<std::optional<std::vector<Element>>> AcyclicWitness(
    const ConjunctiveQuery& q, const Structure& d, YannakakisStats* stats,
    ResourceGovernor* governor, unsigned num_threads) {
  YannakakisProgram run(stats, governor, num_threads);
  CQCS_RETURN_IF_ERROR(run.FromAtoms(q, d, YannakakisProgram::Passes::kWalk));
  std::vector<std::vector<Element>> first;
  if (run.satisfiable()) CQCS_RETURN_IF_ERROR(run.Enumerate(1, &first));
  if (first.empty()) return std::optional<std::vector<Element>>();
  return std::optional<std::vector<Element>>(std::move(first[0]));
}

Result<size_t> AcyclicCount(const ConjunctiveQuery& q, const Structure& d,
                            size_t limit, YannakakisStats* stats,
                            ResourceGovernor* governor,
                            unsigned num_threads) {
  YannakakisProgram run(stats, governor, num_threads);
  CQCS_RETURN_IF_ERROR(run.FromAtoms(q, d, YannakakisProgram::Passes::kCount));
  if (!run.satisfiable()) return size_t{0};
  return run.Count(limit);
}

Result<std::vector<std::vector<Element>>> AcyclicEnumerate(
    const ConjunctiveQuery& q, const Structure& d, size_t max_results,
    YannakakisStats* stats, ResourceGovernor* governor,
    unsigned num_threads) {
  YannakakisProgram run(stats, governor, num_threads);
  CQCS_RETURN_IF_ERROR(run.FromAtoms(q, d, YannakakisProgram::Passes::kWalk));
  std::vector<std::vector<Element>> out;
  if (run.satisfiable()) CQCS_RETURN_IF_ERROR(run.Enumerate(max_results, &out));
  return out;
}

Result<std::vector<std::vector<Element>>> AcyclicProject(
    const ConjunctiveQuery& q, const Structure& d,
    std::span<const VarId> projection, size_t max_results,
    YannakakisStats* stats, ResourceGovernor* governor,
    unsigned num_threads) {
  CQCS_RETURN_IF_ERROR(CheckProjection(q, projection));
  YannakakisProgram run(stats, governor, num_threads);
  CQCS_RETURN_IF_ERROR(
      run.FromAtoms(q, d, YannakakisProgram::Passes::kProject));
  if (!run.satisfiable()) return std::vector<std::vector<Element>>();
  return run.Project(projection, max_results);
}

Result<size_t> AcyclicProjectCount(const ConjunctiveQuery& q,
                                   const Structure& d,
                                   std::span<const VarId> projection,
                                   size_t limit, YannakakisStats* stats,
                                   ResourceGovernor* governor,
                                   unsigned num_threads) {
  CQCS_RETURN_IF_ERROR(CheckProjection(q, projection));
  YannakakisProgram run(stats, governor, num_threads);
  CQCS_RETURN_IF_ERROR(
      run.FromAtoms(q, d, YannakakisProgram::Passes::kProject));
  if (!run.satisfiable()) return size_t{0};
  return run.ProjectCount(projection, limit);
}

}  // namespace cqcs
