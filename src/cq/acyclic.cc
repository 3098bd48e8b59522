#include "cq/acyclic.h"

#include <algorithm>
#include <map>
#include <optional>
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
      threads_(ResolveThreadCount(num_threads)) {
  if (stats_ != nullptr) stats_->workers = threads_;
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

JoinTree JoinTree::Build(size_t var_count,
                         std::span<const std::vector<VarId>> nodes,
                         std::vector<uint32_t> parent) {
  JoinTree tree;
  const auto m = static_cast<uint32_t>(parent.size());
  CQCS_CHECK(nodes.size() == m);
  tree.var_count = var_count;
  tree.parent = std::move(parent);

  // Node variables, first occurrences only: seen[v] is the last node that
  // listed v. Variables no node lists range freely.
  std::vector<uint32_t> seen(var_count, kNoParent);
  size_t listed = 0;
  for (const std::vector<VarId>& node : nodes) listed += node.size();
  tree.vars_.reserve(listed);
  tree.var_begin_.reserve(m + 1);
  tree.var_begin_.push_back(0);
  // cqcs-lint: allow(unpolled-loop): bounded by forest shape (nodes * vars-per-node), not data
  for (uint32_t i = 0; i < m; ++i) {
    for (VarId v : nodes[i]) {
      if (seen[v] == i) continue;
      seen[v] = i;
      tree.vars_.push_back(v);
    }
    tree.var_begin_.push_back(static_cast<uint32_t>(tree.vars_.size()));
  }
  for (VarId v = 0; v < var_count; ++v) {
    if (seen[v] == kNoParent) tree.isolated.push_back(v);
  }

  // Children lists (in node order), roots, and the children-first order:
  // every node's subtree is complete before the node itself.
  tree.child_begin_.assign(m + 1, 0);
  for (uint32_t i = 0; i < m; ++i) {
    const uint32_t p = tree.parent[i];
    if (p == kNoParent) {
      tree.roots.push_back(i);
    } else {
      ++tree.child_begin_[p + 1];
    }
  }
  for (uint32_t i = 0; i < m; ++i) {
    tree.child_begin_[i + 1] += tree.child_begin_[i];
  }
  tree.children_.resize(m - tree.roots.size());
  // pending[i]: i's children not yet in the order; first the fill cursor.
  std::vector<uint32_t> pending(tree.child_begin_.begin(),
                                tree.child_begin_.end() - 1);
  for (uint32_t i = 0; i < m; ++i) {
    const uint32_t p = tree.parent[i];
    if (p != kNoParent) tree.children_[pending[p]++] = i;
  }
  std::vector<uint32_t> stack;
  stack.reserve(m);
  for (uint32_t i = 0; i < m; ++i) {
    pending[i] = tree.child_begin_[i + 1] - tree.child_begin_[i];
    if (pending[i] == 0) stack.push_back(i);
  }
  tree.order.reserve(m);
  while (!stack.empty()) {
    const uint32_t node = stack.back();
    stack.pop_back();
    tree.order.push_back(node);
    const uint32_t p = tree.parent[node];
    if (p != kNoParent && --pending[p] == 0) stack.push_back(p);
  }
  CQCS_CHECK(tree.order.size() == m);

  // Shared-with-parent variables, in the child's column order, and their
  // column positions on both sides. col_in_parent (seen's storage) is
  // indexed by variable and reset after each node.
  constexpr uint32_t kAbsent = UINT32_MAX;
  std::vector<uint32_t> col_in_parent = std::move(seen);
  std::fill(col_in_parent.begin(), col_in_parent.end(), kAbsent);
  tree.shared_begin_.reserve(m + 1);
  tree.shared_begin_.push_back(0);
  tree.shared_vars_.reserve(tree.vars_.size());
  tree.shared_child_cols_.reserve(tree.vars_.size());
  tree.shared_parent_cols_.reserve(tree.vars_.size());
  // cqcs-lint: allow(unpolled-loop): bounded by forest shape (nodes * vars-per-node), not data
  for (uint32_t node = 0; node < m; ++node) {
    const uint32_t p = tree.parent[node];
    if (p != kNoParent) {
      const std::span<const VarId> cv = tree.vars(node);
      const std::span<const VarId> pv = tree.vars(p);
      for (size_t j = 0; j < pv.size(); ++j) {
        col_in_parent[pv[j]] = static_cast<uint32_t>(j);
      }
      for (size_t i = 0; i < cv.size(); ++i) {
        if (col_in_parent[cv[i]] == kAbsent) continue;
        tree.shared_vars_.push_back(cv[i]);
        tree.shared_child_cols_.push_back(static_cast<uint32_t>(i));
        tree.shared_parent_cols_.push_back(col_in_parent[cv[i]]);
      }
      for (VarId v : pv) col_in_parent[v] = kAbsent;
    }
    tree.shared_begin_.push_back(
        static_cast<uint32_t>(tree.shared_vars_.size()));
  }
  return tree;
}

Status YannakakisProgram::FromAtoms(const ConjunctiveQuery& q,
                                    const JoinTree& shape, const Structure& d,
                                    Passes passes) {
  if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->Poll());
  CQCS_CHECK(shape.size() == q.atoms().size());
  shape_ = &shape;
  universe_ = d.universe_size();
  tables_.resize(shape.size());
  CQCS_RETURN_IF_ERROR(MaterializeAll(q, d));
  if (passes != Passes::kCount) RecordEdgePresence(q, d);
  return Run(passes);
}

void YannakakisProgram::RecordEdgePresence(const ConjunctiveQuery& q,
                                           const Structure& d) {
  const JoinTree& shape = *shape_;
  // A variable's column holds a subset of the values its relation has at
  // the variable's first position (all of them for a view).
  auto presence = [&](uint32_t node, VarId v) {
    const Atom& atom = q.atoms()[node];
    const auto pos = static_cast<uint32_t>(
        std::find(atom.args.begin(), atom.args.end(), v) - atom.args.begin());
    return d.relation(atom.rel).Presence(pos);
  };
  edge_presence_.assign(shape.size(), EdgePresence{});
  for (uint32_t i = 0; i < shape.size(); ++i) {
    const std::span<const VarId> key = shape.shared_vars(i);
    if (key.size() != 1) continue;  // a root, or a multi-column key
    edge_presence_[i] = {presence(i, key[0]),
                         presence(shape.parent[i], key[0])};
  }
}

Status YannakakisProgram::Run(Passes passes) {
  // Emptiness is decided after every table is loaded, in node order.
  satisfiable_ = true;
  for (const Table& table : tables_) {
    if (table.empty()) {
      satisfiable_ = false;
      return TripStatus();
    }
  }
  // The walk's match indexes are the ones the bottom-up pass builds.
  if (passes == Passes::kWalk) match_index_.resize(tables_.size());
  if (passes != Passes::kCount) CQCS_RETURN_IF_ERROR(Reduce(passes));
  return TripStatus();
}

namespace {

/// Whether every value set in `sub` is also set in `super` (bit v of word
/// v/64 in both).
bool PresenceSubset(std::span<const uint64_t> sub,
                    std::span<const uint64_t> super) {
  for (size_t w = 0; w < sub.size(); ++w) {
    const uint64_t outside = w < super.size() ? sub[w] & ~super[w] : sub[w];
    if (outside != 0) return false;
  }
  return true;
}

}  // namespace

void YannakakisProgram::SemijoinEdge(uint32_t child, bool up,
                                     rel::SemijoinScratch& scratch,
                                     const HashIndex* child_index) {
  const JoinTree& shape = *shape_;
  const uint32_t parent = shape.parent[child];
  const EdgePresence edge =
      edge_presence_.empty() ? EdgePresence{} : edge_presence_[child];
  const uint32_t left = up ? parent : child;
  const uint32_t right = up ? child : parent;
  const std::span<const uint32_t> left_cols =
      up ? shape.shared_parent_cols(child) : shape.shared_child_cols(child);
  const std::span<const uint32_t> right_cols =
      up ? shape.shared_child_cols(child) : shape.shared_parent_cols(child);
  const std::span<const uint64_t> left_presence = up ? edge.parent : edge.child;
  // An unreduced view's key column holds exactly its relation's presence;
  // any other table's holds some subset of it.
  const std::span<const uint64_t> right_exact =
      tables_[right].borrowed() ? (up ? edge.child : edge.parent)
                                : std::span<const uint64_t>();
  if (stats_ != nullptr) ++stats_->semijoins;
  // Covered: left's values lie in its relation's presence, which lies in
  // right's exact presence, so no left row can drop. Decided without
  // reading a row, and left stays as it is (a view stays a view).
  if (!right_exact.empty() && !left_presence.empty() &&
      PresenceSubset(left_presence, right_exact)) {
    if (stats_ != nullptr) ++stats_->semijoins_skipped;
    return;
  }
  size_t removed;
  if (child_index != nullptr && right_exact.empty()) {
    removed = rel::Semijoin(tables_[left], left_cols, tables_[right],
                            *child_index, gov_);
  } else {
    removed = scratch.Run(tables_[left], left_cols, tables_[right],
                          right_cols, right_exact);
  }
  if (stats_ != nullptr) stats_->rows_pruned += removed;
}

Status YannakakisProgram::Reduce(Passes passes) {
  // Bottom-up pass: parent := parent ⋉ child, children first, so every
  // table is final for its own parent's filtering. Governed runs poll
  // once per semijoin — each is one bounded table sweep. The walk has no
  // top-down pass, so a child's index here is its final match index: kWalk
  // builds it into match_index_; the other passes key each child through
  // one reused scratch, which needs no index for a one-column key. A
  // one-column key over atom tables is first decided from the relations'
  // presence bitsets (SemijoinEdge).
  const JoinTree& shape = *shape_;
  rel::SemijoinScratch scratch(gov_);
  for (uint32_t node : shape.order) {
    uint32_t p = shape.parent[node];
    if (p == JoinTree::kNoParent) continue;
    if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->Poll());
    const HashIndex* index = nullptr;
    if (passes == Passes::kWalk) {
      HashIndex& built = match_index_[node];
      built.AttachGovernor(gov_);
      built.Build(tables_[node].data(), tables_[node].width(),
                  static_cast<uint32_t>(tables_[node].row_count()),
                  shape.shared_child_cols(node));
      index = &built;
    }
    SemijoinEdge(node, /*up=*/true, scratch, index);
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
  for (size_t i = shape.order.size(); i-- > 0;) {
    uint32_t node = shape.order[i];
    for (uint32_t child : shape.children(node)) {
      if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->Poll());
      SemijoinEdge(child, /*up=*/false, scratch, nullptr);
      CQCS_RETURN_IF_ERROR(TripStatus());
      CQCS_CHECK(!tables_[child].empty());
    }
  }
  return Status::OK();
}

Status YannakakisProgram::MaterializeAll(const ConjunctiveQuery& q,
                                         const Structure& d) {
  // Pass 1 (sequential, query-shaped): column layouts, views and memo
  // grouping. A node's columns are its atom's distinct variables in
  // first-occurrence order, so an atom with distinct variables has its
  // relation's column order, and over a relation known to be
  // duplicate-free its table is the relation itself: a view of the flat
  // tuples, built in O(1). Any other atom is materialized. col_of_arg
  // determines such a table completely (it encodes both the column layout
  // and the repeated-variable equalities), so atoms sharing a (relation,
  // map) key form one materialization group — canonical queries repeat one
  // pattern per relation across thousands of atoms.
  const size_t m = tables_.size();
  std::vector<std::vector<uint32_t>> col_of_arg(m);
  std::vector<size_t> rep(m);       // group representative per atom
  std::vector<size_t> group_reps;   // distinct representatives
  // Two atoms with the same relation and the same position→column map
  // start from identical tables; materialize once, copy after.
  std::map<std::pair<RelId, std::vector<uint32_t>>, size_t> memo;
  // cqcs-lint: allow(unpolled-loop): bounded by query shape (atoms * arity^2), not data
  for (size_t i = 0; i < m; ++i) {
    const Atom& atom = q.atoms()[i];
    const std::span<const VarId> vars = shape_->vars(i);
    col_of_arg[i].resize(atom.args.size());
    for (size_t p = 0; p < atom.args.size(); ++p) {
      col_of_arg[i][p] = static_cast<uint32_t>(
          std::find(vars.begin(), vars.end(), atom.args[p]) - vars.begin());
    }
    rep[i] = i;
    const Relation& rel = d.relation(atom.rel);
    if (vars.size() == atom.args.size() &&
        rel.duplicate_free().value_or(false)) {
      tables_[i] = Table::View(rel.data().data(), rel.arity(),
                               rel.tuple_count());
      tables_[i].AttachGovernor(gov_);  // charges a copy-on-write only
      continue;
    }
    auto [it, inserted] = memo.emplace(
        std::make_pair(atom.rel, col_of_arg[i]), i);
    rep[i] = it->second;
    if (inserted) group_reps.push_back(i);
  }

  // Pass 2: materialize the distinct groups.
  for (size_t i : group_reps) {
    CQCS_RETURN_IF_ERROR(MaterializeGroup(q, d, i, col_of_arg[i]));
  }

  // Pass 3 (atom order): copy memo hits, accumulate stats.
  for (size_t i = 0; i < m; ++i) {
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
  const auto width = static_cast<uint32_t>(shape_->vars(i).size());
  tables_[i] = Table(width);
  Table& table = tables_[i];
  table.AttachGovernor(gov_);
  const Relation& rel = d.relation(atom.rel);
  // Without repeated variables every tuple lands: size the buffer once.
  if (width == atom.args.size()) table.Reserve(rel.tuple_count());

  uint64_t tick = 0;  // per-group stride
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

  // Bulk dedup: keep each row's first occurrence, in order. A relation
  // known to be duplicate-free needs none: the equality filter keeps a
  // subset of a set, and each dropped column equals a kept one.
  if (!rel.duplicate_free().value_or(false)) {
    std::vector<uint32_t> all_cols(width);
    for (uint32_t c = 0; c < width; ++c) all_cols[c] = c;
    table.KeepRows(rel::FirstOccurrences(table, all_cols, gov_));
  }
  return TripStatus();
}

uint32_t YannakakisProgram::FirstRow(uint32_t node) {
  if (shape_->parent[node] == JoinTree::kNoParent) {
    return tables_[node].empty() ? HashIndex::kNone : 0;
  }
  // The parent's values are already in assign_ (the walk visits parents
  // first); probe the match index with them.
  key_scratch_.clear();
  for (VarId v : shape_->shared_vars(node)) key_scratch_.push_back(assign_[v]);
  return match_index_[node].FindFirst(tables_[node].data(), key_scratch_);
}

uint32_t YannakakisProgram::NextRow(uint32_t node, uint32_t r) const {
  if (shape_->parent[node] == JoinTree::kNoParent) {
    return r + 1 < tables_[node].row_count() ? r + 1 : HashIndex::kNone;
  }
  return match_index_[node].Next(r);
}

void YannakakisProgram::WriteRow(uint32_t node, uint32_t r) {
  std::span<const Element> row = tables_[node].row(r);
  const std::span<const VarId> vars = shape_->vars(node);
  for (size_t i = 0; i < vars.size(); ++i) assign_[vars[i]] = row[i];
}

bool YannakakisProgram::EmitAssignment(
    size_t max_results, std::vector<std::vector<Element>>* out) {
  // All tree variables fixed; expand the isolated ones (every value
  // works) with an odometer over the universe.
  const size_t n = universe_;
  const std::vector<VarId>& isolated = shape_->isolated;
  for (VarId v : isolated) assign_[v] = 0;
  while (true) {
    // A governor trip aborts the walk; the caller turns it into a
    // kResourceExhausted status via the sticky trip state.
    if (!PollTick().ok()) return false;
    out->push_back(assign_);
    if (out->size() >= max_results) return false;
    size_t k = 0;
    while (k < isolated.size() &&
           ++assign_[isolated[k]] == static_cast<Element>(n)) {
      assign_[isolated[k]] = 0;
      ++k;
    }
    if (k == isolated.size()) return true;
  }
}

Status YannakakisProgram::Enumerate(size_t max_results,
                                    std::vector<std::vector<Element>>* out) {
  CQCS_CHECK(satisfiable_);
  // Every return path reports a governor trip, including the ones where
  // EmitAssignment aborted the walk from inside.
  if (max_results == 0) return TripStatus();
  const size_t var_count = shape_->var_count;
  if (universe_ == 0 && var_count > 0) return TripStatus();
  assign_.assign(var_count, 0);
  const std::vector<uint32_t>& order = shape_->order;
  const size_t depth_total = order.size();
  if (depth_total == 0) {
    EmitAssignment(max_results, out);
    return TripStatus();
  }
  // Explicit-stack pre-order walk: depth d visits node
  // order[depth_total - 1 - d], so parents come first, and cur[d] is the
  // current row of its table; the match chain makes that one uint32 the
  // entire per-depth state, so arbitrarily deep forests cost heap, not
  // stack.
  // Backtracking to depth d never re-probes: NextRow follows the chain,
  // and the ancestors' assign_ values it was keyed on are untouched.
  std::vector<uint32_t> cur(depth_total);
  size_t d = 0;
  bool descending = true;
  while (true) {
    CQCS_RETURN_IF_ERROR(PollTick());
    const uint32_t node = order[depth_total - 1 - d];
    cur[d] = descending ? FirstRow(node) : NextRow(node, cur[d]);
    if (cur[d] == HashIndex::kNone) {
      if (d == 0) return TripStatus();
      --d;
      descending = false;
      continue;
    }
    WriteRow(node, cur[d]);
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
  // Per child, the counts are summed per connector key, and a parent row
  // reads its key's sum. A one-column key whose values fit the direct
  // bound sums into a value-indexed array. Any other key folds cnt[child]
  // into per-key suffix sums along a match index's chains: Next(s) < s, so
  // an ascending fold leaves each chain head holding its whole key's sum,
  // and a parent row costs one FindFirst.
  const JoinTree& shape = *shape_;
  std::vector<std::vector<size_t>> cnt(tables_.size());
  HashIndex index;
  index.AttachGovernor(gov_);
  rel::ValueArray<size_t> sums;
  sums.AttachGovernor(gov_);
  for (uint32_t node : shape.order) {
    const Table& table = tables_[node];
    cnt[node].assign(table.row_count(), 1);
    for (uint32_t child : shape.children(node)) {
      if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->Poll());
      const Table& ct = tables_[child];
      const auto child_rows = static_cast<uint32_t>(ct.row_count());
      const std::span<const uint32_t> child_cols =
          shape.shared_child_cols(child);
      const std::span<const uint32_t> parent_cols =
          shape.shared_parent_cols(child);
      std::vector<size_t>& agg = cnt[child];
      const std::optional<size_t> slots =
          child_cols.size() == 1
              ? HashIndex::DirectSlots(ct.data(), ct.width(), child_rows,
                                       child_cols[0])
              : std::nullopt;
      // Governed runs poll every 1024th row of each loop.
      if (slots.has_value()) {
        sums.Assign(*slots);
        size_t* const sum = sums.data();
        const Element* const keys = ct.data() + child_cols[0];
        const size_t width = ct.width();
        for (size_t s = 0; s < child_rows; ++s) {
          if (gov_ != nullptr && (s & 1023) == 0) {
            CQCS_RETURN_IF_ERROR(gov_->Poll());
          }
          const Element v = keys[s * width];
          sum[v] = SatAdd(sum[v], agg[s], limit);
        }
      } else {
        index.Build(ct.data(), ct.width(), child_rows, child_cols);
        for (uint32_t s = 0; s < child_rows; ++s) {
          if (gov_ != nullptr && (s & 1023) == 0) {
            CQCS_RETURN_IF_ERROR(gov_->Poll());
          }
          const uint32_t next = index.Next(s);
          if (next != HashIndex::kNone) {
            agg[s] = SatAdd(agg[s], agg[next], limit);
          }
        }
      }
      size_t* const out = cnt[node].data();
      const size_t rows = table.row_count();
      for (size_t r = 0; r < rows; ++r) {
        if (gov_ != nullptr && (r & 1023) == 0) {
          CQCS_RETURN_IF_ERROR(gov_->Poll());
        }
        std::span<const Element> row = table.row(r);
        size_t key_sum;
        if (slots.has_value()) {
          const Element v = row[parent_cols[0]];
          key_sum = v < *slots ? sums[v] : 0;
        } else {
          key_scratch_.clear();
          for (uint32_t c : parent_cols) key_scratch_.push_back(row[c]);
          const uint32_t head = index.FindFirst(ct.data(), key_scratch_);
          key_sum = head == HashIndex::kNone ? 0 : agg[head];
        }
        out[r] = SatMul(out[r], key_sum, limit);
      }
      agg = std::vector<size_t>();  // read by this parent only
    }
  }
  size_t total = 1;
  // cqcs-lint: allow(unpolled-loop): one flat sum per root table row; the materialization that sized cnt was charged
  for (uint32_t root : shape.roots) {
    size_t tree_total = 0;
    for (size_t c : cnt[root]) tree_total = SatAdd(tree_total, c, limit);
    total = SatMul(total, tree_total, limit);
  }
  for (size_t k = 0; k < shape.isolated.size(); ++k) {
    total = SatMul(total, universe_, limit);
  }
  CQCS_RETURN_IF_ERROR(TripStatus());
  return total;
}

Status YannakakisProgram::ProjectReduce(
    std::span<const VarId> proj, std::vector<Table>* r_table,
    std::vector<std::vector<VarId>>* r_cols) {
  const JoinTree& shape = *shape_;
  std::vector<uint8_t> in_proj(shape.var_count, 0);
  for (VarId v : proj) in_proj[v] = 1;

  // Bottom-up join-project: R[node] holds the distinct projections of
  // node's subtree joins onto (projection vars of the subtree) ∪
  // (connector vars to the parent). Intermediates never hold a column
  // that neither the output nor a later join needs, which is what keeps
  // them output-bounded.
  HashIndex index;
  index.AttachGovernor(gov_);
  for (uint32_t node : shape.order) {
    // `cur` reads the node's own table until the first join replaces it.
    Table joined;
    const Table* cur = &tables_[node];
    const std::span<const VarId> node_vars = shape.vars(node);
    std::vector<VarId> cur_cols(node_vars.begin(), node_vars.end());
    for (uint32_t child : shape.children(node)) {
      if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->Poll());
      // Join on the connector variables; pull in the child's accumulated
      // projection columns. A projection variable below the child that
      // also occurs above it must occur in the child's bag too (running
      // intersection), so the extras are always fresh columns.
      const std::span<const VarId> shared = shape.shared_vars(child);
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
                    right_key);
        Table next(static_cast<uint32_t>(cur->width() + extras.size()));
        next.AttachGovernor(gov_);
        rel::HashJoinAppend(*cur, left_key, (*r_table)[child], index, extras,
                            &next, gov_);
        joined = std::move(next);
        cur = &joined;
        cur_cols.insert(cur_cols.end(), extra_vars.begin(), extra_vars.end());
      }
      if (stats_ != nullptr) stats_->join_rows += cur->row_count();
      BumpTable(cur->row_count());
    }
    // Keep projection columns plus the connector to the parent (none at a
    // root).
    std::vector<uint32_t> keep_cols;
    std::vector<VarId> keep_vars;
    const std::span<const VarId> shared = shape.shared_vars(node);
    for (size_t i = 0; i < cur_cols.size(); ++i) {
      VarId v = cur_cols[i];
      if (in_proj[v] ||
          std::find(shared.begin(), shared.end(), v) != shared.end()) {
        keep_cols.push_back(static_cast<uint32_t>(i));
        keep_vars.push_back(v);
      }
    }
    // A non-root node keeping only its connector adds no columns, so its
    // parent's join with it is an identity that never reads R[node]: the
    // projection is dead. Skipping it leaves max_table_rows as it was:
    // R[node] never has more rows than `cur`, and `cur` never more than a
    // table already counted (its join, or its atom table as materialized).
    const bool connector_only = shape.parent[node] != JoinTree::kNoParent &&
                                keep_vars.size() == shared.size();
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
  const JoinTree& shape = *shape_;
  std::vector<std::vector<Element>> results;
  if (max_results == 0) return results;
  if (universe_ == 0 && shape.var_count > 0) return results;

  std::vector<uint8_t> in_proj(shape.var_count, 0);
  for (VarId v : proj) in_proj[v] = 1;

  std::vector<Table> r_table(tables_.size());
  std::vector<std::vector<VarId>> r_cols(tables_.size());
  CQCS_RETURN_IF_ERROR(ProjectReduce(proj, &r_table, &r_cols));

  // Assemble output rows: a cross product over the per-tree results and
  // the isolated projection variables (each tree's rows are distinct on
  // projection variables only, so every combination is a distinct row).
  const std::vector<uint32_t>& roots = shape.roots;
  std::vector<VarId> iso_proj;
  for (VarId v : shape.isolated) {
    if (in_proj[v]) iso_proj.push_back(v);
  }
  std::vector<Element> value_of(shape.var_count, 0);
  std::vector<size_t> root_row(roots.size(), 0);
  std::vector<Element> iso_val(iso_proj.size(), 0);
  std::vector<Element> out_row(proj.size());
  while (true) {
    CQCS_RETURN_IF_ERROR(PollTick());
    for (size_t t = 0; t < roots.size(); ++t) {
      const Table& rt = r_table[roots[t]];
      std::span<const Element> row = rt.row(root_row[t]);
      const auto& cols = r_cols[roots[t]];
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
    while (t < roots.size() &&
           ++root_row[t] == r_table[roots[t]].row_count()) {
      root_row[t] = 0;
      ++t;
    }
    if (t == roots.size()) break;
  }
  CQCS_RETURN_IF_ERROR(TripStatus());
  return results;
}

Result<size_t> YannakakisProgram::ProjectCount(std::span<const VarId> proj,
                                               size_t limit) {
  CQCS_CHECK(satisfiable_);
  const JoinTree& shape = *shape_;
  if (limit == 0) return size_t{0};
  if (universe_ == 0 && shape.var_count > 0) return size_t{0};

  std::vector<Table> r_table(tables_.size());
  std::vector<std::vector<VarId>> r_cols(tables_.size());
  CQCS_RETURN_IF_ERROR(ProjectReduce(proj, &r_table, &r_cols));

  // No cross-product assembly: a root's reduced table is exactly the
  // distinct projections of its tree's variables (its connector set is
  // empty), trees share no projection variables, and isolated projection
  // variables range freely — so the count is a plain saturated product.
  std::vector<uint8_t> in_proj(shape.var_count, 0);
  for (VarId v : proj) in_proj[v] = 1;
  size_t total = 1;
  for (uint32_t root : shape.roots) {
    total = SatMul(total, r_table[root].row_count(), limit);
  }
  for (VarId v : shape.isolated) {
    if (in_proj[v]) total = SatMul(total, universe_, limit);
  }
  CQCS_RETURN_IF_ERROR(TripStatus());
  return total;
}

namespace {

/// Validates q against d and runs GYO on q's hypergraph: the shape the
/// functions below load their program over.
Result<JoinTree> AtomShape(const ConjunctiveQuery& q, const Structure& d) {
  CQCS_RETURN_IF_ERROR(q.Validate());
  if (!q.vocabulary()->Equals(*d.vocabulary())) {
    return Status::InvalidArgument("query/database vocabulary mismatch");
  }
  std::optional<JoinTree> forest =
      GyoJoinForest(q.var_count(), QueryHyperedges(q));
  if (!forest.has_value()) {
    return Status::InvalidArgument("the query's hypergraph is cyclic");
  }
  return *std::move(forest);
}

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
  CQCS_ASSIGN_OR_RETURN(const JoinTree shape, AtomShape(q, d));
  CQCS_RETURN_IF_ERROR(
      run.FromAtoms(q, shape, d, YannakakisProgram::Passes::kDecide));
  return run.satisfiable();
}

Result<std::optional<std::vector<Element>>> AcyclicWitness(
    const ConjunctiveQuery& q, const Structure& d, YannakakisStats* stats,
    ResourceGovernor* governor, unsigned num_threads) {
  YannakakisProgram run(stats, governor, num_threads);
  CQCS_ASSIGN_OR_RETURN(const JoinTree shape, AtomShape(q, d));
  CQCS_RETURN_IF_ERROR(
      run.FromAtoms(q, shape, d, YannakakisProgram::Passes::kWalk));
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
  CQCS_ASSIGN_OR_RETURN(const JoinTree shape, AtomShape(q, d));
  CQCS_RETURN_IF_ERROR(
      run.FromAtoms(q, shape, d, YannakakisProgram::Passes::kCount));
  if (!run.satisfiable()) return size_t{0};
  return run.Count(limit);
}

Result<std::vector<std::vector<Element>>> AcyclicEnumerate(
    const ConjunctiveQuery& q, const Structure& d, size_t max_results,
    YannakakisStats* stats, ResourceGovernor* governor,
    unsigned num_threads) {
  YannakakisProgram run(stats, governor, num_threads);
  CQCS_ASSIGN_OR_RETURN(const JoinTree shape, AtomShape(q, d));
  CQCS_RETURN_IF_ERROR(
      run.FromAtoms(q, shape, d, YannakakisProgram::Passes::kWalk));
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
  CQCS_ASSIGN_OR_RETURN(const JoinTree shape, AtomShape(q, d));
  CQCS_RETURN_IF_ERROR(
      run.FromAtoms(q, shape, d, YannakakisProgram::Passes::kProject));
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
  CQCS_ASSIGN_OR_RETURN(const JoinTree shape, AtomShape(q, d));
  CQCS_RETURN_IF_ERROR(
      run.FromAtoms(q, shape, d, YannakakisProgram::Passes::kProject));
  if (!run.satisfiable()) return size_t{0};
  return run.ProjectCount(projection, limit);
}

}  // namespace cqcs
