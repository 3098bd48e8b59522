#include "cq/acyclic.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/governor.h"
#include "common/saturating.h"
#include "common/work_pool.h"
#include "cq/canonical.h"
#include "cq/gyo.h"
#include "rel/hash_index.h"
#include "rel/ops.h"
#include "rel/table.h"

namespace cqcs {

namespace {

using rel::HashIndex;
using rel::Table;

/// One Yannakakis run: GYO, per-atom table materialization into the
/// columnar kernel, then only the passes the caller's task reads:
///
///   task              semijoin passes         match indexes
///   decide            bottom-up               -
///   count             none                    over the unreduced tables
///   witness/enumerate bottom-up + top-down    over the reduced tables
///   project(-count)   bottom-up + top-down    -
///
/// After the full reduction every surviving row of every table
/// participates in at least one solution — the invariant the walk
/// (witness/enumerate) and the join-project pass lean on. Count needs no
/// reduction: it is one bottom-up sum-product pass in which a row whose
/// subtree has no match simply sums to 0.
///
/// Parallelism (num_threads > 1): per-atom materialization runs distinct
/// (relation, layout) groups concurrently, the semijoin sweeps and join
/// phase morsel-parallelize inside rel::Semijoin / rel::HashJoinAppend,
/// the count pass splits its per-parent-row loop (disjoint cnt writes),
/// and the match indexes build one-per-node concurrently — all on the
/// shared MorselPool. Every phase merges or checks results at
/// deterministic structural boundaries (atom order, node order, morsel
/// order), so the answer AND the stats (minus workers/steals) match the
/// sequential run byte for byte. The enumeration walk, the count pass's
/// per-key fold and ProjectDistinct stay sequential: their outputs are
/// defined by row order.
class Yannakakis {
 public:
  Yannakakis(const ConjunctiveQuery& q, const Structure& d,
             YannakakisStats* stats, ResourceGovernor* governor = nullptr,
             unsigned num_threads = 1)
      : q_(q),
        d_(d),
        stats_(stats),
        gov_(governor),
        threads_(ResolveThreadCount(num_threads)) {}

  /// Worker/morsel/steal counters flush on destruction so every entry
  /// point (including error unwinds) reports what actually ran.
  ~Yannakakis() {
    if (stats_ != nullptr) {
      stats_->workers = threads_;
      stats_->morsels += mc_.morsels;
      stats_->steals += mc_.steals;
    }
  }

  /// What a task phase reads; Prepare runs exactly those passes (see the
  /// table above).
  enum class Passes {
    kDecide,   ///< bottom-up semijoins; satisfiable() is the answer
    kCount,    ///< no semijoins; match indexes over the unreduced tables
    kWalk,     ///< full reduction + match indexes (witness, enumerate)
    kProject,  ///< full reduction, no match indexes (project, its count)
  };

  /// Validates, runs GYO, materializes, then runs `passes`.
  /// InvalidArgument for cyclic queries / vocabulary mismatch.
  Status Prepare(Passes passes);

  /// False when some table emptied: no assignment satisfies the body.
  /// After Prepare(kCount) only a materialized table can have emptied, so
  /// true does not imply a solution exists.
  bool satisfiable() const { return satisfiable_; }

  // The task phases below require satisfiable() and the Prepare named on
  // each. Each errors with kResourceExhausted on a governor trip; *out /
  // the return value must then be discarded (the Unknown contract — no
  // torn results).

  /// Appends up to max_results assignments (indexed by VarId) to *out.
  /// Prepare(kWalk).
  Status Enumerate(size_t max_results, std::vector<std::vector<Element>>* out);

  /// min(#assignments, limit). Prepare(kCount).
  Result<size_t> Count(size_t limit);

  /// Distinct projections onto `proj`, up to max_results.
  /// Prepare(kProject).
  Result<std::vector<std::vector<Element>>> Project(
      std::span<const VarId> proj, size_t max_results);

  /// min(#distinct projections onto `proj`, limit) via the same bottom-up
  /// reduction as Project, without assembling the cross product.
  /// Prepare(kProject).
  Result<size_t> ProjectCount(std::span<const VarId> proj, size_t limit);

 private:
  /// The semijoin passes: bottom-up, then top-down unless `passes` is
  /// kDecide. Clears satisfiable_ when a table empties.
  Status Reduce(Passes passes);
  Status MaterializeAll();
  /// Materializes atom `i`'s table (a group representative: no memo hit).
  /// Thread-safe against other groups — writes only tables_[i] and the
  /// governor's atomic accounting.
  Status MaterializeGroup(size_t i, const std::vector<uint32_t>& col_of_arg);
  /// The bottom-up join-project pass shared by Project and ProjectCount:
  /// fills r_table/r_cols per node (see Project for the invariants).
  /// r_table stays empty for a non-root node that keeps only its
  /// connector: its parent's join with it is an identity, so no one
  /// reads it.
  Status ProjectReduce(std::span<const VarId> proj,
                       std::vector<Table>* r_table,
                       std::vector<std::vector<VarId>>* r_cols);
  /// Threading knobs handed to the rel/ operators: shared counter sink,
  /// default morsel size.
  rel::OpParallel Par() { return {threads_, 0, &mc_}; }
  /// Stride poll for the row loops: consults the governor every 1024th
  /// call. Ungoverned runs pay one branch.
  Status PollTick() {
    if (gov_ != nullptr && (++tick_ & 1023) == 0) return gov_->Poll();
    return Status::OK();
  }
  void BumpTable(size_t rows) {
    if (stats_ != nullptr && rows > stats_->max_table_rows) {
      stats_->max_table_rows = rows;
    }
  }
  // Helpers for Enumerate's explicit-stack pre-order walk (one recursion
  // frame per atom would overflow the stack on ~100k-atom sources).
  /// First row of seq_[depth]'s table matching the ancestors in assign_
  /// (all rows for roots), or HashIndex::kNone.
  uint32_t FirstRow(size_t depth);
  /// Next row of seq_[depth]'s table with the same key, or kNone.
  uint32_t NextRow(size_t depth, uint32_t r) const;
  /// Copies row r of seq_[depth]'s table into assign_.
  void WriteRow(size_t depth, uint32_t r);
  /// Appends the isolated-variable expansions of the current assign_;
  /// false once *out reached max_results (aborts the walk).
  bool EmitAssignment(size_t max_results,
                      std::vector<std::vector<Element>>* out);

  const ConjunctiveQuery& q_;
  const Structure& d_;
  YannakakisStats* stats_;
  ResourceGovernor* gov_;
  unsigned threads_ = 1;   // resolved worker count
  MorselCounters mc_;      // merged from every dispatch; flushed in dtor
  uint64_t tick_ = 0;  // PollTick stride counter (single-threaded phases
                       // only — parallel bodies keep a local stride)

  size_t m_ = 0;
  JoinTree tree_;
  std::vector<std::vector<VarId>> vars_;      // per atom, sorted distinct
  std::vector<Table> tables_;                 // columns follow vars_[i]
  std::vector<std::vector<uint32_t>> children_;
  std::vector<uint32_t> roots_;
  std::vector<uint32_t> order_;               // children before parents
  // Shared variables with the parent, ascending; and their column
  // positions on each side (aligned lists).
  std::vector<std::vector<VarId>> shared_vars_;
  std::vector<std::vector<uint32_t>> shared_child_cols_;
  std::vector<std::vector<uint32_t>> shared_parent_cols_;
  // Match index per non-root node, keyed on shared_child_cols_ (kCount and
  // kWalk only).
  std::vector<HashIndex> match_index_;
  std::vector<VarId> isolated_;               // variables in no atom
  std::vector<Element> assign_;               // Enumerate's scratch
  std::vector<Element> key_scratch_;          // probe-key scratch (the key
                                              // is consumed by FindFirst
                                              // before any recursion, so
                                              // one buffer serves every
                                              // depth)
  std::vector<uint32_t> seq_;                 // forest pre-order
  // Two atoms with the same relation and the same position→column map
  // start from identical tables (canonical queries repeat one pattern per
  // relation across thousands of atoms); materialize once, copy after.
  std::map<std::pair<RelId, std::vector<uint32_t>>, size_t> materialize_memo_;
  bool satisfiable_ = false;
};

Status Yannakakis::Prepare(Passes passes) {
  if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->Poll());
  CQCS_RETURN_IF_ERROR(q_.Validate());
  if (!q_.vocabulary()->Equals(*d_.vocabulary())) {
    return Status::InvalidArgument("query/database vocabulary mismatch");
  }
  auto forest = GyoJoinForest(q_.var_count(), QueryHyperedges(q_));
  if (!forest.has_value()) {
    return Status::InvalidArgument("the query's hypergraph is cyclic");
  }
  tree_ = *std::move(forest);
  m_ = q_.atoms().size();
  satisfiable_ = true;

  // Variables outside every atom range freely; find them once.
  std::vector<uint8_t> in_atom(q_.var_count(), 0);
  // cqcs-lint: allow(unpolled-loop): bounded by query shape (atoms * arity), not data
  for (const Atom& atom : q_.atoms()) {
    for (VarId v : atom.args) in_atom[v] = 1;
  }
  for (VarId v = 0; v < q_.var_count(); ++v) {
    if (!in_atom[v]) isolated_.push_back(v);
  }

  vars_.resize(m_);
  tables_.resize(m_);
  CQCS_RETURN_IF_ERROR(MaterializeAll());
  // Emptiness is decided after every atom materialized, in atom order:
  // the same tables (and the same stats) exist at every thread count, and
  // satisfiable_ flips on the same first-empty atom.
  for (size_t i = 0; i < m_; ++i) {
    if (tables_[i].empty()) {
      satisfiable_ = false;
      return Status::OK();
    }
  }

  // Forest shape: children lists, roots, topological order (children
  // first — every node's subtree is fully processed before its parent).
  children_.resize(m_);
  std::vector<uint32_t> pending_children(m_, 0);
  for (uint32_t i = 0; i < m_; ++i) {
    if (tree_.parent[i] == JoinTree::kNoParent) {
      roots_.push_back(i);
    } else {
      children_[tree_.parent[i]].push_back(i);
      ++pending_children[tree_.parent[i]];
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
    uint32_t p = tree_.parent[node];
    if (p != JoinTree::kNoParent && --pending_children[p] == 0) {
      stack.push_back(p);
    }
  }
  CQCS_CHECK(order_.size() == m_);

  // Shared-with-parent variables and their column positions.
  shared_vars_.resize(m_);
  shared_child_cols_.resize(m_);
  shared_parent_cols_.resize(m_);
  // cqcs-lint: allow(unpolled-loop): bounded by query shape (atoms * vars-per-atom), not data
  for (uint32_t node = 0; node < m_; ++node) {
    uint32_t p = tree_.parent[node];
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

  if (passes != Passes::kCount) CQCS_RETURN_IF_ERROR(Reduce(passes));
  if (!satisfiable_ || passes == Passes::kDecide) return Status::OK();

  // Match indexes for the count pass and the walk. Builds are independent
  // per node (disjoint match_index_ slots), so they run as node-range
  // morsels on the shared pool.
  if (passes == Passes::kCount || passes == Passes::kWalk) {
    match_index_.resize(m_);
    auto body = [&](unsigned, size_t begin, size_t end) {
      for (size_t node = begin; node < end; ++node) {
        if (tree_.parent[node] == JoinTree::kNoParent) continue;
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
    if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->TripStatus());
  }

  // Forest pre-order for the enumeration walk (parents before children).
  if (passes == Passes::kWalk) {
    seq_.reserve(m_);
    for (size_t i = order_.size(); i-- > 0;) seq_.push_back(order_[i]);
  }
  if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->TripStatus());
  return Status::OK();
}

Status Yannakakis::Reduce(Passes passes) {
  // Bottom-up pass: parent := parent ⋉ child, children first, so every
  // table is final for its own parent's filtering. Governed runs poll
  // once per semijoin — each is one bounded table sweep.
  HashIndex index;
  index.AttachGovernor(gov_);
  for (uint32_t node : order_) {
    uint32_t p = tree_.parent[node];
    if (p == JoinTree::kNoParent) continue;
    if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->Poll());
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
  if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->TripStatus());
  if (passes == Passes::kDecide) return Status::OK();

  // Top-down pass: child := child ⋉ parent, parents first. A parent row
  // always keeps at least one match in each child (the match that let it
  // survive the bottom-up pass also survives here), so no table empties.
  for (size_t i = order_.size(); i-- > 0;) {
    uint32_t node = order_[i];
    for (uint32_t child : children_[node]) {
      if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->Poll());
      index.Build(tables_[node].data(), tables_[node].width(),
                  static_cast<uint32_t>(tables_[node].row_count()),
                  shared_parent_cols_[child]);
      size_t removed = rel::Semijoin(tables_[child],
                                     shared_child_cols_[child],
                                     tables_[node], index, gov_, Par());
      if (stats_ != nullptr) {
        ++stats_->semijoins;
        stats_->rows_pruned += removed;
      }
      if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->TripStatus());
      CQCS_CHECK(!tables_[child].empty());
    }
  }
  return Status::OK();
}

Status Yannakakis::MaterializeAll() {
  // Pass 1 (sequential, query-shaped): column layouts and memo grouping.
  // col_of_arg determines the initial table completely (it encodes both
  // the column layout and the repeated-variable equalities), so atoms
  // sharing a (relation, map) key form one materialization group —
  // canonical queries repeat one pattern per relation across thousands of
  // atoms.
  std::vector<std::vector<uint32_t>> col_of_arg(m_);
  std::vector<size_t> rep(m_);      // group representative per atom
  std::vector<size_t> group_reps;   // distinct representatives
  // cqcs-lint: allow(unpolled-loop): bounded by query shape (atoms * arity), not data
  for (size_t i = 0; i < m_; ++i) {
    const Atom& atom = q_.atoms()[i];
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
    auto [it, inserted] = materialize_memo_.emplace(
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
      Status s = MaterializeGroup(group_reps[g], col_of_arg[group_reps[g]]);
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

Status Yannakakis::MaterializeGroup(size_t i,
                                    const std::vector<uint32_t>& col_of_arg) {
  const Atom& atom = q_.atoms()[i];
  const uint32_t width = static_cast<uint32_t>(vars_[i].size());
  tables_[i] = Table(width);
  Table& table = tables_[i];
  table.AttachGovernor(gov_);
  const Relation& rel = d_.relation(atom.rel);
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

  // Bulk dedup: one build keyed on every column. Insert prepends, so each
  // key's chain ends at its first occurrence (Next == kNone); keeping
  // exactly those rows, ascending, is first-occurrence dedup in order.
  const uint32_t rows = static_cast<uint32_t>(table.row_count());
  std::vector<uint32_t> all_cols(width);
  for (uint32_t c = 0; c < width; ++c) all_cols[c] = c;
  HashIndex dedup;
  dedup.AttachGovernor(gov_);
  dedup.Build(table.data(), width, rows, std::move(all_cols));
  std::vector<uint32_t> keep;
  keep.reserve(rows);
  for (uint32_t r = 0; r < rows; ++r) {
    if (gov_ != nullptr && (++tick & 1023) == 0) {
      CQCS_RETURN_IF_ERROR(gov_->Poll());
    }
    if (dedup.Next(r) == HashIndex::kNone) keep.push_back(r);
  }
  if (keep.size() < rows) table.KeepRows(keep);
  return Status::OK();
}

uint32_t Yannakakis::FirstRow(size_t depth) {
  const uint32_t node = seq_[depth];
  if (tree_.parent[node] == JoinTree::kNoParent) {
    return tables_[node].empty() ? HashIndex::kNone : 0;
  }
  // The parent's values are already in assign_ (parents precede children
  // in seq_); probe the match index with them.
  key_scratch_.clear();
  for (VarId v : shared_vars_[node]) key_scratch_.push_back(assign_[v]);
  return match_index_[node].FindFirst(tables_[node].data(), key_scratch_);
}

uint32_t Yannakakis::NextRow(size_t depth, uint32_t r) const {
  const uint32_t node = seq_[depth];
  if (tree_.parent[node] == JoinTree::kNoParent) {
    return r + 1 < tables_[node].row_count() ? r + 1 : HashIndex::kNone;
  }
  return match_index_[node].Next(r);
}

void Yannakakis::WriteRow(size_t depth, uint32_t r) {
  const uint32_t node = seq_[depth];
  std::span<const Element> row = tables_[node].row(r);
  const auto& vars = vars_[node];
  for (size_t i = 0; i < vars.size(); ++i) assign_[vars[i]] = row[i];
}

bool Yannakakis::EmitAssignment(size_t max_results,
                                std::vector<std::vector<Element>>* out) {
  // All tree variables fixed; expand the isolated ones (every value
  // works) with an odometer over the universe.
  const size_t n = d_.universe_size();
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

Status Yannakakis::Enumerate(size_t max_results,
                             std::vector<std::vector<Element>>* out) {
  CQCS_CHECK(satisfiable_);
  // Every return path reports a governor trip, including the ones where
  // EmitAssignment aborted the walk from inside.
  auto trip_status = [this]() {
    return gov_ != nullptr ? gov_->TripStatus() : Status::OK();
  };
  if (max_results == 0) return trip_status();
  if (d_.universe_size() == 0 && q_.var_count() > 0) return trip_status();
  assign_.assign(q_.var_count(), 0);
  const size_t depth_total = seq_.size();
  if (depth_total == 0) {
    EmitAssignment(max_results, out);
    return trip_status();
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
      if (d == 0) return trip_status();
      --d;
      descending = false;
      continue;
    }
    WriteRow(d, cur[d]);
    if (d + 1 == depth_total) {
      if (!EmitAssignment(max_results, out)) return trip_status();
      descending = false;  // advance this depth's chain
    } else {
      ++d;
      descending = true;
    }
  }
}

Result<size_t> Yannakakis::Count(size_t limit) {
  CQCS_CHECK(satisfiable_);
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
      if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->TripStatus());
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
    total = SatMul(total, d_.universe_size(), limit);
  }
  return total;
}

Status Yannakakis::ProjectReduce(std::span<const VarId> proj,
                                 std::vector<Table>* r_table,
                                 std::vector<std::vector<VarId>>* r_cols) {
  std::vector<uint8_t> in_proj(q_.var_count(), 0);
  for (VarId v : proj) in_proj[v] = 1;

  // Bottom-up join-project: R[node] holds the distinct projections of
  // node's subtree joins onto (projection vars of the subtree) ∪
  // (connector vars to the parent). Intermediates never hold a column
  // that neither the output nor a later join needs, which is what keeps
  // them output-bounded. The joins morsel-parallelize inside
  // HashJoinAppend; the per-node dedup stays sequential (first-occurrence
  // order defines it).
  HashIndex index, scratch;
  index.AttachGovernor(gov_);
  scratch.AttachGovernor(gov_);
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
      if (!keep && tree_.parent[node] != JoinTree::kNoParent) {
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
    const bool connector_only = tree_.parent[node] != JoinTree::kNoParent &&
                                keep_vars.size() == shared_vars_[node].size();
    (*r_cols)[node] = std::move(keep_vars);
    if (connector_only) continue;
    (*r_table)[node] = Table(static_cast<uint32_t>(keep_cols.size()));
    (*r_table)[node].AttachGovernor(gov_);
    rel::ProjectDistinct(*cur, keep_cols, &(*r_table)[node], &scratch,
                         SIZE_MAX, gov_);
    BumpTable((*r_table)[node].row_count());
    if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->TripStatus());
  }
  return Status::OK();
}

Result<std::vector<std::vector<Element>>> Yannakakis::Project(
    std::span<const VarId> proj, size_t max_results) {
  CQCS_CHECK(satisfiable_);
  std::vector<std::vector<Element>> results;
  if (max_results == 0) return results;
  if (d_.universe_size() == 0 && q_.var_count() > 0) return results;

  std::vector<uint8_t> in_proj(q_.var_count(), 0);
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
  std::vector<Element> value_of(q_.var_count(), 0);
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
           ++iso_val[k] == static_cast<Element>(d_.universe_size())) {
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
  return results;
}

Result<size_t> Yannakakis::ProjectCount(std::span<const VarId> proj,
                                        size_t limit) {
  CQCS_CHECK(satisfiable_);
  if (limit == 0) return size_t{0};
  if (d_.universe_size() == 0 && q_.var_count() > 0) return size_t{0};

  std::vector<Table> r_table(m_);
  std::vector<std::vector<VarId>> r_cols(m_);
  CQCS_RETURN_IF_ERROR(ProjectReduce(proj, &r_table, &r_cols));

  // No cross-product assembly: a root's reduced table is exactly the
  // distinct projections of its tree's variables (its connector set is
  // empty), trees share no projection variables, and isolated projection
  // variables range freely — so the count is a plain saturated product.
  std::vector<uint8_t> in_proj(q_.var_count(), 0);
  for (VarId v : proj) in_proj[v] = 1;
  size_t total = 1;
  for (uint32_t root : roots_) {
    total = SatMul(total, r_table[root].row_count(), limit);
  }
  for (VarId v : isolated_) {
    if (in_proj[v]) total = SatMul(total, d_.universe_size(), limit);
  }
  return total;
}

}  // namespace

bool IsAcyclicQuery(const ConjunctiveQuery& q) {
  return GyoJoinForest(q.var_count(), QueryHyperedges(q)).has_value();
}

Result<JoinTree> BuildJoinTree(const ConjunctiveQuery& q) {
  CQCS_RETURN_IF_ERROR(q.Validate());
  auto tree = GyoJoinForest(q.var_count(), QueryHyperedges(q));
  if (!tree.has_value()) {
    return Status::InvalidArgument("the query's hypergraph is cyclic");
  }
  return *std::move(tree);
}

namespace {

/// Final trip check for the entry points: a charge-only trip in the last
/// poll stride must still surface as kResourceExhausted, never as a
/// normal-looking answer computed under a blown budget.
Status FinalTrip(ResourceGovernor* governor) {
  return governor != nullptr ? governor->TripStatus() : Status::OK();
}

}  // namespace

Result<bool> EvaluateBooleanAcyclic(const ConjunctiveQuery& q,
                                    const Structure& d,
                                    YannakakisStats* stats,
                                    ResourceGovernor* governor,
                                    unsigned num_threads) {
  Yannakakis run(q, d, stats, governor, num_threads);
  CQCS_RETURN_IF_ERROR(run.Prepare(Yannakakis::Passes::kDecide));
  CQCS_RETURN_IF_ERROR(FinalTrip(governor));
  return run.satisfiable();
}

Result<std::optional<std::vector<Element>>> AcyclicWitness(
    const ConjunctiveQuery& q, const Structure& d, YannakakisStats* stats,
    ResourceGovernor* governor, unsigned num_threads) {
  Yannakakis run(q, d, stats, governor, num_threads);
  CQCS_RETURN_IF_ERROR(run.Prepare(Yannakakis::Passes::kWalk));
  if (!run.satisfiable()) {
    CQCS_RETURN_IF_ERROR(FinalTrip(governor));
    return std::optional<std::vector<Element>>();
  }
  std::vector<std::vector<Element>> first;
  CQCS_RETURN_IF_ERROR(run.Enumerate(1, &first));
  CQCS_RETURN_IF_ERROR(FinalTrip(governor));
  if (first.empty()) return std::optional<std::vector<Element>>();
  return std::optional<std::vector<Element>>(std::move(first[0]));
}

Result<size_t> AcyclicCount(const ConjunctiveQuery& q, const Structure& d,
                            size_t limit, YannakakisStats* stats,
                            ResourceGovernor* governor,
                            unsigned num_threads) {
  Yannakakis run(q, d, stats, governor, num_threads);
  CQCS_RETURN_IF_ERROR(run.Prepare(Yannakakis::Passes::kCount));
  if (!run.satisfiable()) {
    CQCS_RETURN_IF_ERROR(FinalTrip(governor));
    return size_t{0};
  }
  Result<size_t> count = run.Count(limit);
  if (!count.ok()) return count;
  CQCS_RETURN_IF_ERROR(FinalTrip(governor));
  return count;
}

Result<std::vector<std::vector<Element>>> AcyclicEnumerate(
    const ConjunctiveQuery& q, const Structure& d, size_t max_results,
    YannakakisStats* stats, ResourceGovernor* governor,
    unsigned num_threads) {
  Yannakakis run(q, d, stats, governor, num_threads);
  CQCS_RETURN_IF_ERROR(run.Prepare(Yannakakis::Passes::kWalk));
  std::vector<std::vector<Element>> out;
  if (!run.satisfiable()) {
    CQCS_RETURN_IF_ERROR(FinalTrip(governor));
    return out;
  }
  CQCS_RETURN_IF_ERROR(run.Enumerate(max_results, &out));
  CQCS_RETURN_IF_ERROR(FinalTrip(governor));
  return out;
}

Result<std::vector<std::vector<Element>>> AcyclicProject(
    const ConjunctiveQuery& q, const Structure& d,
    std::span<const VarId> projection, size_t max_results,
    YannakakisStats* stats, ResourceGovernor* governor,
    unsigned num_threads) {
  for (VarId v : projection) {
    if (v >= q.var_count()) {
      return Status::InvalidArgument("projection variable out of range");
    }
  }
  Yannakakis run(q, d, stats, governor, num_threads);
  CQCS_RETURN_IF_ERROR(run.Prepare(Yannakakis::Passes::kProject));
  if (!run.satisfiable()) {
    CQCS_RETURN_IF_ERROR(FinalTrip(governor));
    return std::vector<std::vector<Element>>();
  }
  Result<std::vector<std::vector<Element>>> rows =
      run.Project(projection, max_results);
  if (!rows.ok()) return rows;
  CQCS_RETURN_IF_ERROR(FinalTrip(governor));
  return rows;
}

Result<size_t> AcyclicProjectCount(const ConjunctiveQuery& q,
                                   const Structure& d,
                                   std::span<const VarId> projection,
                                   size_t limit, YannakakisStats* stats,
                                   ResourceGovernor* governor,
                                   unsigned num_threads) {
  for (VarId v : projection) {
    if (v >= q.var_count()) {
      return Status::InvalidArgument("projection variable out of range");
    }
  }
  Yannakakis run(q, d, stats, governor, num_threads);
  CQCS_RETURN_IF_ERROR(run.Prepare(Yannakakis::Passes::kProject));
  if (!run.satisfiable()) {
    CQCS_RETURN_IF_ERROR(FinalTrip(governor));
    return size_t{0};
  }
  Result<size_t> count = run.ProjectCount(projection, limit);
  if (!count.ok()) return count;
  CQCS_RETURN_IF_ERROR(FinalTrip(governor));
  return count;
}

Result<bool> AcyclicContainment(const ConjunctiveQuery& q1,
                                const ConjunctiveQuery& q2) {
  CQCS_RETURN_IF_ERROR(q1.Validate());
  CQCS_RETURN_IF_ERROR(q2.Validate());
  if (!q1.vocabulary()->Equals(*q2.vocabulary())) {
    return Status::InvalidArgument("queries have different vocabularies");
  }
  if (q1.arity() != q2.arity()) {
    return Status::InvalidArgument("queries have different head arities");
  }
  // Attach head markers to Q2's body (unary atoms are ears, so acyclicity
  // is preserved iff Q2 was acyclic), then evaluate over D_{Q1}.
  CanonicalDb d1 = MakeCanonicalDbWithHeadMarkers(q1);
  ConjunctiveQuery q2_marked(d1.vocabulary, q2.head_name());
  for (VarId v = 0; v < q2.var_count(); ++v) {
    q2_marked.GetOrCreateVar(q2.var_name(v));
  }
  for (const Atom& atom : q2.atoms()) {
    q2_marked.AddAtom(atom.rel, atom.args);
  }
  for (size_t i = 0; i < q2.head().size(); ++i) {
    auto marker = d1.vocabulary->FindRelation("__head_" + std::to_string(i));
    CQCS_CHECK(marker.has_value());
    q2_marked.AddAtom(*marker, {q2.head()[i]});
  }
  q2_marked.SetHead({});
  if (!IsAcyclicQuery(q2_marked)) {
    return Status::InvalidArgument("Q2 is not acyclic");
  }
  return EvaluateBooleanAcyclic(q2_marked, d1.structure);
}

}  // namespace cqcs
