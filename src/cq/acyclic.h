// Acyclic conjunctive queries — querywidth 1 in the Chekuri–Rajaraman
// terminology the paper discusses ([Yan81], [CR97]). Acyclicity is decided
// by GYO ear removal on the query's hypergraph (cq/gyo.h); a join tree
// witnesses it, and Yannakakis's semijoin program (YannakakisProgram below)
// evaluates acyclic queries in polynomial time: decide, witness, count,
// output-bounded enumeration, and projection whose intermediates stay
// bounded by input x output (the size-bound frame of Valiant & Valiant,
// arXiv:0909.2030). Tables live in the columnar rel/ kernel: flat
// rel::Table rows, rel::HashIndex probes (direct-addressed for a
// one-column key over a small range, hashed otherwise), no per-row
// allocation. An atom with distinct variables over a relation that
// EnsureIndex has found duplicate-free is a read-only view of the
// relation's tuples, copied only once a semijoin drops rows from it; a
// one-column semijoin whose right side is such a view is decided from the
// relations' per-position presence bitsets (Relation::Presence), skipped
// outright when no row can drop; and a one-column semijoin or count key
// over a small range reads a value-indexed array instead of an index
// (rel/ops.h).
//
// The program is not tied to atoms: it runs over any join forest of
// duplicate-free tables (YannakakisProgram below). The treewidth route
// (treewidth/hom_dp.h) feeds it one table per bag of a tree decomposition,
// which is Theorem 5.4's ∃FO^{k+1} evaluation.
//
// Containment Q1 ⊆ Q2 with acyclic Q2 is then polynomial, and needs no
// entry point of its own: Contains/IsContained (cq/containment.h) build
// D_{Q2} with unary head markers, which keep it acyclic, so the engine's
// router sends it to this program over D_{Q1}.

#ifndef CQCS_CQ_ACYCLIC_H_
#define CQCS_CQ_ACYCLIC_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/structure.h"
#include "cq/query.h"
#include "rel/hash_index.h"
#include "rel/table.h"

namespace cqcs {

class Propagator;            // solver/propagator.h
struct ResidualForest;       // solver/residual.h
class ResourceGovernor;      // common/governor.h
class TreeDecomposition;     // treewidth/decomposition.h
struct TreewidthSolveStats;  // treewidth/hom_dp.h

namespace rel {
class SemijoinScratch;  // rel/ops.h
}  // namespace rel

/// The shape of a join forest: everything about it that does not depend on
/// the tables' rows. It is derived once, by Build, from the variable count,
/// each node's variables and the parent links, and then read by every
/// YannakakisProgram run over that forest; only the tables change from run
/// to run. The forest GYO returns (cq/gyo.h) has one node per hyperedge:
/// node i of a query's forest is atom i, and parents are always removed
/// after their children. A disconnected hypergraph gives several roots.
/// The per-node lists are stored flat, so a shape costs a dozen
/// allocations whatever its size: plans cache one each.
struct JoinTree {
  static constexpr uint32_t kNoParent = UINT32_MAX;

  /// The shape of the forest `parent` (kNoParent for roots; no cycles)
  /// whose node i holds the variables nodes[i], each below var_count. A
  /// variable repeated in a node counts once, at its first occurrence, and
  /// that order is the column order of the node's table. Every variable's
  /// nodes must form a connected subforest (running intersection).
  static JoinTree Build(size_t var_count,
                        std::span<const std::vector<VarId>> nodes,
                        std::vector<uint32_t> parent);

  size_t size() const { return parent.size(); }
  /// Node i's distinct variables, in its table's column order.
  std::span<const VarId> vars(uint32_t i) const {
    return Slice(vars_, var_begin_, i);
  }
  std::span<const uint32_t> children(uint32_t i) const {
    return Slice(children_, child_begin_, i);
  }
  /// The variables node i shares with its parent (none at a root), in its
  /// own column order, and their column positions on each side (aligned).
  std::span<const VarId> shared_vars(uint32_t i) const {
    return Slice(shared_vars_, shared_begin_, i);
  }
  std::span<const uint32_t> shared_child_cols(uint32_t i) const {
    return Slice(shared_child_cols_, shared_begin_, i);
  }
  std::span<const uint32_t> shared_parent_cols(uint32_t i) const {
    return Slice(shared_parent_cols_, shared_begin_, i);
  }

  size_t var_count = 0;  ///< variables are [0, var_count)
  /// parent[i] = index of i's parent node, or kNoParent for roots.
  std::vector<uint32_t> parent;
  std::vector<uint32_t> roots;
  /// Children before parents: every node's subtree precedes it. Read
  /// backwards it is a pre-order (parents before children).
  std::vector<uint32_t> order;
  std::vector<VarId> isolated;  ///< variables in no node

 private:
  /// Node i's entries of a flat list: [begin[i], begin[i + 1]).
  template <typename T>
  static std::span<const T> Slice(const std::vector<T>& flat,
                                  const std::vector<uint32_t>& begin,
                                  uint32_t i) {
    return {flat.data() + begin[i], begin[i + 1] - begin[i]};
  }

  std::vector<uint32_t> var_begin_, child_begin_, shared_begin_;
  std::vector<VarId> vars_, shared_vars_;
  std::vector<uint32_t> children_, shared_child_cols_, shared_parent_cols_;
};

/// Counters from one Yannakakis run, surfaced through EngineStats and
/// `hom_tool --explain`. `max_table_rows` is the output-boundedness
/// witness: the largest table the run ever held. The program runs on the
/// calling thread, so `workers` only echoes the resolved thread count and
/// `morsels`/`steals` stay 0; they remain for the stats consumers that
/// read every route's pool counters.
struct YannakakisStats {
  uint64_t atom_tables = 0;       ///< atom tables (one per atom)
  uint64_t rows_materialized = 0; ///< rows the atom tables hold, as a view
                                  ///< or a copy
  uint64_t max_table_rows = 0;    ///< peak rows in any one table
  uint64_t semijoins = 0;         ///< semijoins the passes decided
                                  ///< (0 on count: it runs no semijoins)
  uint64_t semijoins_skipped = 0; ///< of those, decided from presence
                                  ///< bitsets alone, reading no row
  uint64_t rows_pruned = 0;       ///< rows removed by the semijoin passes
                                  ///< (0 on count)
  uint64_t join_rows = 0;         ///< rows produced by the projection phase
  unsigned workers = 0;           ///< resolved worker count of the run
  uint64_t morsels = 0;           ///< always 0: no pool dispatch
  uint64_t steals = 0;            ///< always 0: no pool dispatch
};

/// Yannakakis's program over a join forest of tables. The forest's shape
/// is a JoinTree its caller owns and keeps alive for the program's
/// lifetime: a plan's cached GYO forest, a search's residual forest, or a
/// decomposition's. The program holds only the tables, the walk's match
/// indexes and its counters. Node i's table is duplicate-free, and its
/// columns are shape.vars(i), in an order the front end picks (an atom's
/// argument order, a bag's element order); a variable in no node ranges
/// freely over the target universe. Three front ends load it, then run
/// only the passes the task reads:
///
///   task              semijoin passes         match indexes
///   decide            bottom-up               -
///   count             none                    per child key, unreduced
///   witness/enumerate bottom-up               the bottom-up pass's own
///   project(-count)   bottom-up + top-down    -
///
/// Every semijoin of those passes (either direction, and the walk's probe,
/// whose match index is still built) first tries the presence rule. For
/// each edge with a one-column connector, FromAtoms records the presence
/// bitsets of both atoms' relations at the connector (Relation::Presence,
/// built with the position index; a repeated variable's first position).
/// A right table that is still an unreduced view (rel::Table::borrowed)
/// holds exactly its bitset, and any atom table holds a subset of its own.
/// So when the left bitset is a subset of the right one, no left row can
/// drop: the semijoin is skipped, counted in semijoins_skipped, and the
/// left table stays as it is, a view if it was one. An uncovered semijoin
/// with a view on the right reads the view's bitset instead of marking
/// its rows. Multi-column keys, copied or reduced right tables, relations
/// without a position index, and FromBags/FromDomains tables read rows.
///
/// A one-column semijoin or count key whose values fit the direct bound
/// (rel::HashIndex::DirectSlots) reads a value-indexed array, reused
/// across nodes, instead of building an index; only the walk keeps
/// chained match indexes for every key.
///
/// After the bottom-up pass every surviving row extends into its subtree,
/// so a walk from the roots never dead-ends: a match-index probe reaches
/// exactly the child rows the top-down pass would keep, in the same chain
/// order. Projection needs the full reduction, since its join-project pass
/// skips a child's identity join only when every parent row has a match.
/// Count is one bottom-up sum-product pass in which a row whose subtree has
/// no match sums to 0.
///
/// Parallelism: every pass runs on the calling thread. Per-node morsel
/// dispatch made the count slower at each added thread, since most join
/// forest nodes hold far fewer rows than a morsel
/// (docs/relational_kernel.md). The one parallel phase is FromBags' bag
/// construction, which fans the independent bag joins out over the shared
/// MorselPool (`num_threads`, SolveOptions convention); answers and all
/// stats except workers/steals are identical at every thread count.
///
/// A governor trip in any phase unwinds with kResourceExhausted; the
/// caller must then discard every output (no torn results). Each program
/// is loaded once, by one of the entry points.
class YannakakisProgram {
 public:
  /// What a task reads; the entry points run exactly those passes.
  enum class Passes {
    kDecide,   ///< bottom-up semijoins; satisfiable() is the answer
    kCount,    ///< no semijoins; Count keys each child's unreduced table
    kWalk,     ///< bottom-up semijoins, keeping their indexes as the match
               ///< indexes (witness, enumerate)
    kProject,  ///< full reduction, no match indexes (project, its count)
  };

  /// `stats` (may be null) receives the program's counters. `num_threads`
  /// sizes FromBags' bag dispatch.
  explicit YannakakisProgram(YannakakisStats* stats = nullptr,
                             ResourceGovernor* governor = nullptr,
                             unsigned num_threads = 1);
  YannakakisProgram(const YannakakisProgram&) = delete;
  YannakakisProgram& operator=(const YannakakisProgram&) = delete;

  /// Entry point from atoms: loads one table per atom of q over d, then
  /// runs `passes` over `shape`, q's join forest as GyoJoinForest returns
  /// it (node i is atom i, its columns the atom's distinct variables in
  /// first-occurrence order). q must be valid over d's vocabulary; the
  /// Acyclic* functions below check that and run GYO. Variables are q's
  /// VarIds. An atom with distinct variables over a relation whose
  /// duplicate_free() is true borrows the relation's storage (a rel::Table
  /// view), so d must outlive the program and stay unmodified; any other
  /// atom is materialized.
  Status FromAtoms(const ConjunctiveQuery& q, const JoinTree& shape,
                   const Structure& d, Passes passes);

  /// Entry point from bags (defined in treewidth/hom_dp.cc): validates
  /// `decomposition` against a (InvalidArgument as
  /// TreeDecomposition::ValidateFor, or on a vocabulary mismatch), builds
  /// one table per bag holding every assignment of the bag's elements that
  /// maps each tuple of a the bag covers into b, then runs `passes` over
  /// the decomposition's forest. The forest's shape is built into *shape,
  /// which the caller owns, once the decomposition is validated. Variables
  /// are a's elements, so assignment rows are homomorphisms a -> b.
  /// `stats` (may be null) receives the width, the join extensions tried
  /// (table_entries), the bag-table rows (table_rows) and the bag
  /// dispatch's worker/morsel/steal counters; `node_tables` (may be null)
  /// receives each bag table, row-major, before any semijoin.
  Status FromBags(const Structure& a, const Structure& b,
                  const TreeDecomposition& decomposition, JoinTree* shape,
                  Passes passes, TreewidthSolveStats* stats = nullptr,
                  std::vector<std::vector<Element>>* node_tables = nullptr);

  /// Entry point from a search node (defined in solver/residual.cc): one
  /// table per node of `forest.shape`, holding a residual constraint's live
  /// tuples (Propagator::ForEachLiveTuple) projected onto its unassigned
  /// variables, or a variable's live domain; then `passes` over the
  /// forest. Variables are the network's, and every one is in a node, so
  /// an assignment row is a homomorphism extending the node. At a GAC node
  /// (a MAC fixpoint) Count is then the number of solutions below it: a
  /// constraint with at most one unassigned variable allows every value
  /// left in that variable's domain.
  Status FromDomains(const Propagator& prop, const ResidualForest& forest,
                     Passes passes);

  /// False when some table emptied: no assignment satisfies the forest.
  /// After kCount only a loaded table can have emptied, so true does not
  /// imply a solution exists.
  bool satisfiable() const { return satisfiable_; }

  // The tasks below require satisfiable() and the Passes named on each.

  /// Appends up to max_results assignments (indexed by variable) to *out.
  /// kWalk.
  Status Enumerate(size_t max_results, std::vector<std::vector<Element>>* out);

  /// min(#assignments, limit); 0 at limit 0. kCount.
  Result<size_t> Count(size_t limit);

  /// Distinct projections onto `proj` (variables, repeats allowed), up to
  /// max_results. kProject.
  Result<std::vector<std::vector<Element>>> Project(
      std::span<const VarId> proj, size_t max_results);

  /// min(#distinct projections onto `proj`, limit) via the same bottom-up
  /// reduction as Project, without assembling the cross product. kProject.
  Result<size_t> ProjectCount(std::span<const VarId> proj, size_t limit);

 private:
  /// The program proper over the loaded tables_ and *shape_: `passes`.
  Status Run(Passes passes);
  /// The semijoin passes: bottom-up, then top-down for kProject. Clears
  /// satisfiable_ when a table empties.
  Status Reduce(Passes passes);
  /// Loads every atom's table: a view where one serves, else a
  /// materialized copy memoized per (relation, column map).
  Status MaterializeAll(const ConjunctiveQuery& q, const Structure& d);
  /// Materializes atom `i`'s table (a group representative: no memo hit),
  /// deduplicating it unless the relation is known duplicate-free.
  Status MaterializeGroup(const ConjunctiveQuery& q, const Structure& d,
                          size_t i, const std::vector<uint32_t>& col_of_arg);
  /// The bottom-up join-project pass shared by Project and ProjectCount:
  /// fills r_table/r_cols per node (see Project for the invariants).
  /// r_table stays empty for a non-root node that keeps only its
  /// connector: its parent's join with it is an identity, so no one
  /// reads it.
  Status ProjectReduce(std::span<const VarId> proj,
                       std::vector<rel::Table>* r_table,
                       std::vector<std::vector<VarId>>* r_cols);
  /// Records edge_presence_ (FromAtoms, semijoin passes only).
  void RecordEdgePresence(const ConjunctiveQuery& q, const Structure& d);
  /// One semijoin on the edge from `child` to its parent: parent ⋉ child
  /// when `up` (the bottom-up pass), else child ⋉ parent. Skipped when
  /// edge_presence_ shows it covered; otherwise an unreduced view's
  /// presence serves as the right side's bitset, and `child_index` (kWalk's
  /// match index over the child, up only) is probed when there is none.
  void SemijoinEdge(uint32_t child, bool up, rel::SemijoinScratch& scratch,
                    const rel::HashIndex* child_index);
  /// Stride poll for the row loops: consults the governor every 1024th
  /// call. Ungoverned runs pay one branch.
  Status PollTick();
  /// The governor's sticky trip, or OK.
  Status TripStatus() const;
  void BumpTable(size_t rows);
  // Helpers for Enumerate's explicit-stack pre-order walk (one recursion
  // frame per node would overflow the stack on ~100k-node forests). The
  // walk visits shape_->order backwards, parents first.
  /// First row of `node`'s table matching the ancestors in assign_ (all
  /// rows for roots), or HashIndex::kNone.
  uint32_t FirstRow(uint32_t node);
  /// Next row of `node`'s table with the same key, or kNone.
  uint32_t NextRow(uint32_t node, uint32_t r) const;
  /// Copies row r of `node`'s table into assign_.
  void WriteRow(uint32_t node, uint32_t r);
  /// Appends the isolated-variable expansions of the current assign_;
  /// false once *out reached max_results (aborts the walk).
  bool EmitAssignment(size_t max_results,
                      std::vector<std::vector<Element>>* out);

  YannakakisStats* stats_;
  ResourceGovernor* gov_;
  unsigned threads_ = 1;  // resolved worker count (FromBags' dispatch)
  uint64_t tick_ = 0;     // PollTick stride counter

  const JoinTree* shape_ = nullptr;  // the caller's; set by the entry point
  size_t universe_ = 0;               // the range of every variable
  std::vector<rel::Table> tables_;    // columns follow shape_->vars(i); an
                                      // atom's may be a view
  // Per non-root node of a FromAtoms program with a one-column connector:
  // its relations' presence bitsets (Relation::Presence) at the
  // connector's first position in the node's atom (`child`) and in its
  // parent's (`parent`). Each holds every value the column can hold, and
  // exactly those while the table is an unreduced view. Spans are empty
  // where a relation has no position index, and the whole vector is empty
  // for FromBags and FromDomains, whose tables are never views.
  struct EdgePresence {
    std::span<const uint64_t> child, parent;
  };
  std::vector<EdgePresence> edge_presence_;
  // Match index per non-root node, keyed on shape_->shared_child_cols
  // (kWalk only: the bottom-up pass's semijoin indexes).
  std::vector<rel::HashIndex> match_index_;
  std::vector<Element> assign_;  // Enumerate's scratch
  std::vector<Element> key_scratch_;  // probe-key scratch (the key is
                                      // consumed by FindFirst before any
                                      // recursion, so one buffer serves
                                      // every depth)
  bool satisfiable_ = false;
};

/// Yannakakis evaluation of a Boolean acyclic query: one bottom-up
/// semijoin sweep over the join tree. Works for any query head (the head
/// is ignored; this answers "is the body satisfiable in d" — variables
/// outside every atom do not constrain the answer). Errors:
/// InvalidArgument for cyclic queries or vocabulary mismatch.
///
/// All evaluation entry points accept an optional per-request
/// ResourceGovernor (common/governor.h): the materialization, semijoin,
/// and task phases poll it on a row/node stride and charge table growth
/// against its memory budget; a trip unwinds with kResourceExhausted and
/// no partial output.
///
/// They also take `num_threads` (same convention as
/// SolveOptions::num_threads), which only sets YannakakisStats::workers:
/// the atom route runs on the calling thread at every thread count.
Result<bool> EvaluateBooleanAcyclic(const ConjunctiveQuery& q,
                                    const Structure& d,
                                    YannakakisStats* stats = nullptr,
                                    ResourceGovernor* governor = nullptr,
                                    unsigned num_threads = 1);

// -- Assignment-level tasks. -----------------------------------------------
//
// The following answer about total assignments of ALL q.var_count()
// variables into d's universe: a variable in no atom ranges freely over
// the universe (for the canonical query of a structure, those are the
// isolated source elements). Each is a thin wrapper over
// YannakakisProgram::FromAtoms and one task. Errors mirror
// EvaluateBooleanAcyclic.

/// One satisfying assignment (indexed by VarId), or nullopt.
Result<std::optional<std::vector<Element>>> AcyclicWitness(
    const ConjunctiveQuery& q, const Structure& d,
    YannakakisStats* stats = nullptr, ResourceGovernor* governor = nullptr,
    unsigned num_threads = 1);

/// Number of satisfying assignments, saturated at `limit` (the result is
/// min(true count, limit), so callers can cap astronomically large
/// counts without overflow). One bottom-up sum-product pass over the
/// unreduced atom tables; saturation is exact in any order, since
/// min(a·b, L) = min(min(a,L)·min(b,L), L).
Result<size_t> AcyclicCount(const ConjunctiveQuery& q, const Structure& d,
                            size_t limit = SIZE_MAX,
                            YannakakisStats* stats = nullptr,
                            ResourceGovernor* governor = nullptr,
                            unsigned num_threads = 1);

/// Up to max_results satisfying assignments, each indexed by VarId.
/// Output-bounded: after the bottom-up pass every row the walk reaches
/// extends into its subtree, so it never backtracks past a dead row.
Result<std::vector<std::vector<Element>>> AcyclicEnumerate(
    const ConjunctiveQuery& q, const Structure& d,
    size_t max_results = SIZE_MAX, YannakakisStats* stats = nullptr,
    ResourceGovernor* governor = nullptr, unsigned num_threads = 1);

/// Distinct projections of the satisfying assignments onto `projection`
/// (a list of VarIds, repeats allowed), up to max_results rows. This is
/// CQ answer enumeration when q is a canonical query and `projection` its
/// head. Joins are projected down to (output ∪ connector) columns at
/// every node, keeping intermediates output-bounded. InvalidArgument for
/// out-of-range projection variables.
Result<std::vector<std::vector<Element>>> AcyclicProject(
    const ConjunctiveQuery& q, const Structure& d,
    std::span<const VarId> projection, size_t max_results = SIZE_MAX,
    YannakakisStats* stats = nullptr, ResourceGovernor* governor = nullptr,
    unsigned num_threads = 1);

/// min(#distinct projections onto `projection`, limit) — the count
/// AcyclicProject's rows would have, without materializing them. Runs the
/// same bottom-up join-project reduction (per-node hash-set dedup keeps
/// intermediates output-bounded) and then multiplies root-table row
/// counts instead of assembling the cross product: per join-forest tree
/// the reduced root rows are distinct projections of that tree's
/// variables, so the product — times universe^|isolated projection vars|
/// — is exactly the distinct-row count, saturated at `limit`. Errors
/// mirror AcyclicProject.
Result<size_t> AcyclicProjectCount(const ConjunctiveQuery& q,
                                   const Structure& d,
                                   std::span<const VarId> projection,
                                   size_t limit = SIZE_MAX,
                                   YannakakisStats* stats = nullptr,
                                   ResourceGovernor* governor = nullptr,
                                   unsigned num_threads = 1);

}  // namespace cqcs

#endif  // CQCS_CQ_ACYCLIC_H_
