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
// allocation. An atom over a relation that EnsureIndex has found
// duplicate-free is materialized without a dedup pass.
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

class ResourceGovernor;      // common/governor.h
class TreeDecomposition;     // treewidth/decomposition.h
struct TreewidthSolveStats;  // treewidth/hom_dp.h

/// A join tree over the atoms of a query: node i corresponds to atom i;
/// parents are always removed after their children in GYO elimination.
/// Queries whose hypergraph is disconnected produce a forest (several
/// roots).
struct JoinTree {
  static constexpr uint32_t kNoParent = UINT32_MAX;
  /// parent[i] = atom index of i's parent, or kNoParent for roots.
  std::vector<uint32_t> parent;
};

/// Counters from one Yannakakis run, surfaced through EngineStats and
/// `hom_tool --explain`. `max_table_rows` is the output-boundedness
/// witness: the largest table the run ever held. The program runs on the
/// calling thread, so `workers` only echoes the resolved thread count and
/// `morsels`/`steals` stay 0; they remain for the stats consumers that
/// read every route's pool counters.
struct YannakakisStats {
  uint64_t atom_tables = 0;       ///< tables materialized (one per atom)
  uint64_t rows_materialized = 0; ///< distinct rows loaded into atom tables
  uint64_t max_table_rows = 0;    ///< peak rows in any one table
  uint64_t semijoins = 0;         ///< semijoin operator applications
                                  ///< (0 on count: it runs no semijoins)
  uint64_t rows_pruned = 0;       ///< rows removed by the semijoin passes
                                  ///< (0 on count)
  uint64_t join_rows = 0;         ///< rows produced by the projection phase
  unsigned workers = 0;           ///< resolved worker count of the run
  uint64_t morsels = 0;           ///< always 0: no pool dispatch
  uint64_t steals = 0;            ///< always 0: no pool dispatch
};

/// Yannakakis's program over a join forest of tables. Node i holds a
/// duplicate-free table whose columns are the sorted distinct variables
/// vars[i]; every variable's nodes form a connected subforest (running
/// intersection), and a variable in no node ranges freely over the target
/// universe. Two front ends load it, then run only the passes the task
/// reads:
///
///   task              semijoin passes         match indexes
///   decide            bottom-up               -
///   count             none                    over the unreduced tables
///   witness/enumerate bottom-up               the bottom-up pass's own
///   project(-count)   bottom-up + top-down    -
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
/// is loaded once, by one of the two entry points.
class YannakakisProgram {
 public:
  /// What a task reads; the entry points run exactly those passes.
  enum class Passes {
    kDecide,   ///< bottom-up semijoins; satisfiable() is the answer
    kCount,    ///< no semijoins; match indexes over the unreduced tables
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

  /// Entry point from atoms: validates q against d, runs GYO
  /// (InvalidArgument for cyclic queries or a vocabulary mismatch),
  /// materializes one table per atom of q over d, then runs `passes`.
  /// Variables are q's VarIds.
  Status FromAtoms(const ConjunctiveQuery& q, const Structure& d,
                   Passes passes);

  /// Entry point from bags (defined in treewidth/hom_dp.cc): validates
  /// `decomposition` against a (InvalidArgument as
  /// TreeDecomposition::ValidateFor, or on a vocabulary mismatch), builds
  /// one table per bag holding every assignment of the bag's elements that
  /// maps each tuple of a the bag covers into b, then runs `passes` over
  /// the decomposition's forest. Variables are a's elements, so assignment
  /// rows are homomorphisms a -> b. `stats` (may be null) receives the
  /// width, the join extensions tried (table_entries), the bag-table rows
  /// (table_rows) and the bag dispatch's worker/morsel/steal counters;
  /// `node_tables` (may be null) receives each bag table, row-major, before
  /// any semijoin.
  Status FromBags(const Structure& a, const Structure& b,
                  const TreeDecomposition& decomposition, Passes passes,
                  TreewidthSolveStats* stats = nullptr,
                  std::vector<std::vector<Element>>* node_tables = nullptr);

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
  /// The program proper over the loaded vars_/tables_ and the forest
  /// `parent` (kNoParent for roots): shape, then `passes`.
  Status Run(std::vector<uint32_t> parent, Passes passes);
  /// The semijoin passes: bottom-up, then top-down for kProject. Clears
  /// satisfiable_ when a table empties.
  Status Reduce(Passes passes);
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
  /// Stride poll for the row loops: consults the governor every 1024th
  /// call. Ungoverned runs pay one branch.
  Status PollTick();
  /// The governor's sticky trip, or OK.
  Status TripStatus() const;
  void BumpTable(size_t rows);
  // Helpers for Enumerate's explicit-stack pre-order walk (one recursion
  // frame per node would overflow the stack on ~100k-node forests).
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

  YannakakisStats* stats_;
  ResourceGovernor* gov_;
  unsigned threads_ = 1;  // resolved worker count (FromBags' dispatch)
  uint64_t tick_ = 0;     // PollTick stride counter

  size_t var_count_ = 0;  // variables are [0, var_count_)
  size_t universe_ = 0;   // the range of every variable
  size_t m_ = 0;          // nodes
  std::vector<uint32_t> parent_;
  std::vector<std::vector<VarId>> vars_;  // per node, sorted distinct
  std::vector<rel::Table> tables_;        // columns follow vars_[i]
  std::vector<std::vector<uint32_t>> children_;
  std::vector<uint32_t> roots_;
  std::vector<uint32_t> order_;  // children before parents
  // Shared variables with the parent, ascending; and their column
  // positions on each side (aligned lists).
  std::vector<std::vector<VarId>> shared_vars_;
  std::vector<std::vector<uint32_t>> shared_child_cols_;
  std::vector<std::vector<uint32_t>> shared_parent_cols_;
  // Match index per non-root node, keyed on shared_child_cols_ (kCount and
  // kWalk only; kWalk's are the bottom-up pass's semijoin indexes).
  std::vector<rel::HashIndex> match_index_;
  std::vector<VarId> isolated_;  // variables in no node
  std::vector<Element> assign_;  // Enumerate's scratch
  std::vector<Element> key_scratch_;  // probe-key scratch (the key is
                                      // consumed by FindFirst before any
                                      // recursion, so one buffer serves
                                      // every depth)
  std::vector<uint32_t> seq_;  // forest pre-order
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
