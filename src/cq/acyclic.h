// Acyclic conjunctive queries — querywidth 1 in the Chekuri–Rajaraman
// terminology the paper discusses ([Yan81], [CR97]). Acyclicity is decided
// by GYO ear removal on the query's hypergraph (cq/gyo.h); a join tree
// witnesses it, and Yannakakis's semijoin program evaluates acyclic
// queries in polynomial time — not just Boolean decide: after the
// bottom-up + top-down semijoin reduction every surviving table row
// participates in at least one solution, which makes witness extraction a
// single top-down walk, enumeration output-bounded (poly delay per
// solution), and projection a bottom-up join-project pass whose
// intermediates stay bounded by input x output (the size-bound frame of
// Valiant & Valiant, arXiv:0909.2030). Counting needs no reduction: it is
// one bottom-up sum-product pass in which a row with no match below sums
// to 0. Each task runs only the passes it reads. Tables live in the
// columnar rel/ kernel: flat rel::Table rows, open-addressing
// rel::HashIndex probes, no per-row allocation.
//
// Containment Q1 ⊆ Q2 with acyclic Q2 is then polynomial: attach the head
// markers to Q2 (unary atoms keep it acyclic) and evaluate over D_{Q1}.

#ifndef CQCS_CQ_ACYCLIC_H_
#define CQCS_CQ_ACYCLIC_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/structure.h"
#include "cq/query.h"

namespace cqcs {

class ResourceGovernor;  // common/governor.h

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
/// witness: the largest table the run ever held. The worker/morsel/steal
/// trio describes the morsel-parallel dispatches (common/work_pool.h):
/// `workers` and `morsels` are deterministic for a given input and thread
/// count (morsel decomposition depends only on table sizes); `steals` is
/// scheduling-dependent and excluded from thread-invariance oracles.
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
  uint64_t morsels = 0;           ///< morsel dispatches across all passes
  uint64_t steals = 0;            ///< morsels run by pool (non-calling) threads
};

/// True iff the query's hypergraph is α-acyclic (GYO reduces it away).
bool IsAcyclicQuery(const ConjunctiveQuery& q);

/// Builds a join tree; InvalidArgument when the query is cyclic.
Result<JoinTree> BuildJoinTree(const ConjunctiveQuery& q);

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
/// SolveOptions::num_threads: 1 = sequential, 0 = one per hardware
/// thread, N = N workers): the materialization, semijoin, count, and
/// join phases then run as morsels on the shared MorselPool. Results and
/// all stats except workers/steals are byte-identical at every thread
/// count — parallelism changes wall-clock, never the answer.
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
// isolated source elements). Witness, enumerate and the projections run
// the full reduction (bottom-up + top-down); count runs none. Errors
// mirror EvaluateBooleanAcyclic.

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
/// Output-bounded: the reduced tables contain no dead rows, so the walk
/// never backtracks past a row that fails to extend.
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

/// Containment Q1 ⊆ Q2 for acyclic Q2, in polynomial time. Q1 is
/// arbitrary. Errors mirror Contains(), plus InvalidArgument when Q2
/// (with head markers attached) is not acyclic.
Result<bool> AcyclicContainment(const ConjunctiveQuery& q1,
                                const ConjunctiveQuery& q2);

}  // namespace cqcs

#endif  // CQCS_CQ_ACYCLIC_H_
