// HomProblem: one value type for every input shape of the paper's central
// problem.
//
// Kolaitis–Vardi's Section 2 shows CQ evaluation, CQ containment, and the
// homomorphism problem are the same question. This module makes that
// concrete: all three input shapes normalize to a pair of structures
// (source A, target B) plus an optional projection —
//
//   FromStructures(A, B)      hom(A -> B) directly;
//   FromQuery(Q, D)           evaluation: A = canonical database of Q's
//                             body, B = D, projection = Q's head;
//   FromContainment(Q1, Q2)   containment: A = D_{Q2}, B = D_{Q1}, both
//                             with head markers (Theorem 2.1).
//
// A HomProblem is a *compiled* instance: the routing artifacts (canonical
// query + GYO join forest, the target's Schaefer classes, min-fill tree
// decomposition) and the solver's constraint network (CspInstance, with
// the CSR support indexes on B's relations) are built lazily on first use
// and cached, so repeated solves — batch evaluation of one query over many databases,
// Minimize's repeated containment tests — pay for compilation once.
// WithTarget() rebinds the target while sharing every source-side cache.
//
// Thread safety: the lazy caches are mutex-guarded, so concurrent solves of
// the same problem are safe; the returned references stay valid for the
// problem's lifetime (copies share the caches).

#ifndef CQCS_API_PROBLEM_H_
#define CQCS_API_PROBLEM_H_

#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/structure.h"
#include "cq/acyclic.h"
#include "cq/query.h"
#include "schaefer/boolean_relation.h"
#include "solver/csp.h"
#include "treewidth/decomposition.h"

namespace cqcs {

class ResourceGovernor;  // common/governor.h

/// What to compute about the instance.
enum class HomTask {
  kDecide,     ///< Is there a homomorphism?
  kWitness,    ///< ... and produce one.
  kCount,      ///< How many homomorphisms (up to EngineOptions::count_limit)?
  kEnumerate,  ///< All homomorphisms, as full source->target rows.
  kProject,    ///< Distinct projections onto projection() — CQ answers.
};

/// A compiled homomorphism problem. Copies are cheap and share the caches.
class HomProblem {
 public:
  /// hom(source -> target). InvalidArgument on vocabulary mismatch or
  /// structures that fail Validate(). Takes the structures by value: a
  /// compiled problem owns its inputs so the cached artifacts (and the
  /// CspInstance's internal pointers) can never dangle. One-shot callers
  /// pay one copy per structure — the price of the reuse design; amortize
  /// it by keeping the problem (or WithTarget rebinds) alive across solves.
  static Result<HomProblem> FromStructures(Structure source, Structure target);

  /// Evaluation of `query` over `database` (Theorem 2.1's first
  /// characterization): source = D_{Q} over the body vocabulary, projection
  /// = the head's elements. Errors mirror cq::Evaluate's validation.
  static Result<HomProblem> FromQuery(const ConjunctiveQuery& query,
                                      Structure database);

  /// Containment q1 ⊆ q2: source = D_{Q2}, target = D_{Q1}, head markers
  /// attached to both. Errors mirror cq::Contains' validation (vocabulary /
  /// head-arity mismatch).
  static Result<HomProblem> FromContainment(const ConjunctiveQuery& q1,
                                            const ConjunctiveQuery& q2);

  /// The same source against a new target, sharing all source-side caches
  /// (canonical query, join forest, decomposition). This is the
  /// batch-evaluation / Minimize reuse path. InvalidArgument on vocabulary
  /// mismatch.
  Result<HomProblem> WithTarget(Structure new_target) const;

  /// Zero-copy rebind for callers that already share ownership of a
  /// validated target (the serving layer's database registry): same cache
  /// sharing as WithTarget(Structure) but no structure copy and no
  /// re-validation — the caller guarantees new_target passed Validate()
  /// when it entered the shared pool. InvalidArgument on null pointers or
  /// vocabulary mismatch.
  Result<HomProblem> WithTarget(
      std::shared_ptr<const Structure> new_target) const;

  const Structure& source() const { return *source_; }
  const Structure& target() const { return *target_; }

  /// Elements of the source to project solutions onto (HomTask::kProject).
  /// Set by FromQuery (the head); empty otherwise.
  std::span<const Element> projection() const { return projection_; }
  /// Overrides the projection. InvalidArgument on out-of-range elements
  /// (the projection is left unchanged).
  Status SetProjection(std::vector<Element> projection);

  // -- Compiled artifacts, built lazily and cached. ------------------------

  /// Is the target's universe {0, 1}?
  bool TargetBoolean() const;

  /// Schaefer classification of the target; 0 when the target is not
  /// Boolean or in no class (Theorem 3.1). Cached.
  SchaeferClassSet TargetSchaeferClasses() const;

  /// The Boolean canonical query of the source (body = source's facts);
  /// the input to the Yannakakis backend.
  const ConjunctiveQuery& SourceCanonicalQuery() const;

  /// GYO's join forest of the source's hypergraph (StructureJoinForest,
  /// cq/gyo.h), shape included, or nullptr when the hypergraph is cyclic.
  /// Its node i is atom i of SourceCanonicalQuery(), so the acyclic route
  /// loads the canonical query over it without running GYO again. Built
  /// once and shared by every WithTarget rebind.
  const JoinTree* SourceJoinForest() const;

  /// GYO verdict on the source's hypergraph: SourceJoinForest() != nullptr.
  bool SourceAcyclic() const;

  /// Min-fill heuristic tree decomposition of the source.
  const TreeDecomposition& SourceDecomposition() const;

  /// Governed variant of the decomposition build: polls `governor` while
  /// the min-fill ordering runs, so a deadline or budget trip surfaces as
  /// kResourceExhausted instead of an unbounded compile. On success the
  /// result is cached exactly like SourceDecomposition(); a tripped build
  /// caches nothing, so a later (re-budgeted) run can complete it. A null
  /// governor degrades to the ungoverned build.
  ///
  /// A non-null `cap` bounds the build as HeuristicDecomposition does (the
  /// router's stage 3). When the elimination stops, cap->stopped is set and
  /// only that verdict is cached: a later call whose cap is below the
  /// cached lower bound is answered from it without eliminating. A cached
  /// decomposition is returned whatever its width (cap->stopped false).
  Status EnsureSourceDecomposition(ResourceGovernor* governor,
                                   WidthCap* cap = nullptr) const;

  /// The constraint network for the uniform backend, with B's CSR support
  /// indexes materialized. Built once per (source, target) pair; the
  /// projection at that time steers its cycle cutset (head first).
  const CspInstance& Csp() const;

 private:
  struct SourceCache;
  struct PairCache;

  HomProblem(std::shared_ptr<const Structure> source,
             std::shared_ptr<const Structure> target,
             std::vector<Element> projection);

  std::shared_ptr<const Structure> source_;
  std::shared_ptr<const Structure> target_;
  std::vector<Element> projection_;
  std::shared_ptr<SourceCache> source_cache_;
  std::shared_ptr<PairCache> pair_cache_;
};

}  // namespace cqcs

#endif  // CQCS_API_PROBLEM_H_
