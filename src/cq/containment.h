// Conjunctive-query containment, evaluation, and equivalence — the
// Chandra–Merlin machinery (Theorem 2.1 of the paper).

#ifndef CQCS_CQ_CONTAINMENT_H_
#define CQCS_CQ_CONTAINMENT_H_

#include <optional>

#include "cq/canonical.h"
#include "cq/query.h"
#include "solver/backtracking.h"

namespace cqcs {

/// Outcome of a containment test, optionally with the witnessing containment
/// mapping (a homomorphism D_{Q2} -> D_{Q1}, indexed by Q2's variables).
struct ContainmentResult {
  bool contained = false;
  std::optional<Homomorphism> witness;
};

/// Validates that Q1 ⊆ Q2 is well-defined: both queries pass Validate(),
/// share an EDB vocabulary, and have equal head arities. The single source
/// of the containment error contract — used by every containment entry
/// point here and by the engine's HomProblem::FromContainment.
Status CheckComparableQueries(const ConjunctiveQuery& q1,
                              const ConjunctiveQuery& q2);

/// Decides Q1 ⊆ Q2. Errors: InvalidArgument when the queries have different
/// body vocabularies or head arities (containment is then undefined);
/// Unsupported when `options.node_limit` was hit before a decision;
/// ResourceExhausted when `options.governor` tripped before one. The
/// engine (api/engine.h) routes the instance, so an acyclic Q2 is decided
/// by the Yannakakis program in polynomial time.
Result<ContainmentResult> Contains(const ConjunctiveQuery& q1,
                                   const ConjunctiveQuery& q2,
                                   SolveOptions options = {});

/// Convenience wrapper around Contains.
Result<bool> IsContained(const ConjunctiveQuery& q1,
                         const ConjunctiveQuery& q2,
                         SolveOptions options = {});

/// Q1 ≡ Q2 (containment both ways).
Result<bool> AreEquivalent(const ConjunctiveQuery& q1,
                           const ConjunctiveQuery& q2,
                           SolveOptions options = {});

/// The second characterization of Theorem 2.1: Q1 ⊆ Q2 iff the tuple of
/// Q1's distinguished variables is in Q2(D_{Q1}). Exists for
/// cross-validation of the homomorphism route; asymptotically equivalent.
Result<bool> IsContainedViaEvaluation(const ConjunctiveQuery& q1,
                                      const ConjunctiveQuery& q2,
                                      SolveOptions options = {});

/// Evaluates Q over database D (same vocabulary): the set of answer tuples,
/// each of length arity(Q). Errors as in Contains.
Result<std::vector<std::vector<Element>>> Evaluate(const ConjunctiveQuery& q,
                                                   const Structure& d,
                                                   SolveOptions options = {});

/// Evaluates a Boolean (nullary) query: is there any satisfying assignment?
Result<bool> EvaluateBoolean(const ConjunctiveQuery& q, const Structure& d,
                             SolveOptions options = {});

/// Minimizes Q by the classical Chandra–Merlin procedure: greedily drop
/// atoms whose removal keeps the query equivalent. The result is a core:
/// no further atom can be removed. Exponential in the worst case (each step
/// is a containment test).
Result<ConjunctiveQuery> Minimize(const ConjunctiveQuery& q,
                                  SolveOptions options = {});

}  // namespace cqcs

#endif  // CQCS_CQ_CONTAINMENT_H_
