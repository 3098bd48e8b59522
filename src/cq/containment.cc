#include "cq/containment.h"

#include "api/engine.h"

namespace cqcs {

namespace {

// IsContainedViaEvaluation's node-limit error. The engine-routed wrappers
// get theirs (and kResourceExhausted for a governor trip) from HomEngine's
// one-call API.
Status NodeLimitError() {
  return Status::Unsupported(
      "node limit reached before the containment test was decided");
}

/// Engine with the caller's search options (governor included) and kAuto
/// routing — the one battle-tested path every public convenience goes
/// through.
HomEngine MakeEngine(const SolveOptions& options) {
  EngineOptions engine_options;
  engine_options.solve = options;
  return HomEngine(engine_options);
}

}  // namespace

Status CheckComparableQueries(const ConjunctiveQuery& q1,
                              const ConjunctiveQuery& q2) {
  CQCS_RETURN_IF_ERROR(q1.Validate());
  CQCS_RETURN_IF_ERROR(q2.Validate());
  if (!q1.vocabulary()->Equals(*q2.vocabulary())) {
    return Status::InvalidArgument(
        "containment requires a common EDB vocabulary");
  }
  if (q1.arity() != q2.arity()) {
    return Status::InvalidArgument(
        "containment requires equal head arities (got " +
        std::to_string(q1.arity()) + " and " + std::to_string(q2.arity()) +
        ")");
  }
  return Status::OK();
}

Result<ContainmentResult> Contains(const ConjunctiveQuery& q1,
                                   const ConjunctiveQuery& q2,
                                   SolveOptions options) {
  // Theorem 2.1: Q1 ⊆ Q2 iff hom(D_{Q2} -> D_{Q1}); FromContainment builds
  // the marked canonical databases (and validates comparability).
  CQCS_ASSIGN_OR_RETURN(HomProblem problem,
                        HomProblem::FromContainment(q1, q2));
  CQCS_ASSIGN_OR_RETURN(std::optional<Homomorphism> witness,
                        MakeEngine(options).FindWitness(problem));
  ContainmentResult result;
  result.contained = witness.has_value();
  result.witness = std::move(witness);
  return result;
}

Result<bool> IsContained(const ConjunctiveQuery& q1,
                         const ConjunctiveQuery& q2, SolveOptions options) {
  CQCS_ASSIGN_OR_RETURN(HomProblem problem,
                        HomProblem::FromContainment(q1, q2));
  return MakeEngine(options).Decide(problem);
}

Result<bool> AreEquivalent(const ConjunctiveQuery& q1,
                           const ConjunctiveQuery& q2, SolveOptions options) {
  CQCS_ASSIGN_OR_RETURN(bool forward, IsContained(q1, q2, options));
  if (!forward) return false;
  return IsContained(q2, q1, options);
}

Result<bool> IsContainedViaEvaluation(const ConjunctiveQuery& q1,
                                      const ConjunctiveQuery& q2,
                                      SolveOptions options) {
  // The second characterization of Theorem 2.1, kept on the raw solver
  // deliberately: it exists to cross-validate the engine-routed hom test.
  CQCS_RETURN_IF_ERROR(CheckComparableQueries(q1, q2));
  // (X1,...,Xn) ∈ Q2(D_{Q1}): solve for homomorphisms from Q2's body into
  // D_{Q1} whose head projection equals Q1's distinguished tuple.
  CanonicalDb d1 = MakeCanonicalDb(q1);
  CanonicalDb body2 = MakeCanonicalDb(q2);
  BacktrackingSolver solver(body2.structure, d1.structure, options);
  SolveStats stats;
  bool found = false;
  solver.ForEachSolution(
      [&](const Homomorphism& h) {
        for (size_t i = 0; i < body2.head.size(); ++i) {
          if (h[body2.head[i]] != d1.head[i]) return true;  // keep looking
        }
        found = true;
        return false;
      },
      &stats);
  if (!found && stats.limit_hit) return NodeLimitError();
  return found;
}

Result<std::vector<std::vector<Element>>> Evaluate(const ConjunctiveQuery& q,
                                                   const Structure& d,
                                                   SolveOptions options) {
  CQCS_ASSIGN_OR_RETURN(HomProblem problem, HomProblem::FromQuery(q, d));
  return MakeEngine(options).Project(problem);
}

Result<bool> EvaluateBoolean(const ConjunctiveQuery& q, const Structure& d,
                             SolveOptions options) {
  CQCS_ASSIGN_OR_RETURN(HomProblem problem, HomProblem::FromQuery(q, d));
  return MakeEngine(options).Decide(problem);
}

Result<ConjunctiveQuery> Minimize(const ConjunctiveQuery& q,
                                  SolveOptions options) {
  CQCS_RETURN_IF_ERROR(q.Validate());
  HomEngine engine = MakeEngine(options);
  ConjunctiveQuery current = q;
  bool changed = true;
  while (changed) {
    changed = false;
    // Dropping an atom only weakens the query, so current ⊆ candidate
    // always; they are equivalent iff candidate ⊆ current, i.e. iff
    // hom(D_{current} -> D_{candidate}). The source D_{current} is shared
    // by every candidate test of this pass, so compile it once and rebind
    // the target — the engine reuses the profile's source half, the GYO
    // verdict, and the decomposition across the whole pass.
    CanonicalDb d_current = MakeCanonicalDbWithHeadMarkers(current);
    CQCS_ASSIGN_OR_RETURN(
        HomProblem base, HomProblem::FromStructures(d_current.structure,
                                                    d_current.structure));
    for (size_t i = 0; i < current.atoms().size(); ++i) {
      ConjunctiveQuery candidate = current.WithoutAtom(i);
      if (!candidate.Validate().ok()) continue;  // dropping broke safety
      CanonicalDb d_candidate = MakeCanonicalDbWithHeadMarkers(candidate);
      CQCS_ASSIGN_OR_RETURN(HomProblem problem,
                            base.WithTarget(std::move(d_candidate.structure)));
      CQCS_ASSIGN_OR_RETURN(bool equivalent, engine.Decide(problem));
      if (equivalent) {
        current = std::move(candidate);
        changed = true;
        break;
      }
    }
  }
  return current;
}

}  // namespace cqcs
