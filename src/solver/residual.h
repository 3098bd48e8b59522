// The residual of a search node: what is left of a constraint network once
// some variables are assigned, as a join forest the relational program can
// count over (YannakakisProgram::FromDomains, cq/acyclic.h).
//
// The backtrack-free leaf rule (docs/solver.md) assigns a cycle cutset
// first (CspInstance::cycle_cutset), so at every leaf the assigned set is
// the same and so is the residual's shape. The search builds one
// ResidualForest before its first node, and every leaf, on every worker,
// reads it: a leaf loads only its tables' rows (the live tuples) and runs
// no GYO and no shape derivation.

#ifndef CQCS_SOLVER_RESIDUAL_H_
#define CQCS_SOLVER_RESIDUAL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cq/acyclic.h"
#include "solver/backtracking.h"
#include "solver/csp.h"

namespace cqcs {

/// A network's residual under a fixed assigned set. Node i <
/// constraints.size() of `shape` stands for constraint constraints[i], one
/// of the residual constraints (those with two or more unassigned
/// variables); its columns shape.vars(i) are those variables, in
/// Constraint::vars order, read from tuple positions positions[i]. Every
/// other node is one variable in no residual constraint, assigned or not,
/// whose column is its live domain: a constraint with at most one
/// unassigned variable is entirely in that variable's domain at a GAC node.
struct ResidualForest {
  JoinTree shape;
  std::vector<uint32_t> constraints;
  std::vector<std::vector<uint32_t>> positions;

  /// The residual below the leaves of a search over `csp` that projects
  /// onto `projection`: the projection and the cycle cutset are assigned.
  /// nullopt where the leaf rule does not apply: it needs MAC, a cycle
  /// cutset, and something to branch on before a leaf (an acyclic network
  /// without projection has nothing, and its leaf would be the root).
  static std::optional<ResidualForest> ForSearch(
      const CspInstance& csp, const SolveOptions& options,
      std::span<const Element> projection);
};

}  // namespace cqcs

#endif  // CQCS_SOLVER_RESIDUAL_H_
