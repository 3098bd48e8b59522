// The residual of a search node: what is left of a constraint network once
// some variables are assigned, as a join forest the relational program can
// count over (YannakakisProgram::FromDomains, cq/acyclic.h).
//
// The backtrack-free leaf rule (docs/solver.md) assigns a cycle cutset
// first (CspInstance::cycle_cutset), so at every leaf the assigned set is
// the same and so is the residual's shape: one ResidualForest per search
// serves every leaf, and only the tables' rows (the live tuples) change.

#ifndef CQCS_SOLVER_RESIDUAL_H_
#define CQCS_SOLVER_RESIDUAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "solver/csp.h"

namespace cqcs {

/// The shape of a network's residual under a fixed assigned set. Node i <
/// constraints.size() stands for constraint constraints[i], one of the
/// residual constraints (those with two or more unassigned variables); its
/// columns vars[i] are those variables, in Constraint::vars order, read
/// from tuple positions positions[i]. Every other node is one variable in
/// no residual constraint, assigned or not, whose column is its live
/// domain: a constraint with at most one unassigned variable is entirely
/// in that variable's domain at a GAC node. `parent` is a join forest over
/// all nodes.
struct ResidualForest {
  std::vector<uint32_t> constraints;
  std::vector<std::vector<Element>> vars;
  std::vector<std::vector<uint32_t>> positions;
  std::vector<uint32_t> parent;

  /// The residual of `csp` with `assigned[v]` != 0 for every assigned
  /// variable. CHECK-fails unless the residual is acyclic (in the GYO
  /// sense), as it is once a cycle cutset is among the assigned.
  static ResidualForest Build(const CspInstance& csp,
                              std::span<const uint8_t> assigned);
};

}  // namespace cqcs

#endif  // CQCS_SOLVER_RESIDUAL_H_
