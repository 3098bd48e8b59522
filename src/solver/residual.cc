#include "solver/residual.h"

#include <utility>

#include "common/check.h"
#include "common/governor.h"
#include "cq/acyclic.h"
#include "cq/gyo.h"
#include "rel/ops.h"
#include "rel/table.h"
#include "solver/propagator.h"

namespace cqcs {

ResidualForest ResidualForest::Build(const CspInstance& csp,
                                     std::span<const uint8_t> assigned) {
  ResidualForest forest;
  std::vector<uint8_t> covered(csp.var_count(), 0);
  const std::vector<Constraint>& constraints = csp.constraints();
  for (uint32_t ci = 0; ci < constraints.size(); ++ci) {
    const Constraint& c = constraints[ci];
    std::vector<Element> vars;
    std::vector<uint32_t> positions;
    for (size_t i = 0; i < c.vars.size(); ++i) {
      if (assigned[c.vars[i]]) continue;
      vars.push_back(c.vars[i]);
      positions.push_back(c.pos_of_var(i));
    }
    if (vars.size() < 2) continue;
    for (Element v : vars) covered[v] = 1;
    forest.constraints.push_back(ci);
    forest.vars.push_back(std::move(vars));
    forest.positions.push_back(std::move(positions));
  }
  for (Element v = 0; v < csp.var_count(); ++v) {
    if (!covered[v]) forest.vars.push_back({v});
  }
  // Berge-acyclic once a cycle cutset is assigned, hence α-acyclic.
  auto join_forest = GyoJoinForest(csp.var_count(), forest.vars);
  CQCS_CHECK(join_forest.has_value());
  forest.parent = std::move(join_forest->parent);
  return forest;
}

Status YannakakisProgram::FromDomains(const Propagator& prop,
                                      const ResidualForest& forest,
                                      Passes passes) {
  if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->Poll());
  const CspInstance& csp = prop.csp();
  var_count_ = csp.var_count();
  universe_ = csp.domain_size();
  m_ = forest.vars.size();
  vars_ = forest.vars;
  tables_.resize(m_);
  const size_t constraint_nodes = forest.constraints.size();
  for (size_t i = 0; i < m_; ++i) {
    if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->Poll());
    const auto width = static_cast<uint32_t>(vars_[i].size());
    rel::Table& table = tables_[i];
    table = rel::Table(width);
    table.AttachGovernor(gov_);
    if (i >= constraint_nodes) {
      prop.ForEachValue(vars_[i][0], [&](size_t v) {
        *table.AppendRowSlot() = static_cast<Element>(v);
      });
      BumpTable(table.row_count());
      continue;
    }
    // The live tuples, projected onto the unassigned variables. Live tuples
    // agree on every assigned position, so a duplicate-free relation gives
    // duplicate-free rows; any other relation is deduplicated here.
    const uint32_t ci = forest.constraints[i];
    const std::vector<uint32_t>& positions = forest.positions[i];
    prop.ForEachLiveTuple(ci, [&](const Element* tuple) {
      Element* row = table.AppendRowSlot();
      for (uint32_t k = 0; k < width; ++k) row[k] = tuple[positions[k]];
    });
    const Relation& rb = csp.b().relation(csp.constraints()[ci].rel);
    if (!rb.duplicate_free().value_or(false)) {
      std::vector<uint32_t> all_cols(width);
      for (uint32_t k = 0; k < width; ++k) all_cols[k] = k;
      table.KeepRows(rel::FirstOccurrences(table, all_cols, gov_));
    }
    BumpTable(table.row_count());
  }
  CQCS_RETURN_IF_ERROR(TripStatus());
  return Run(forest.parent, passes);
}

}  // namespace cqcs
