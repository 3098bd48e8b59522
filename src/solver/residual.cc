#include "solver/residual.h"

#include <optional>
#include <utility>

#include "common/check.h"
#include "common/governor.h"
#include "cq/acyclic.h"
#include "cq/gyo.h"
#include "rel/ops.h"
#include "rel/table.h"
#include "solver/propagator.h"

namespace cqcs {

std::optional<ResidualForest> ResidualForest::ForSearch(
    const CspInstance& csp, const SolveOptions& options,
    std::span<const Element> projection) {
  const std::optional<std::vector<Element>>& cutset = csp.cycle_cutset();
  if (!cutset.has_value() || options.propagation != Propagation::kMac ||
      (projection.empty() && cutset->empty())) {
    return std::nullopt;
  }
  std::vector<uint8_t> assigned(csp.var_count(), 0);
  for (Element v : projection) {
    CQCS_CHECK(v < csp.var_count());
    assigned[v] = 1;
  }
  for (Element v : *cutset) assigned[v] = 1;

  ResidualForest forest;
  std::vector<std::vector<Element>> node_vars;
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
    node_vars.push_back(std::move(vars));
    forest.positions.push_back(std::move(positions));
  }
  for (Element v = 0; v < csp.var_count(); ++v) {
    if (!covered[v]) node_vars.push_back({v});
  }
  // Berge-acyclic once a cycle cutset is assigned, hence α-acyclic.
  std::optional<JoinTree> shape = GyoJoinForest(csp.var_count(), node_vars);
  CQCS_CHECK(shape.has_value());
  forest.shape = *std::move(shape);
  return forest;
}

Status YannakakisProgram::FromDomains(const Propagator& prop,
                                      const ResidualForest& forest,
                                      Passes passes) {
  if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->Poll());
  const CspInstance& csp = prop.csp();
  shape_ = &forest.shape;
  universe_ = csp.domain_size();
  const size_t m = forest.shape.size();
  tables_.resize(m);
  const size_t constraint_nodes = forest.constraints.size();
  for (size_t i = 0; i < m; ++i) {
    if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->Poll());
    const std::span<const VarId> vars = forest.shape.vars(i);
    const auto width = static_cast<uint32_t>(vars.size());
    rel::Table& table = tables_[i];
    table = rel::Table(width);
    table.AttachGovernor(gov_);
    if (i >= constraint_nodes) {
      prop.ForEachValue(vars[0], [&](size_t v) {
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
  return Run(passes);
}

}  // namespace cqcs
