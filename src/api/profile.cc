#include "api/profile.h"

#include <cstdint>
#include <sstream>

#include "common/saturating.h"

namespace cqcs {

void FillSizeStats(const Structure& a, const Structure& b,
                   InstanceProfile* profile) {
  profile->source_universe = a.universe_size();
  profile->source_tuples = a.TotalTuples();
  profile->source_size = a.Size();
  profile->target_universe = b.universe_size();
  profile->target_tuples = b.TotalTuples();
  profile->target_size = b.Size();
}

double EstimateTreewidthDpCost(size_t bags, int width,
                               size_t target_universe) {
  if (width < 0) return 0.0;
  // Saturating integer math: m^(w+1) on a large universe with a wide bag
  // saturates at SIZE_MAX, which lands far above any router budget, so
  // saturation only needs to preserve "huge", not the exact value.
  size_t entries = SatPow(target_universe,
                          static_cast<size_t>(width) + 1, SIZE_MAX);
  return static_cast<double>(SatMul(bags, entries, SIZE_MAX));
}

int TreewidthWidthCap(size_t source_universe, size_t target_universe,
                      int max_width, double budget) {
  // No decomposition is wider than the universe, so the scan stops there.
  int cap = -1;
  while (cap < max_width && static_cast<size_t>(cap) + 1 < source_universe &&
         EstimateTreewidthDpCost(source_universe, cap + 1, target_universe) <=
             budget) {
    ++cap;
  }
  return cap;
}

size_t EstimateTreewidthDpBytes(size_t bags, int width,
                                size_t target_universe) {
  if (width < 0) return 0;
  size_t entries = SatPow(target_universe,
                          static_cast<size_t>(width) + 1, SIZE_MAX);
  size_t rows = SatMul(bags, entries, SIZE_MAX);
  size_t row_bytes =
      SatMul(static_cast<size_t>(width) + 1, sizeof(Element), SIZE_MAX);
  return SatMul(rows, row_bytes, SIZE_MAX);
}

size_t EstimateAcyclicBytes(const Structure& a, const Structure& b) {
  size_t total = 0;
  const Vocabulary& vocab = *a.vocabulary();
  for (RelId id = 0; id < vocab.size(); ++id) {
    size_t row_bytes = SatMul(vocab.arity(id), sizeof(Element), SIZE_MAX);
    size_t per_atom =
        SatMul(b.relation(id).tuple_count(), row_bytes, SIZE_MAX);
    total = SatAdd(
        total, SatMul(a.relation(id).tuple_count(), per_atom, SIZE_MAX),
        SIZE_MAX);
  }
  return total;
}

std::string InstanceProfile::ToString() const {
  std::ostringstream out;
  out << "source ‖A‖=" << source_size << " (n=" << source_universe
      << ", tuples=" << source_tuples << "), target ‖B‖=" << target_size
      << " (n=" << target_universe << ", tuples=" << target_tuples << "), ";
  if (target_boolean) {
    out << "Boolean target ["
        << (schaefer_classes != 0 ? SchaeferClassSetToString(schaefer_classes)
                                  : std::string("no Schaefer class"))
        << "], ";
  } else {
    out << "non-Boolean target, ";
  }
  if (acyclicity_known) {
    out << (source_acyclic ? "acyclic" : "cyclic") << " source, ";
  } else {
    out << "acyclicity not evaluated, ";
  }
  if (width_known && width_lower_bound) {
    out << "width>=" << width_estimate << " (min-fill stopped after "
        << eliminations_done << " of " << source_universe
        << " eliminations)";
  } else if (width_known) {
    out << "width<=" << width_estimate << " (" << decomposition_bags
        << " bags, est. DP cost " << treewidth_dp_cost << ")";
  } else {
    out << "width not estimated";
  }
  return out.str();
}

std::string InstanceProfile::ToJson() const {
  std::ostringstream out;
  out << "{\"source_universe\":" << source_universe
      << ",\"source_tuples\":" << source_tuples
      << ",\"source_size\":" << source_size
      << ",\"target_universe\":" << target_universe
      << ",\"target_tuples\":" << target_tuples
      << ",\"target_size\":" << target_size
      << ",\"target_boolean\":" << (target_boolean ? "true" : "false")
      << ",\"schaefer_classes\":\""
      << (schaefer_classes != 0 ? SchaeferClassSetToString(schaefer_classes)
                                : std::string())
      << "\",\"source_acyclic\":"
      << (acyclicity_known ? (source_acyclic ? "true" : "false") : "null")
      << ",\"width_estimate\":";
  if (width_known && width_lower_bound) {
    out << "null,\"width_lower_bound\":" << width_estimate
        << ",\"eliminations_done\":" << eliminations_done
        << ",\"decomposition_bags\":null,\"treewidth_dp_cost\":null";
  } else if (width_known) {
    out << width_estimate << ",\"decomposition_bags\":" << decomposition_bags
        << ",\"treewidth_dp_cost\":" << treewidth_dp_cost;
  } else {
    out << "null,\"decomposition_bags\":null,\"treewidth_dp_cost\":null";
  }
  out << "}";
  return out.str();
}

}  // namespace cqcs
