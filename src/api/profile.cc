#include "api/profile.h"

#include <cstdint>

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

void InstanceProfile::WriteJson(JsonWriter& out) const {
  const bool stopped = width_known && width_lower_bound;
  const bool estimated = width_known && !width_lower_bound;
  out.BeginObject()
      .Key("source_universe").Uint(source_universe)
      .Key("source_tuples").Uint(source_tuples)
      .Key("source_size").Uint(source_size)
      .Key("target_universe").Uint(target_universe)
      .Key("target_tuples").Uint(target_tuples)
      .Key("target_size").Uint(target_size)
      .Key("target_boolean").Bool(target_boolean)
      .Key("schaefer_classes")
      .String(schaefer_classes != 0 ? SchaeferClassSetToString(schaefer_classes)
                                    : std::string());
  out.Key("source_acyclic");
  acyclicity_known ? out.Bool(source_acyclic) : out.Null();
  out.Key("width_estimate");
  estimated ? out.Int(width_estimate) : out.Null();
  out.Key("width_lower_bound");
  stopped ? out.Int(width_estimate) : out.Null();
  out.Key("eliminations_done");
  stopped ? out.Uint(eliminations_done) : out.Null();
  out.Key("decomposition_bags");
  estimated ? out.Uint(decomposition_bags) : out.Null();
  out.Key("treewidth_dp_cost");
  estimated ? out.Double(treewidth_dp_cost) : out.Null();
  out.EndObject();
}

}  // namespace cqcs
