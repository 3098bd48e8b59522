#include "solver/backtracking.h"

#include <optional>
#include <unordered_set>

#include "common/hash.h"
#include "common/saturating.h"
#include "solver/parallel.h"
#include "solver/search_context.h"

namespace cqcs {

namespace {

using solver_internal::LeafSink;
using solver_internal::ParallelSearch;
using solver_internal::SearchContext;

// Row hash for projection deduplication.
struct RowHash {
  size_t operator()(const std::vector<Element>& row) const {
    return static_cast<size_t>(Fnv1a64(row.data(), row.size()));
  }
};

/// One search, sequential or parallel by options.num_threads. The callback
/// contract is identical either way (the parallel driver serializes
/// deliveries), so every entry point builds one closure and routes here.
/// A non-null `leaf` receives the search's residual, which lives for the
/// call: the shape is the same below every leaf of every worker.
size_t RunSearch(const CspInstance& csp, const SolveOptions& options,
                 std::span<const Element> projection,
                 const std::function<bool(const Homomorphism&)>& on_solution,
                 LeafSink* leaf, SolveStats* stats, bool first_solution_only) {
  std::optional<ResidualForest> residual;
  if (leaf != nullptr) {
    residual = ResidualForest::ForSearch(csp, options, projection);
    leaf->residual = residual.has_value() ? &*residual : nullptr;
  }
  if (ResolveThreadCount(options.num_threads) > 1) {
    return ParallelSearch(csp, options, projection, on_solution, leaf, stats,
                          first_solution_only);
  }
  SearchContext ctx(csp, options, projection, on_solution, leaf, stats,
                    first_solution_only);
  return ctx.Run();
}

}  // namespace

BacktrackingSolver::BacktrackingSolver(const Structure& a, const Structure& b,
                                       SolveOptions options)
    : owned_csp_(std::in_place, a, b), csp_(&*owned_csp_), options_(options) {}

BacktrackingSolver::BacktrackingSolver(const CspInstance* csp,
                                       SolveOptions options)
    : csp_(csp), options_(options) {}

std::optional<Homomorphism> BacktrackingSolver::Solve(SolveStats* stats) {
  std::optional<Homomorphism> found;
  RunSearch(
      *csp_, options_, {},
      [&found](const Homomorphism& h) {
        found = h;
        return false;  // stop at the first solution
      },
      /*leaf=*/nullptr, stats, /*first_solution_only=*/true);
  return found;
}

bool BacktrackingSolver::Decide(SolveStats* stats) {
  bool found = false;
  auto stop = [&found] {
    found = true;
    return false;  // stop at the first solution
  };
  LeafSink leaf;
  leaf.on_count = [&stop](size_t) { return stop(); };
  leaf.limit = 1;
  RunSearch(
      *csp_, options_, {}, [&stop](const Homomorphism&) { return stop(); },
      &leaf, stats, /*first_solution_only=*/true);
  return found;
}

size_t BacktrackingSolver::ForEachSolution(
    const std::function<bool(const Homomorphism&)>& on_solution,
    SolveStats* stats) {
  return RunSearch(*csp_, options_, {}, on_solution, /*leaf=*/nullptr, stats,
                   /*first_solution_only=*/false);
}

std::vector<std::vector<Element>> BacktrackingSolver::EnumerateProjections(
    std::span<const Element> projection, size_t max_results,
    SolveStats* stats) {
  if (max_results == 0) return {};
  std::unordered_set<std::vector<Element>, RowHash> seen;
  std::vector<std::vector<Element>> results;
  LeafSink leaf;
  leaf.project = true;
  RunSearch(
      *csp_, options_, projection,
      [&](const Homomorphism& h) {
        std::vector<Element> row(projection.size());
        for (size_t i = 0; i < projection.size(); ++i) row[i] = h[projection[i]];
        // The prefix-pruned search advances a projection variable between
        // reports, so rows repeat only in corner cases (empty projection —
        // and, in parallel mode, subtrees that were donated before the
        // donor's solution pruned them); the set enforces the dedup
        // contract either way.
        if (seen.insert(row).second) {
          results.push_back(std::move(row));
          if (results.size() >= max_results) return false;
        }
        return true;
      },
      &leaf, stats, /*first_solution_only=*/false);
  return results;
}

size_t BacktrackingSolver::CountSolutions(size_t limit, SolveStats* stats) {
  if (limit == 0) return 0;  // the callback counts a solution before the cap
  size_t count = 0;
  LeafSink leaf;
  leaf.on_count = [&count, limit](size_t n) {
    count = SatAdd(count, n, limit);
    return count < limit;
  };
  leaf.limit = limit;
  RunSearch(
      *csp_, options_, {},
      [&count, limit](const Homomorphism&) {
        ++count;
        return count < limit;
      },
      &leaf, stats, /*first_solution_only=*/false);
  return count;
}

// HasHomomorphism / FindHomomorphism are defined in api/engine.cc: the
// conveniences route through the HomEngine front door.

}  // namespace cqcs
