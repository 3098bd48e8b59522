// The traced replay: one request re-run outside the engine through the
// library's public layer functions, in the order kAuto runs them, each call
// wrapped in a span. The per-layer counters come from the same calls.
//
// Pipeline order of a replay (api/engine.cc's staged router):
//   compile (HomProblem::From*) -> [rebind (WithTarget)] -> route
//   (TargetSchaeferClasses -> SourceAcyclic -> SourceDecomposition + cost
//   gate) -> [Csp build, uniform route only] -> Run on the warmed problem
//   -> the backend's own entry point again: the task's cq/acyclic.h function
//   at the run's thread count, or ValidateFor + SolveViaTreeDecomposition, or
//   BacktrackingSolver.

#ifndef CQCS_PERFBENCH_LAYERS_H_
#define CQCS_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/problem.h"
#include "harness.h"

namespace perfbench {

/// Counts gathered by the replays of one thread; merged at the end.
struct LayerCounters {
  uint64_t replays = 0;
  uint64_t replay_errors = 0;
  // api: the warmed Run.
  uint64_t runs = 0;
  uint64_t backend_acyclic = 0;
  uint64_t backend_treewidth = 0;
  uint64_t backend_uniform = 0;
  uint64_t backend_schaefer = 0;
  uint64_t fallbacks = 0;
  // treewidth: the DP replays.
  uint64_t dp_runs = 0;
  int width_max = 0;
  double table_entries = 0;
  double table_rows = 0;
  std::vector<double> gate_ratio;  ///< treewidth_dp_cost / table_entries
  // acyclic + rel: the task-function replays at the run's thread count.
  uint64_t acyclic_runs = 0;
  double rows_materialized = 0;
  double rows_pruned = 0;
  double semijoins = 0;
  uint64_t max_table_rows = 0;
  // work_pool: morsel counters of the warmed Run.
  double morsels = 0;
  double steals = 0;
  unsigned workers_max = 0;
  // solver: the search replays.
  uint64_t search_runs = 0;
  double nodes = 0;
  double splits = 0;
  double search_ns = 0;

  void Merge(const LayerCounters& other);
};

/// Durations of one replay's top-level calls (ns; 0 when not run), for the
/// serving layer's self time.
struct ReplayTimes {
  int64_t compile_ns = 0;
  int64_t rebind_ns = 0;
  int64_t route_ns = 0;
  int64_t run_ns = 0;
};

/// Replays one engine request on a fresh problem built by `compile`.
/// `rebind_target`, when set, is also timed through WithTarget (the serving
/// layer's plan-hit path).
ReplayTimes ReplayProblem(
    const std::function<cqcs::Result<cqcs::HomProblem>()>& compile,
    const std::shared_ptr<const cqcs::Structure>& rebind_target,
    cqcs::HomTask task, const cqcs::EngineOptions& options, Tracer* tracer,
    LayerCounters* counters);

/// Adds the per-layer metrics computed from `spans` and `counters` (api,
/// cq, treewidth, acyclic, work_pool, solver layers) to `out`.
void AddLayerMetrics(const SpanSummary& spans, const LayerCounters& counters,
                     MetricTable* out);

}  // namespace perfbench

#endif  // CQCS_PERFBENCH_LAYERS_H_
