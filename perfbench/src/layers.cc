#include "layers.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "api/profile.h"
#include "common/work_pool.h"
#include "cq/acyclic.h"
#include "solver/backtracking.h"
#include "treewidth/hom_dp.h"

namespace perfbench {

using cqcs::Backend;
using cqcs::HomTask;

namespace {

/// The task's cq/acyclic.h entry point, as the engine's acyclic route calls
/// it. Returns false on error.
bool RunAcyclicTask(const cqcs::HomProblem& p, HomTask task,
                    const cqcs::EngineOptions& o, unsigned threads,
                    cqcs::YannakakisStats* ys) {
  const cqcs::ConjunctiveQuery& q = p.SourceCanonicalQuery();
  const cqcs::Structure& b = p.target();
  std::vector<cqcs::VarId> pvars(p.projection().begin(), p.projection().end());
  switch (task) {
    case HomTask::kDecide:
      return cqcs::EvaluateBooleanAcyclic(q, b, ys, nullptr, threads).ok();
    case HomTask::kWitness:
      return cqcs::AcyclicWitness(q, b, ys, nullptr, threads).ok();
    case HomTask::kCount:
      return cqcs::AcyclicCount(q, b, o.count_limit, ys, nullptr, threads)
          .ok();
    case HomTask::kEnumerate:
      return cqcs::AcyclicEnumerate(q, b, o.max_results, ys, nullptr, threads)
          .ok();
    case HomTask::kProject:
      if (o.project_count_only) {
        return cqcs::AcyclicProjectCount(q, b, pvars, o.count_limit, ys,
                                         nullptr, threads)
            .ok();
      }
      return cqcs::AcyclicProject(q, b, pvars, o.max_results, ys, nullptr,
                                  threads)
          .ok();
  }
  return false;
}

/// The uniform route's search, as the engine calls it.
void RunSearch(const cqcs::HomProblem& p, HomTask task,
               const cqcs::EngineOptions& o, cqcs::SolveStats* stats) {
  cqcs::BacktrackingSolver solver(&p.Csp(), o.solve);
  switch (task) {
    case HomTask::kDecide:
    case HomTask::kWitness:
      solver.Solve(stats);
      return;
    case HomTask::kCount:
      solver.CountSolutions(o.count_limit, stats);
      return;
    case HomTask::kEnumerate: {
      size_t seen = 0;
      solver.ForEachSolution(
          [&](const cqcs::Homomorphism&) { return ++seen < o.max_results; },
          stats);
      return;
    }
    case HomTask::kProject:
      solver.EnumerateProjections(
          p.projection(), o.project_count_only ? o.count_limit : o.max_results,
          stats);
      return;
  }
}

double PerOp(double total, uint64_t ops) {
  return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

}  // namespace

void LayerCounters::Merge(const LayerCounters& o) {
  replays += o.replays;
  replay_errors += o.replay_errors;
  runs += o.runs;
  backend_acyclic += o.backend_acyclic;
  backend_treewidth += o.backend_treewidth;
  backend_uniform += o.backend_uniform;
  backend_schaefer += o.backend_schaefer;
  fallbacks += o.fallbacks;
  dp_runs += o.dp_runs;
  width_max = std::max(width_max, o.width_max);
  table_entries += o.table_entries;
  table_rows += o.table_rows;
  gate_ratio.insert(gate_ratio.end(), o.gate_ratio.begin(), o.gate_ratio.end());
  acyclic_runs += o.acyclic_runs;
  rows_materialized += o.rows_materialized;
  rows_pruned += o.rows_pruned;
  semijoins += o.semijoins;
  max_table_rows = std::max(max_table_rows, o.max_table_rows);
  morsels += o.morsels;
  steals += o.steals;
  workers_max = std::max(workers_max, o.workers_max);
  search_runs += o.search_runs;
  nodes += o.nodes;
  splits += o.splits;
  search_ns += o.search_ns;
}

ReplayTimes ReplayProblem(
    const std::function<cqcs::Result<cqcs::HomProblem>()>& compile,
    const std::shared_ptr<const cqcs::Structure>& rebind_target,
    HomTask task, const cqcs::EngineOptions& options, Tracer* tracer,
    LayerCounters* counters) {
  ReplayTimes times;
  ++counters->replays;
  std::optional<cqcs::HomProblem> problem;
  times.compile_ns = Timed(tracer, SpanName::kCompile, [&] {
    auto compiled = compile();
    if (compiled.ok()) problem.emplace(*std::move(compiled));
  });
  if (!problem.has_value()) {
    ++counters->replay_errors;
    return times;
  }
  const cqcs::HomProblem& p = *problem;
  if (rebind_target != nullptr) {
    times.rebind_ns = Timed(tracer, SpanName::kRebind, [&] {
      if (!p.WithTarget(rebind_target).ok()) ++counters->replay_errors;
    });
  }

  // ---- Routing accessors, in kAuto's staged order. -----------------------
  const bool decide_like = task == HomTask::kDecide || task == HomTask::kWitness;
  Backend predicted = Backend::kUniform;
  bool gate_evaluated = false;
  int width = -1;
  double gate_cost = 0;
  times.route_ns = Timed(tracer, SpanName::kRoute, [&] {
    if (decide_like && p.TargetSchaeferClasses() != 0) {
      predicted = Backend::kSchaefer;
      return;
    }
    bool acyclic = false;
    Timed(tracer, SpanName::kGyo, [&] { acyclic = p.SourceAcyclic(); });
    if (acyclic) {
      predicted = Backend::kAcyclic;
      return;
    }
    if (!decide_like) return;
    const cqcs::TreeDecomposition* dec = nullptr;
    Timed(tracer, SpanName::kDecompose,
          [&] { dec = &p.SourceDecomposition(); });
    gate_evaluated = true;
    width = dec->Width();
    gate_cost = cqcs::EstimateTreewidthDpCost(dec->node_count(), width,
                                              p.target().universe_size());
    if (width >= 0 && width <= options.max_auto_width &&
        gate_cost <= options.treewidth_cost_budget) {
      predicted = Backend::kTreewidth;
    }
  });
  if (predicted == Backend::kUniform) {
    Timed(tracer, SpanName::kCspBuild, [&] { (void)p.Csp(); });
  }

  // ---- The engine on the warmed problem. ---------------------------------
  cqcs::HomEngine engine(options);
  std::optional<cqcs::EngineResult> result;
  times.run_ns = Timed(tracer, SpanName::kRun, [&] {
    auto r = engine.Run(p, task);
    if (r.ok()) result.emplace(*std::move(r));
  });
  if (!result.has_value()) {
    ++counters->replay_errors;
    return times;
  }
  const cqcs::EngineResult& r = *result;
  ++counters->runs;
  switch (r.explain.chosen) {
    case Backend::kAcyclic: ++counters->backend_acyclic; break;
    case Backend::kTreewidth: ++counters->backend_treewidth; break;
    case Backend::kSchaefer: ++counters->backend_schaefer; break;
    default: ++counters->backend_uniform; break;
  }
  counters->fallbacks += r.explain.fallbacks.size();
  if (r.stats.used_acyclic) {
    counters->morsels += static_cast<double>(r.stats.yannakakis.morsels);
    counters->steals += static_cast<double>(r.stats.yannakakis.steals);
    counters->workers_max =
        std::max(counters->workers_max, r.stats.yannakakis.workers);
  }
  if (r.stats.used_treewidth) {
    counters->morsels += static_cast<double>(r.stats.treewidth.morsels);
    counters->steals += static_cast<double>(r.stats.treewidth.steals);
    counters->workers_max =
        std::max(counters->workers_max, r.stats.treewidth.workers);
  }

  // ---- The backend's own entry point, outside the engine. ----------------
  const unsigned threads = cqcs::ResolveThreadCount(options.solve.num_threads);
  if (r.explain.chosen == Backend::kAcyclic) {
    cqcs::YannakakisStats ys;
    Timed(tracer, SpanName::kAcyclicEval, [&] {
      if (!RunAcyclicTask(p, task, options, threads, &ys)) {
        ++counters->replay_errors;
      }
    });
    ++counters->acyclic_runs;
    counters->rows_materialized += static_cast<double>(ys.rows_materialized);
    counters->rows_pruned += static_cast<double>(ys.rows_pruned);
    counters->semijoins += static_cast<double>(ys.semijoins);
    counters->max_table_rows =
        std::max(counters->max_table_rows, ys.max_table_rows);
  }
  // The DP also replays where the cost gate refused a small-width source
  // (within 10x of the budget), so the gate's estimate is compared with the
  // table the DP really builds.
  if (gate_evaluated && width >= 0 && width <= options.max_auto_width &&
      gate_cost <= 10 * options.treewidth_cost_budget) {
    const cqcs::TreeDecomposition& dec = p.SourceDecomposition();
    Timed(tracer, SpanName::kValidate, [&] {
      if (!dec.ValidateFor(p.source()).ok()) ++counters->replay_errors;
    });
    cqcs::TreewidthSolveStats ts;
    Timed(tracer, SpanName::kTreewidthDp, [&] {
      if (!cqcs::SolveViaTreeDecomposition(p.source(), p.target(), dec, &ts,
                                           nullptr, threads)
               .ok()) {
        ++counters->replay_errors;
      }
    });
    ++counters->dp_runs;
    counters->width_max = std::max(counters->width_max, ts.width);
    counters->table_entries += static_cast<double>(ts.table_entries);
    counters->table_rows += static_cast<double>(ts.table_rows);
    if (ts.table_entries > 0) {
      counters->gate_ratio.push_back(gate_cost /
                                     static_cast<double>(ts.table_entries));
    }
  }
  if (r.explain.chosen == Backend::kUniform) {
    cqcs::SolveStats ss;
    counters->search_ns += static_cast<double>(
        Timed(tracer, SpanName::kSearch, [&] { RunSearch(p, task, options, &ss); }));
    ++counters->search_runs;
    counters->nodes += static_cast<double>(ss.nodes);
    counters->splits += static_cast<double>(ss.splits);
  }
  return times;
}

void AddLayerMetrics(const SpanSummary& spans, const LayerCounters& c,
                     MetricTable* out) {
  auto p50 = [&](SpanName name, double scale) {
    auto it = spans.total_us.find(name);
    if (it == spans.total_us.end()) return 0.0;
    return Quantile(it->second, 0.5) * scale;
  };
  constexpr double kUs = 1.0;
  constexpr double kMs = 1e-3;
  out->Set("cq.parse_us_p50", p50(SpanName::kParse, kUs), "us");
  out->Set("cq.print_us_p50", p50(SpanName::kPrint, kUs), "us");
  out->Set("cq.gyo_us_p50", p50(SpanName::kGyo, kUs), "us");

  out->Set("api.compile_us_p50", p50(SpanName::kCompile, kUs), "us");
  out->Set("api.rebind_us_p50", p50(SpanName::kRebind, kUs), "us");
  out->Set("api.route_ms_p50", p50(SpanName::kRoute, kMs), "ms");
  out->Set("api.run_ms_p50", p50(SpanName::kRun, kMs), "ms");
  const double runs = static_cast<double>(c.runs);
  auto frac = [&](uint64_t n) { return runs == 0 ? 0.0 : n / runs; };
  out->Set("api.backend_frac.acyclic", frac(c.backend_acyclic), "ratio");
  out->Set("api.backend_frac.treewidth", frac(c.backend_treewidth), "ratio");
  out->Set("api.backend_frac.uniform", frac(c.backend_uniform), "ratio");
  out->Set("api.backend_frac.schaefer", frac(c.backend_schaefer), "ratio");
  out->Set("api.fallbacks_per_op", PerOp(c.fallbacks, c.runs), "count");

  out->Set("treewidth.decompose_ms_p50", p50(SpanName::kDecompose, kMs), "ms");
  out->Set("treewidth.validate_ms_p50", p50(SpanName::kValidate, kMs), "ms");
  out->Set("treewidth.dp_ms_p50", p50(SpanName::kTreewidthDp, kMs), "ms");
  out->Set("treewidth.width_max", c.dp_runs == 0 ? 0 : c.width_max, "count");
  out->Set("treewidth.table_entries_per_op", PerOp(c.table_entries, c.dp_runs),
           "count");
  out->Set("treewidth.table_rows_per_op", PerOp(c.table_rows, c.dp_runs),
           "count");
  out->Set("treewidth.gate_est_ratio", Quantile(c.gate_ratio, 0.5), "ratio");

  out->Set("acyclic.eval_ms_p50", p50(SpanName::kAcyclicEval, kMs), "ms");
  out->Set("acyclic.rows_materialized_per_op",
           PerOp(c.rows_materialized, c.acyclic_runs), "count");
  out->Set("acyclic.pruned_frac",
           c.rows_materialized == 0 ? 0.0 : c.rows_pruned / c.rows_materialized,
           "ratio");
  out->Set("acyclic.max_table_rows", static_cast<double>(c.max_table_rows),
           "count");
  out->Set("acyclic.semijoins_per_op", PerOp(c.semijoins, c.acyclic_runs),
           "count");

  out->Set("pool.morsels_per_op", PerOp(c.morsels, c.runs), "count");
  out->Set("pool.steal_frac", c.morsels == 0 ? 0.0 : c.steals / c.morsels,
           "ratio");
  out->Set("pool.workers", c.workers_max, "count");

  out->Set("solver.csp_build_ms_p50", p50(SpanName::kCspBuild, kMs), "ms");
  out->Set("solver.search_ms_p50", p50(SpanName::kSearch, kMs), "ms");
  out->Set("solver.nodes_per_op", PerOp(c.nodes, c.search_runs), "count");
  out->Set("solver.ns_per_node", c.nodes == 0 ? 0.0 : c.search_ns / c.nodes,
           "ns");
  out->Set("solver.splits_per_op", PerOp(c.splits, c.search_runs), "count");
}

}  // namespace perfbench
