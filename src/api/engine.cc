#include "api/engine.h"

#include <optional>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "cq/acyclic.h"

namespace cqcs {

namespace {

/// The passes of the Yannakakis program a task reads.
YannakakisProgram::Passes PassesFor(HomTask task) {
  switch (task) {
    case HomTask::kDecide: return YannakakisProgram::Passes::kDecide;
    case HomTask::kCount: return YannakakisProgram::Passes::kCount;
    case HomTask::kProject: return YannakakisProgram::Passes::kProject;
    case HomTask::kWitness:
    case HomTask::kEnumerate: return YannakakisProgram::Passes::kWalk;
  }
  return YannakakisProgram::Passes::kWalk;
}

}  // namespace

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kAuto: return "auto";
    case Backend::kUniform: return "uniform";
    case Backend::kTreewidth: return "treewidth";
    case Backend::kAcyclic: return "acyclic";
    case Backend::kSchaefer: return "schaefer";
  }
  return "unknown";
}

std::optional<Backend> ParseBackendName(std::string_view name) {
  for (Backend b : {Backend::kAuto, Backend::kUniform, Backend::kTreewidth,
                    Backend::kAcyclic, Backend::kSchaefer}) {
    if (name == BackendName(b)) return b;
  }
  return std::nullopt;
}

const char* HomTaskName(HomTask task) {
  switch (task) {
    case HomTask::kDecide: return "decide";
    case HomTask::kWitness: return "witness";
    case HomTask::kCount: return "count";
    case HomTask::kEnumerate: return "enumerate";
    case HomTask::kProject: return "project";
  }
  return "unknown";
}

std::optional<HomTask> ParseHomTaskName(std::string_view name) {
  for (HomTask t : {HomTask::kDecide, HomTask::kWitness, HomTask::kCount,
                    HomTask::kEnumerate, HomTask::kProject}) {
    if (name == HomTaskName(t)) return t;
  }
  return std::nullopt;
}

Result<EngineResult> HomEngine::Run(const HomProblem& problem,
                                    HomTask task) const {
  EngineResult r;
  r.task = task;
  r.explain.requested = options_.backend;
  r.explain.served = task;

  const Structure& a = problem.source();
  const Structure& b = problem.target();
  const bool decide_like = task == HomTask::kDecide || task == HomTask::kWitness;

  // ---- Resource governance. ----------------------------------------------
  // One governor per run: the caller's (options.solve.governor), or one
  // built from the budget fields. Every backend polls it cooperatively and
  // charges its table growth against it. Ungoverned runs pass nullptr
  // everywhere.
  const bool budgeted = options_.deadline_ms > 0 ||
                        options_.memory_budget_bytes > 0 ||
                        options_.cancel != nullptr ||
                        options_.failpoints.trip_after_checks > 0 ||
                        options_.failpoints.trip_after_charges > 0;
  ResourceGovernor* governor = options_.solve.governor;
  if (governor != nullptr && budgeted) {
    return Status::InvalidArgument(
        "solve.governor and the budget fields (deadline_ms, "
        "memory_budget_bytes, cancel, failpoints) are two governors for one "
        "run; set one or the other");
  }
  std::optional<ResourceGovernor> governor_storage;
  if (budgeted) {
    governor_storage.emplace(options_.deadline_ms,
                             options_.memory_budget_bytes);
    governor_storage->set_failpoints(options_.failpoints);
    if (options_.cancel != nullptr) {
      governor_storage->set_external_cancel(options_.cancel);
    }
    governor = &*governor_storage;
  }
  auto snapshot_governor = [&]() {
    if (governor == nullptr) return;
    r.stats.governor.enabled = true;
    r.stats.governor.tripped = governor->tripped();
    r.stats.governor.cause = governor->trip_cause();
    r.stats.governor.checks = governor->checks();
    r.stats.governor.peak_bytes = governor->peak_bytes();
    r.stats.governor.elapsed_ms = governor->elapsed_ms();
  };

  // ---- Routing. ----------------------------------------------------------
  Backend chosen = options_.backend;
  Status route_status = Status::OK();  // a budget trip while routing
  if (chosen == Backend::kAuto) {
    if (decide_like && a.universe_size() == 0) {
      r.decided = true;
      if (task == HomTask::kWitness) r.witness = Homomorphism{};
      r.explain.chosen = Backend::kUniform;
      r.explain.reason = "empty source universe: the empty map is a "
                         "homomorphism; no backend needed";
      snapshot_governor();
      return r;
    } else if (decide_like && b.universe_size() == 0) {
      r.decided = false;
      r.explain.chosen = Backend::kUniform;
      r.explain.reason = "nonempty source, empty target: no total map "
                         "exists; no backend needed";
      snapshot_governor();
      return r;
    } else {
      // Staged decision tree, cheapest predicate first, stopping at the
      // first island that fires: classifying a Boolean target is near-free,
      // GYO is near-linear in the source's atoms, and the min-fill estimate
      // (the costliest stage: incremental, about the local degree squared
      // per eliminated vertex, and governed) only runs when the earlier
      // islands refused. Counting, enumeration and projection skip the
      // Schaefer stage: its algorithms decide. The profile records exactly
      // the evidence that was computed.
      InstanceProfile& prof = r.explain.profile;
      FillSizeStats(a, b, &prof);
      r.explain.profiled = true;
      if (decide_like) {
        prof.target_boolean = problem.TargetBoolean();
        prof.schaefer_classes = problem.TargetSchaeferClasses();
      }
      std::ostringstream why;
      if (prof.schaefer_classes != 0) {
        chosen = Backend::kSchaefer;
        why << "Boolean target in Schaefer class(es) "
            << SchaeferClassSetToString(prof.schaefer_classes)
            << ": uniform polynomial algorithm (Theorems 3.3/3.4)";
      } else {
        if (decide_like) {
          r.explain.fallbacks.push_back(
              prof.target_boolean
                  ? "schaefer: target is Boolean but outside every Schaefer "
                    "class (by the dichotomy, CSP(B) is NP-complete)"
                  : "schaefer: target is not Boolean");
        }
        prof.acyclicity_known = true;
        prof.source_acyclic = problem.SourceAcyclic();
        if (prof.source_acyclic) {
          chosen = Backend::kAcyclic;
          why << "source hypergraph is α-acyclic (GYO reduces it): "
              << (task == HomTask::kDecide ? "Yannakakis semijoin evaluation"
                  : task == HomTask::kWitness
                      ? "Yannakakis semijoin reduction with witness "
                        "extraction"
                      : "full Yannakakis program over the reduced join "
                        "forest");
        } else {
          r.explain.fallbacks.push_back(
              "acyclic: source hypergraph is cyclic (GYO leaves live "
              "edges)");
          // The gate "w <= max_auto_width and bags * |B|^(w+1) <= budget"
          // is "w <= w_cap" (min-fill makes one bag per element), and w_cap
          // is known up front: min-fill is skipped when no width fits and
          // otherwise stops at the first bag wider than w_cap + 1.
          const int w_cap = TreewidthWidthCap(
              a.universe_size(), b.universe_size(), options_.max_auto_width,
              options_.treewidth_cost_budget);
          WidthCap cap{.max_width = w_cap};
          if (w_cap >= 0) {
            route_status = problem.EnsureSourceDecomposition(governor, &cap);
          }
          std::ostringstream refusal;  // the evidence that missed the gate
          if (!route_status.ok()) {
            // Only a budget trip stops the min-fill build. The budget is
            // spent, so the run unwinds below like a backend trip.
            chosen = Backend::kTreewidth;
            why << "the min-fill width estimate ran out of budget";
          } else if (w_cap < 0) {
            refusal << "even width 0 (est. DP cost "
                    << EstimateTreewidthDpCost(a.universe_size(), 0,
                                               b.universe_size())
                    << "; min-fill skipped)";
          } else if (cap.stopped) {
            prof.width_known = prof.width_lower_bound = true;
            prof.width_estimate = cap.width_lower_bound;
            prof.eliminations_done = cap.eliminated;
            refusal << "min-fill width>" << w_cap << " (a bag of width "
                    << cap.width_lower_bound << "; stopped after "
                    << cap.eliminated << " of " << a.universe_size()
                    << " eliminations)";
          } else {
            const TreeDecomposition& dec = problem.SourceDecomposition();
            prof.width_known = true;
            prof.width_estimate = dec.Width();
            prof.decomposition_bags = dec.node_count();
            prof.treewidth_dp_cost =
                EstimateTreewidthDpCost(prof.decomposition_bags,
                                        prof.width_estimate, b.universe_size());
            if (prof.width_estimate <= w_cap) {
              chosen = Backend::kTreewidth;
              why << "min-fill width estimate " << prof.width_estimate
                  << " (bags=" << prof.decomposition_bags << ", est. DP cost "
                  << prof.treewidth_dp_cost
                  << "): Yannakakis program over join-built bag tables "
                     "(Theorem 5.4)";
            } else {
              refusal << "min-fill estimate " << prof.width_estimate
                      << " / est. DP cost " << prof.treewidth_dp_cost;
            }
          }
          if (!refusal.str().empty()) {
            refusal << " exceeds the gate (max_auto_width="
                    << options_.max_auto_width
                    << ", budget=" << options_.treewidth_cost_budget << ")";
            r.explain.fallbacks.push_back("treewidth: " + refusal.str());
            chosen = Backend::kUniform;
            why << "no tractable island matched the profile; uniform "
                   "backtracking search";
          }
        }
      }
      r.explain.reason = why.str();
    }
  } else {
    r.explain.reason = "backend explicitly requested";
  }

  // ---- Pre-flight admission (kAuto + memory budget only). ----------------
  // If a polynomial route's size-bound estimate already exceeds the memory
  // budget, demote to the uniform search before any table is built: the
  // search streams over the CSP instance and charges almost nothing, so it
  // can still decide within the budget where the tables provably cannot.
  if (route_status.ok() && governor != nullptr &&
      governor->memory_budget_bytes() > 0 &&
      options_.backend == Backend::kAuto &&
      (chosen == Backend::kAcyclic || chosen == Backend::kTreewidth)) {
    size_t estimate =
        chosen == Backend::kAcyclic
            ? EstimateAcyclicBytes(a, b)
            : EstimateTreewidthDpBytes(
                  r.explain.profile.decomposition_bags,
                  r.explain.profile.width_estimate, b.universe_size());
    if (!governor->AdmitBytes(estimate)) {
      std::ostringstream note;
      note << BackendName(chosen) << ": admission refused — size-bound "
           << "estimate " << estimate << " bytes exceeds the memory budget ("
           << governor->memory_budget_bytes()
           << " bytes); demoting to the uniform search";
      r.explain.fallbacks.push_back(note.str());
      chosen = Backend::kUniform;
    }
  }

  // ---- Execution (with runtime fallback for kAuto). ----------------------
  auto run_backend = [&](Backend backend) -> Status {
    switch (backend) {
      case Backend::kSchaefer: {
        if (!decide_like) {
          return Status::InvalidArgument(
              "the schaefer backend supports decide/witness only");
        }
        auto h = SolveSchaefer(a, b, SchaeferAlgorithm::kAuto,
                               &r.stats.schaefer, governor);
        if (!h.ok()) return h.status();
        r.stats.used_schaefer = true;
        r.decided = h->has_value();
        if (task == HomTask::kWitness) r.witness = *std::move(h);
        return Status::OK();
      }
      case Backend::kAcyclic:
      case Backend::kTreewidth: {
        if (b.universe_size() == 0 && a.universe_size() > 0) {
          // Body satisfiability ignores isolated source elements, which
          // still need images; only an empty target makes that distinction.
          r.decided = false;
          r.count = 0;
          return Status::OK();
        }
        // One program, two front ends: the canonical query's atoms, or the
        // bags of the source's tree decomposition. Either way a variable
        // is a source element (canonical-query variable ids ARE element
        // ids), so the assignment rows it returns are homomorphisms
        // verbatim.
        const YannakakisProgram::Passes passes = PassesFor(task);
        const bool atoms = backend == Backend::kAcyclic;
        // The atoms' shape is the plan's cached GYO forest; the bags' is
        // built per run, into bag_shape.
        JoinTree bag_shape;
        YannakakisProgram program(atoms ? &r.stats.yannakakis : nullptr,
                                  governor, options_.solve.num_threads);
        if (atoms) {
          const JoinTree* forest = problem.SourceJoinForest();
          if (forest == nullptr) {
            return Status::InvalidArgument("the query's hypergraph is cyclic");
          }
          CQCS_RETURN_IF_ERROR(program.FromAtoms(
              problem.SourceCanonicalQuery(), *forest, b, passes));
        } else {
          CQCS_RETURN_IF_ERROR(problem.EnsureSourceDecomposition(governor));
          CQCS_RETURN_IF_ERROR(program.FromBags(
              a, b, problem.SourceDecomposition(), &bag_shape, passes,
              &r.stats.treewidth));
        }
        const bool sat = program.satisfiable();
        switch (task) {
          case HomTask::kDecide:
            r.decided = sat;
            break;
          case HomTask::kWitness: {
            std::vector<std::vector<Element>> first;
            if (sat) CQCS_RETURN_IF_ERROR(program.Enumerate(1, &first));
            r.decided = !first.empty();
            if (r.decided) r.witness = std::move(first[0]);
            break;
          }
          case HomTask::kCount: {
            if (!sat) break;
            CQCS_ASSIGN_OR_RETURN(r.count,
                                  program.Count(options_.count_limit));
            break;
          }
          case HomTask::kEnumerate:
            if (sat) {
              CQCS_RETURN_IF_ERROR(
                  program.Enumerate(options_.max_results, &r.rows));
            }
            r.count = r.rows.size();
            break;
          case HomTask::kProject: {
            if (!sat) break;
            std::span<const Element> proj = problem.projection();
            if (options_.project_count_only) {
              CQCS_ASSIGN_OR_RETURN(
                  r.count, program.ProjectCount(proj, options_.count_limit));
              break;
            }
            CQCS_ASSIGN_OR_RETURN(
                r.rows, program.Project(proj, options_.max_results));
            r.count = r.rows.size();
            break;
          }
        }
        if (atoms) {
          r.stats.used_acyclic = true;
        } else {
          r.stats.used_treewidth = true;
        }
        return Status::OK();
      }
      case Backend::kUniform: {
        if (decide_like && options_.pebble_preflight_k > 0) {
          auto game = ExistentialPebbleGame::Create(
              a, b, options_.pebble_preflight_k, governor);
          if (!game.ok()) {
            if (game.status().code() == StatusCode::kResourceExhausted) {
              return game.status();  // a trip: no search after it
            }
            r.explain.fallbacks.push_back(
                std::string("pebble preflight skipped: ") +
                game.status().message());
          } else {
            r.stats.used_pebble = true;
            r.stats.pebble = game->stats();
            if (game->SpoilerWins()) {
              // Sound regardless of Datalog expressibility (Theorem 4.9):
              // a Spoiler win certifies that no homomorphism exists.
              r.decided = false;
              r.explain.fallbacks.push_back(
                  "pebble preflight: Spoiler wins the existential " +
                  std::to_string(options_.pebble_preflight_k) +
                  "-pebble game — certified unsatisfiable without search");
              return Status::OK();
            }
            r.explain.fallbacks.push_back(
                "pebble preflight: Duplicator wins (no k-pebble "
                "obstruction); searching");
          }
        }
        SolveOptions solve = options_.solve;
        solve.governor = governor;  // trip surfaces as stats.search.limit_hit
        const CspInstance& csp = problem.Csp();
        BacktrackingSolver solver(&csp, solve);
        // Whether leaves ran shows in stats.search.leaves and .cutset.
        r.explain.reason +=
            csp.cycle_cutset().has_value()
                ? "; cycle cutset of " +
                      std::to_string(csp.cycle_cutset()->size())
                : "; cycle cutset over " +
                      std::to_string(CspInstance::kMaxCutset) +
                      " variables (no backtrack-free leaves)";
        r.stats.used_search = true;
        switch (task) {
          case HomTask::kDecide:
            r.decided = solver.Decide(&r.stats.search);
            break;
          case HomTask::kWitness: {
            auto h = solver.Solve(&r.stats.search);
            r.decided = h.has_value();
            r.witness = std::move(h);
            break;
          }
          case HomTask::kCount:
            r.count = solver.CountSolutions(options_.count_limit,
                                            &r.stats.search);
            break;
          case HomTask::kEnumerate:
            if (options_.max_results > 0) {
              solver.ForEachSolution(
                  [&](const Homomorphism& h) {
                    r.rows.push_back(h);
                    return r.rows.size() < options_.max_results;
                  },
                  &r.stats.search);
            }
            r.count = r.rows.size();
            break;
          case HomTask::kProject:
            if (options_.project_count_only) {
              r.count = solver
                            .EnumerateProjections(problem.projection(),
                                                  options_.count_limit,
                                                  &r.stats.search)
                            .size();
              break;
            }
            r.rows = solver.EnumerateProjections(
                problem.projection(), options_.max_results, &r.stats.search);
            r.count = r.rows.size();
            break;
        }
        // A tripped count is a lower bound, not an answer: it is cleared as
        // on every route. Enumerated rows are verified, so they stay.
        if (governor != nullptr && governor->tripped() && r.rows.empty()) {
          r.count = 0;
        }
        return Status::OK();
      }
      case Backend::kAuto:
        return Status::Internal("kAuto survived routing");
    }
    return Status::Internal("unknown backend");
  };

  Status st = route_status.ok() ? run_backend(chosen) : route_status;
  if (!st.ok() && options_.backend == Backend::kAuto &&
      chosen != Backend::kUniform &&
      st.code() != StatusCode::kResourceExhausted) {
    // kAuto never aborts on a backend's refusal — it demotes to the search.
    // A budget trip is NOT a refusal: the budget is already spent, so
    // rerunning on the search would overshoot it; that case unwinds below.
    r.explain.fallbacks.push_back(std::string(BackendName(chosen)) +
                                  " failed at runtime (" + st.message() +
                                  "); falling back to the uniform search");
    chosen = Backend::kUniform;
    st = run_backend(chosen);
  }
  if (!st.ok() && st.code() == StatusCode::kResourceExhausted) {
    // Clean unwind to a structured "unknown": no partial rows, no wrong
    // answer — just the record of what was spent. Callers distinguish this
    // from a real "no" via stats.governor.tripped (and the conveniences map
    // it back to a kResourceExhausted status).
    r.decided = false;
    r.witness.reset();
    r.count = 0;
    r.rows.clear();
    r.explain.fallbacks.push_back(std::string(BackendName(chosen)) + ": " +
                                  st.message());
    r.explain.chosen = chosen;
    snapshot_governor();
    return r;
  }
  if (!st.ok()) return st;
  r.explain.chosen = chosen;
  snapshot_governor();
  return r;
}

namespace {

/// A governed run that tripped before producing a definite answer: the
/// conveniences surface it as kResourceExhausted (a decided result found
/// before the trip is still the answer and passes through).
Status GovernorTripStatus(const EngineResult& r) {
  return Status::ResourceExhausted(
      std::string("resource budget exhausted (") +
      TripCauseName(r.stats.governor.cause) + ") before " +
      HomTaskName(r.task) + " finished");
}

}  // namespace

Result<bool> HomEngine::Decide(const HomProblem& problem) const {
  CQCS_ASSIGN_OR_RETURN(EngineResult r, Run(problem, HomTask::kDecide));
  if (!r.decided && r.stats.governor.tripped) return GovernorTripStatus(r);
  if (!r.decided && r.stats.search.limit_hit) {
    return Status::Unsupported("node limit reached before a decision");
  }
  return r.decided;
}

Result<std::optional<Homomorphism>> HomEngine::FindWitness(
    const HomProblem& problem) const {
  CQCS_ASSIGN_OR_RETURN(EngineResult r, Run(problem, HomTask::kWitness));
  if (!r.decided && r.stats.governor.tripped) return GovernorTripStatus(r);
  if (!r.decided && r.stats.search.limit_hit) {
    return Status::Unsupported("node limit reached before a decision");
  }
  return std::move(r.witness);
}

Result<size_t> HomEngine::Count(const HomProblem& problem) const {
  CQCS_ASSIGN_OR_RETURN(EngineResult r, Run(problem, HomTask::kCount));
  if (r.stats.governor.tripped) return GovernorTripStatus(r);
  if (r.stats.search.limit_hit) {
    return Status::Unsupported("node limit reached before the count finished");
  }
  return r.count;
}

Result<std::vector<std::vector<Element>>> HomEngine::Project(
    const HomProblem& problem) const {
  CQCS_ASSIGN_OR_RETURN(EngineResult r, Run(problem, HomTask::kProject));
  if (r.stats.governor.tripped) return GovernorTripStatus(r);
  if (r.stats.search.limit_hit) {
    return Status::Unsupported(
        "node limit reached before the enumeration finished");
  }
  return std::move(r.rows);
}

// ---- Rendering. ----------------------------------------------------------

void EngineStats::WriteJson(JsonWriter& out) const {
  out.BeginObject();
  out.ObjectOrNull("search", used_search, [&](JsonWriter& o) {
    o.Key("nodes").Uint(search.nodes)
        .Key("backtracks").Uint(search.backtracks)
        .Key("backjumps").Uint(search.backjumps)
        .Key("longest_backjump").Uint(search.longest_backjump)
        .Key("restarts").Uint(search.restarts)
        .Key("max_conflict_set").Uint(search.max_conflict_set)
        .Key("revisions").Uint(search.revisions)
        .Key("support_walks").Uint(search.support_walks)
        .Key("leaves").Uint(search.leaves)
        .Key("cutset").Uint(search.cutset)
        .Key("workers").Uint(search.workers)
        .Key("splits").Uint(search.splits)
        .Key("steals").Uint(search.steals)
        .Key("limit_hit").Bool(search.limit_hit);
  });
  out.ObjectOrNull("treewidth", used_treewidth, [&](JsonWriter& o) {
    o.Key("width").Int(treewidth.width)
        .Key("table_entries").Uint(treewidth.table_entries)
        .Key("table_rows").Uint(treewidth.table_rows)
        .Key("workers").Uint(treewidth.workers)
        .Key("morsels").Uint(treewidth.morsels)
        .Key("steals").Uint(treewidth.steals);
  });
  out.ObjectOrNull("acyclic", used_acyclic, [&](JsonWriter& o) {
    o.Key("atom_tables").Uint(yannakakis.atom_tables)
        .Key("rows_materialized").Uint(yannakakis.rows_materialized)
        .Key("max_table_rows").Uint(yannakakis.max_table_rows)
        .Key("semijoins").Uint(yannakakis.semijoins)
        .Key("semijoins_skipped").Uint(yannakakis.semijoins_skipped)
        .Key("rows_pruned").Uint(yannakakis.rows_pruned)
        .Key("join_rows").Uint(yannakakis.join_rows)
        .Key("workers").Uint(yannakakis.workers)
        .Key("morsels").Uint(yannakakis.morsels)
        .Key("steals").Uint(yannakakis.steals);
  });
  out.ObjectOrNull("pebble", used_pebble, [&](JsonWriter& o) {
    o.Key("total_positions").Uint(pebble.total_positions)
        .Key("deleted_positions").Uint(pebble.deleted_positions);
  });
  out.ObjectOrNull("schaefer", used_schaefer, [&](JsonWriter& o) {
    o.Key("classes").String(SchaeferClassSetToString(schaefer.classes))
        .Key("dispatched").String(SchaeferClassSetToString(schaefer.dispatched))
        .Key("trivial").Bool(schaefer.trivial);
  });
  out.ObjectOrNull("governor", governor.enabled, [&](JsonWriter& o) {
    o.Key("tripped").Bool(governor.tripped)
        .Key("cause").String(TripCauseName(governor.cause))
        .Key("checks").Uint(governor.checks)
        .Key("peak_bytes").Uint(governor.peak_bytes)
        .Key("elapsed_ms").Uint(governor.elapsed_ms);
  });
  out.ObjectOrNull("serve", serve.enabled, [&](JsonWriter& o) {
    o.Key("plan_cache_hit").Bool(serve.plan_cache_hit)
        .Key("result_cache_hit").Bool(serve.result_cache_hit)
        .Key("plan_hit_rate").Double(serve.plan_hit_rate)
        .Key("result_hit_rate").Double(serve.result_hit_rate)
        .Key("shed_total").Uint(serve.shed_total)
        .Key("queue_depth").Uint(serve.queue_depth);
  });
  out.EndObject();
}

void EngineExplain::WriteJson(JsonWriter& out) const {
  out.BeginObject()
      .Key("requested").String(BackendName(requested))
      .Key("chosen").String(BackendName(chosen))
      .Key("served").String(HomTaskName(served))
      .Key("reason").String(reason)
      .Key("fallbacks").BeginArray();
  for (const std::string& f : fallbacks) out.String(f);
  out.EndArray().Key("profile");
  if (profiled) {
    profile.WriteJson(out);
  } else {
    out.Null();
  }
  out.EndObject();
}

std::string EngineResult::ToJson() const {
  JsonWriter out;
  out.BeginObject()
      .Key("task").String(HomTaskName(task))
      .Key("decided").Bool(decided)
      .Key("witness").Bool(witness.has_value())
      .Key("count").Uint(count)
      .Key("rows").Uint(rows.size())
      .Key("explain");
  explain.WriteJson(out);
  out.Key("stats");
  stats.WriteJson(out);
  out.EndObject();
  return out.str();
}

// ---- The structure-pair conveniences (declared in solver/backtracking.h).
// Defined here so they route through the engine: one battle-tested path.

bool HasHomomorphism(const Structure& a, const Structure& b) {
  auto problem = HomProblem::FromStructures(a, b);
  CQCS_CHECK_MSG(problem.ok(), problem.status().ToString());
  HomEngine engine;
  auto decided = engine.Decide(*problem);
  CQCS_CHECK_MSG(decided.ok(), decided.status().ToString());
  return *decided;
}

std::optional<Homomorphism> FindHomomorphism(const Structure& a,
                                             const Structure& b) {
  auto problem = HomProblem::FromStructures(a, b);
  CQCS_CHECK_MSG(problem.ok(), problem.status().ToString());
  HomEngine engine;
  auto witness = engine.FindWitness(*problem);
  CQCS_CHECK_MSG(witness.ok(), witness.status().ToString());
  return *std::move(witness);
}

}  // namespace cqcs
