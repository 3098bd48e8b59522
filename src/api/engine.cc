#include "api/engine.h"

#include <cstdio>
#include <optional>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "cq/acyclic.h"

namespace cqcs {

namespace {

void AppendJsonString(std::ostringstream& out, std::string_view s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
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
  // One governor per run; the backends poll it cooperatively and charge
  // their table growth against it. Ungoverned runs pass nullptr everywhere.
  std::optional<ResourceGovernor> governor_storage;
  ResourceGovernor* governor = nullptr;
  if (options_.deadline_ms > 0 || options_.memory_budget_bytes > 0 ||
      options_.cancel != nullptr ||
      options_.failpoints.trip_after_checks > 0 ||
      options_.failpoints.trip_after_charges > 0) {
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
    if (!decide_like) {
      // Counting/enumeration/projection: the full Yannakakis program
      // serves these on α-acyclic sources (count DP, output-bounded
      // enumeration, join-project over the reduced join forest);
      // everything else needs the uniform search. The Schaefer and
      // treewidth islands stay decide/witness-only.
      InstanceProfile& prof = r.explain.profile;
      FillSizeStats(a, b, &prof);
      r.explain.profiled = true;
      prof.acyclicity_known = true;
      prof.source_acyclic = problem.SourceAcyclic();
      if (prof.source_acyclic) {
        chosen = Backend::kAcyclic;
        r.explain.reason =
            "source hypergraph is α-acyclic (GYO reduces it): full "
            "Yannakakis program over the reduced join forest";
      } else {
        r.explain.fallbacks.push_back(
            "acyclic: source hypergraph is cyclic (GYO leaves live edges)");
        r.explain.fallbacks.push_back(
            "schaefer/treewidth: decide/witness only — counting and "
            "enumeration need the search");
        chosen = Backend::kUniform;
        r.explain.reason =
            "cyclic source with a counting/enumeration task; uniform "
            "search";
      }
    } else if (a.universe_size() == 0) {
      r.decided = true;
      if (task == HomTask::kWitness) r.witness = Homomorphism{};
      r.explain.chosen = Backend::kUniform;
      r.explain.reason = "empty source universe: the empty map is a "
                         "homomorphism; no backend needed";
      snapshot_governor();
      return r;
    } else if (b.universe_size() == 0) {
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
      // islands refused. The profile records exactly the evidence that was
      // computed.
      InstanceProfile& prof = r.explain.profile;
      FillSizeStats(a, b, &prof);
      prof.target_boolean = problem.TargetBoolean();
      prof.schaefer_classes = problem.TargetSchaeferClasses();
      r.explain.profiled = true;
      std::ostringstream why;
      if (prof.schaefer_classes != 0) {
        chosen = Backend::kSchaefer;
        why << "Boolean target in Schaefer class(es) "
            << SchaeferClassSetToString(prof.schaefer_classes)
            << ": uniform polynomial algorithm (Theorems 3.3/3.4)";
      } else {
        r.explain.fallbacks.push_back(
            prof.target_boolean
                ? "schaefer: target is Boolean but outside every Schaefer "
                  "class (by the dichotomy, CSP(B) is NP-complete)"
                : "schaefer: target is not Boolean");
        prof.acyclicity_known = true;
        prof.source_acyclic = problem.SourceAcyclic();
        if (prof.source_acyclic) {
          chosen = Backend::kAcyclic;
          why << "source hypergraph is α-acyclic (GYO reduces it): "
              << (task == HomTask::kDecide
                      ? "Yannakakis semijoin evaluation"
                      : "Yannakakis semijoin reduction with witness "
                        "extraction");
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
                  << "): bag-by-bag dynamic program (Theorem 5.4)";
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
  // can still decide within the budget where the DP provably cannot.
  if (route_status.ok() && governor != nullptr &&
      options_.memory_budget_bytes > 0 && options_.backend == Backend::kAuto &&
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
           << options_.memory_budget_bytes
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
      case Backend::kAcyclic: {
        if (b.universe_size() == 0 && a.universe_size() > 0) {
          // Body satisfiability ignores isolated source elements, which
          // still need images; only an empty target makes that distinction.
          r.decided = false;
          r.count = 0;
          return Status::OK();
        }
        // Canonical-query variable ids ARE source element ids, so the
        // assignment rows the Yannakakis program returns are
        // homomorphisms verbatim.
        const ConjunctiveQuery& q = problem.SourceCanonicalQuery();
        YannakakisStats* ys = &r.stats.yannakakis;
        const unsigned threads = options_.solve.num_threads;
        switch (task) {
          case HomTask::kDecide: {
            auto sat = EvaluateBooleanAcyclic(q, b, ys, governor, threads);
            if (!sat.ok()) return sat.status();
            r.decided = *sat;
            break;
          }
          case HomTask::kWitness: {
            auto w = AcyclicWitness(q, b, ys, governor, threads);
            if (!w.ok()) return w.status();
            r.decided = w->has_value();
            if (w->has_value()) r.witness = *std::move(*w);
            break;
          }
          case HomTask::kCount: {
            auto c = AcyclicCount(q, b, options_.count_limit, ys, governor,
                                  threads);
            if (!c.ok()) return c.status();
            r.count = *c;
            break;
          }
          case HomTask::kEnumerate: {
            auto rows = AcyclicEnumerate(q, b, options_.max_results, ys,
                                         governor, threads);
            if (!rows.ok()) return rows.status();
            r.rows = *std::move(rows);
            r.count = r.rows.size();
            break;
          }
          case HomTask::kProject: {
            std::span<const Element> proj = problem.projection();
            std::vector<VarId> pvars(proj.begin(), proj.end());
            if (options_.project_count_only) {
              auto c = AcyclicProjectCount(q, b, pvars, options_.count_limit,
                                           ys, governor, threads);
              if (!c.ok()) return c.status();
              r.count = *c;
              break;
            }
            auto rows = AcyclicProject(q, b, pvars, options_.max_results, ys,
                                       governor, threads);
            if (!rows.ok()) return rows.status();
            r.rows = *std::move(rows);
            r.count = r.rows.size();
            break;
          }
        }
        r.stats.used_acyclic = true;
        return Status::OK();
      }
      case Backend::kTreewidth: {
        if (!decide_like) {
          return Status::InvalidArgument(
              "the treewidth backend supports decide/witness only");
        }
        CQCS_RETURN_IF_ERROR(problem.EnsureSourceDecomposition(governor));
        auto h = SolveViaTreeDecomposition(a, b, problem.SourceDecomposition(),
                                           &r.stats.treewidth, governor,
                                           options_.solve.num_threads);
        if (!h.ok()) return h.status();
        r.stats.used_treewidth = true;
        r.decided = h->has_value();
        if (task == HomTask::kWitness) r.witness = *std::move(h);
        return Status::OK();
      }
      case Backend::kUniform: {
        if (decide_like && options_.pebble_preflight_k > 0) {
          auto game = ExistentialPebbleGame::Create(
              a, b, options_.pebble_preflight_k);
          if (!game.ok()) {
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
        BacktrackingSolver solver(&problem.Csp(), solve);
        r.stats.used_search = true;
        switch (task) {
          case HomTask::kDecide:
          case HomTask::kWitness: {
            auto h = solver.Solve(&r.stats.search);
            r.decided = h.has_value();
            if (task == HomTask::kWitness) r.witness = std::move(h);
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

std::string EngineStats::ToJson() const {
  std::ostringstream out;
  out << "{";
  out << "\"search\":";
  if (used_search) {
    out << "{\"nodes\":" << search.nodes
        << ",\"backtracks\":" << search.backtracks
        << ",\"backjumps\":" << search.backjumps
        << ",\"restarts\":" << search.restarts
        << ",\"workers\":" << search.workers
        << ",\"limit_hit\":" << (search.limit_hit ? "true" : "false") << "}";
  } else {
    out << "null";
  }
  out << ",\"treewidth\":";
  if (used_treewidth) {
    out << "{\"width\":" << treewidth.width
        << ",\"table_entries\":" << treewidth.table_entries
        << ",\"table_rows\":" << treewidth.table_rows
        << ",\"workers\":" << treewidth.workers
        << ",\"morsels\":" << treewidth.morsels
        << ",\"steals\":" << treewidth.steals << "}";
  } else {
    out << "null";
  }
  out << ",\"acyclic\":";
  if (used_acyclic) {
    out << "{\"atom_tables\":" << yannakakis.atom_tables
        << ",\"rows_materialized\":" << yannakakis.rows_materialized
        << ",\"max_table_rows\":" << yannakakis.max_table_rows
        << ",\"semijoins\":" << yannakakis.semijoins
        << ",\"rows_pruned\":" << yannakakis.rows_pruned
        << ",\"join_rows\":" << yannakakis.join_rows
        << ",\"workers\":" << yannakakis.workers
        << ",\"morsels\":" << yannakakis.morsels
        << ",\"steals\":" << yannakakis.steals << "}";
  } else {
    out << "null";
  }
  out << ",\"pebble\":";
  if (used_pebble) {
    out << "{\"total_positions\":" << pebble.total_positions
        << ",\"deleted_positions\":" << pebble.deleted_positions << "}";
  } else {
    out << "null";
  }
  out << ",\"schaefer\":";
  if (used_schaefer) {
    out << "{\"classes\":";
    AppendJsonString(out, SchaeferClassSetToString(schaefer.classes));
    out << ",\"dispatched\":";
    AppendJsonString(out, SchaeferClassSetToString(schaefer.dispatched));
    out << ",\"trivial\":" << (schaefer.trivial ? "true" : "false") << "}";
  } else {
    out << "null";
  }
  out << ",\"governor\":";
  if (governor.enabled) {
    out << "{\"tripped\":" << (governor.tripped ? "true" : "false")
        << ",\"cause\":\"" << TripCauseName(governor.cause)
        << "\",\"checks\":" << governor.checks
        << ",\"peak_bytes\":" << governor.peak_bytes
        << ",\"elapsed_ms\":" << governor.elapsed_ms << "}";
  } else {
    out << "null";
  }
  out << ",\"serve\":";
  if (serve.enabled) {
    out << "{\"plan_cache_hit\":" << (serve.plan_cache_hit ? "true" : "false")
        << ",\"result_cache_hit\":"
        << (serve.result_cache_hit ? "true" : "false")
        << ",\"plan_hit_rate\":" << serve.plan_hit_rate
        << ",\"result_hit_rate\":" << serve.result_hit_rate
        << ",\"shed_total\":" << serve.shed_total
        << ",\"queue_depth\":" << serve.queue_depth << "}";
  } else {
    out << "null";
  }
  out << "}";
  return out.str();
}

std::string EngineExplain::ToString() const {
  std::ostringstream out;
  out << "backend " << BackendName(chosen) << " (requested "
      << BackendName(requested) << ", task " << HomTaskName(served)
      << "): " << reason;
  for (const std::string& f : fallbacks) out << "\n  - " << f;
  if (profiled) out << "\n  profile: " << profile.ToString();
  return out.str();
}

std::string EngineExplain::ToJson() const {
  std::ostringstream out;
  out << "{\"requested\":\"" << BackendName(requested) << "\",\"chosen\":\""
      << BackendName(chosen) << "\",\"served\":\"" << HomTaskName(served)
      << "\",\"reason\":";
  AppendJsonString(out, reason);
  out << ",\"fallbacks\":[";
  for (size_t i = 0; i < fallbacks.size(); ++i) {
    if (i > 0) out << ",";
    AppendJsonString(out, fallbacks[i]);
  }
  out << "],\"profile\":" << (profiled ? profile.ToJson() : "null") << "}";
  return out.str();
}

std::string EngineResult::ToJson() const {
  std::ostringstream out;
  out << "{\"task\":\"" << HomTaskName(task)
      << "\",\"decided\":" << (decided ? "true" : "false")
      << ",\"witness\":" << (witness.has_value() ? "true" : "false")
      << ",\"count\":" << count << ",\"rows\":" << rows.size()
      << ",\"explain\":" << explain.ToJson() << ",\"stats\":" << stats.ToJson()
      << "}";
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
