// HomEngine: the unified front door over all five solving backends.
//
// The paper's theorems say which algorithm each instance deserves; the
// engine applies them so callers don't have to:
//
//   Backend::kSchaefer   Boolean Schaefer-class target  (Theorems 3.1-3.4)
//   Backend::kAcyclic    α-acyclic source — the full Yannakakis program:
//                        decide, witness, count, enumerate, and project
//                        all run over the semijoin-reduced join forest
//                        (cq/acyclic.h, on the rel/ columnar kernel)
//   Backend::kTreewidth  small-width source             (Theorem 5.4):
//                        the same program over join-built tables, one per
//                        bag of the source's tree decomposition
//   Backend::kUniform    everything (NP-complete)       (backtracking), with
//                        an optional existential-pebble-game preflight whose
//                        Spoiler win certifies unsatisfiability (Thm 4.7/4.9)
//   Backend::kAuto       route from the InstanceProfile, falling back down
//                        the list above; Explain() records the decision.
//
// Every run returns an EngineResult: the answer for the requested HomTask,
// an EngineStats superset merging the backends' stats structs, and an
// EngineExplain record (profile, chosen backend, why, fallbacks taken).
// The uniform backend honors EngineOptions::solve (node_limit, strategy,
// threads); a hit node limit surfaces as stats.search.limit_hit — "unknown",
// never a wrong answer. The polynomial backends always decide.
//
// The public conveniences — HasHomomorphism / FindHomomorphism
// (solver/backtracking.h) and cq::Contains / Evaluate / Minimize
// (cq/containment.h) — all go through this engine's one-call API
// (Decide / FindWitness / Project), so there is exactly one battle-tested
// path from any input shape to an answer, and their SolveOptions::governor
// governs it.

#ifndef CQCS_API_ENGINE_H_
#define CQCS_API_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/problem.h"
#include "api/profile.h"
#include "common/governor.h"
#include "common/json.h"
#include "common/status.h"
#include "pebble/game.h"
#include "schaefer/uniform.h"
#include "solver/backtracking.h"
#include "treewidth/hom_dp.h"

namespace cqcs {

/// Which algorithm answers the instance.
enum class Backend {
  kAuto,       ///< Route from the profile; fall back toward kUniform.
  kUniform,    ///< Backtracking search (always applicable).
  kTreewidth,  ///< Yannakakis program over the source's tree
               ///< decomposition's bag tables (every HomTask).
  kAcyclic,    ///< Full Yannakakis program over atoms (every HomTask).
  kSchaefer,   ///< Uniform polynomial algorithm for Schaefer targets
               ///< (decide/witness).
};

/// "auto" / "uniform" / ... — stable names for flags and JSON.
const char* BackendName(Backend backend);
/// Inverse of BackendName; nullopt for unknown names.
std::optional<Backend> ParseBackendName(std::string_view name);

/// "decide" / "witness" / "count" / "enumerate" / "project" — stable
/// names for `hom_tool --task` and JSON.
const char* HomTaskName(HomTask task);
/// Inverse of HomTaskName; nullopt for unknown names.
std::optional<HomTask> ParseHomTaskName(std::string_view name);

/// Engine configuration. The defaults make kAuto safe: the polynomial
/// routes only fire on profile evidence, and the pebble preflight (which is
/// itself Θ(n^{2k})) stays off unless asked for.
struct EngineOptions {
  Backend backend = Backend::kAuto;
  /// Uniform-backend knobs: propagation, node_limit, strategy, threads
  /// (the thread count applies to the Yannakakis program too). A non-null
  /// solve.governor is the run's governor on every backend and is
  /// snapshotted into stats.governor; setting it together with any budget
  /// field below is InvalidArgument (one governor per run).
  SolveOptions solve;
  /// kAuto takes the treewidth route only when the min-fill width estimate
  /// is at most this...
  int max_auto_width = 3;
  /// ...and the estimated DP work (profile.treewidth_dp_cost, i.e.
  /// bags * |B|^{w+1}) stays under this budget.
  double treewidth_cost_budget = 5e6;
  /// When > 0, the uniform backend first plays the existential k-pebble
  /// game; a Spoiler win certifies "no homomorphism" without any search.
  uint32_t pebble_preflight_k = 0;
  /// HomTask::kCount stops counting here.
  size_t count_limit = SIZE_MAX;
  /// HomTask::kProject / kEnumerate stop after this many rows.
  size_t max_results = SIZE_MAX;
  /// HomTask::kProject only: report the distinct-row count (saturated at
  /// count_limit) in EngineResult::count and return no rows. The acyclic
  /// route then skips the cross-product assembly entirely
  /// (AcyclicProjectCount: reduced-forest row-count product instead of
  /// materialize-then-dedup); other backends enumerate up to count_limit
  /// projections and discard the rows.
  bool project_count_only = false;

  // -- Resource governance (common/governor.h). When any of the four knobs
  // below is set, Run() builds a per-request ResourceGovernor (or, without
  // them, takes solve.governor) and threads it through whichever backend
  // executes, the pebble preflight included: every backend polls it on a
  // stride and charges its table growth, so a trip unwinds cleanly to an
  // "unknown" EngineResult (decided=false, stats.governor.tripped) — never
  // an abort, never a torn answer. All zero/null with no solve.governor =
  // ungoverned (one null check per poll site, no other overhead).
  /// Wall-clock deadline for the whole run; 0 = none.
  uint64_t deadline_ms = 0;
  /// Ceiling on bytes the backends' tables may hold at once; 0 = none.
  /// Also drives kAuto's pre-flight admission (as does a solve.governor's
  /// budget): a route whose size-bound estimate exceeds the budget is
  /// demoted before any work starts.
  size_t memory_budget_bytes = 0;
  /// Optional external cancellation flag, polled alongside the deadline.
  const std::atomic<bool>* cancel = nullptr;
  /// Fault injection for the robustness tests: trip at the Nth poll or the
  /// Kth allocation charge. Zeroed (inert) in production use.
  GovernorFailpoints failpoints;
};

/// What the run's ResourceGovernor saw: whether it tripped, why, and what
/// was spent up to the trip (or completion). `enabled` is false for
/// ungoverned runs; the other fields are then meaningless.
struct GovernorRunStats {
  bool enabled = false;
  bool tripped = false;
  TripCause cause = TripCause::kNone;
  uint64_t checks = 0;       ///< cooperative polls answered
  size_t peak_bytes = 0;     ///< high-water mark of charged table bytes
  uint64_t elapsed_ms = 0;   ///< wall-clock spent when the snapshot was taken
};

/// What the serving layer (serve/serving.h) did with the request before the
/// engine ran: cache outcome plus an engine-wide snapshot. `enabled` stays
/// false for direct HomEngine calls — the JSON then renders "serve": null.
struct ServeRequestStats {
  bool enabled = false;
  bool plan_cache_hit = false;    ///< compiled plan reused (pair or rebind)
  bool result_cache_hit = false;  ///< answer served without running a backend
  uint64_t shed_total = 0;        ///< requests shed by admission so far
  size_t queue_depth = 0;         ///< in-flight requests when this one ran
  double plan_hit_rate = 0.0;     ///< engine-wide, at serve time
  double result_hit_rate = 0.0;
};

/// Stats superset: one struct per backend that ran (used_* flags tell which).
struct EngineStats {
  bool used_search = false;
  bool used_treewidth = false;
  bool used_pebble = false;
  bool used_schaefer = false;
  bool used_acyclic = false;
  SolveStats search;
  TreewidthSolveStats treewidth;
  PebbleGameStats pebble;
  SchaeferSolveInfo schaefer;
  /// Semijoin / table-size counters from the Yannakakis run (used_acyclic).
  YannakakisStats yannakakis;
  /// Resource accounting for governed runs (EngineOptions::deadline_ms etc.).
  GovernorRunStats governor;
  /// Serving-layer record (cache hits, admission snapshot) for requests
  /// that came through serve::ServingEngine.
  ServeRequestStats serve;
  void WriteJson(JsonWriter& out) const;
  std::string ToJson() const { return ToJsonString(*this); }
};

/// The routing record: what was asked, what ran, and why — with the profile
/// evidence and every fallback taken along the way.
struct EngineExplain {
  Backend requested = Backend::kAuto;
  Backend chosen = Backend::kUniform;
  /// The task this run actually served (witness/count/... — so a JSON
  /// consumer never has to correlate with the request).
  HomTask served = HomTask::kDecide;
  /// Why `chosen` ran, naming the profile evidence (e.g. the Schaefer
  /// classes, the GYO verdict, the width estimate).
  std::string reason;
  /// Routes considered and abandoned, in decision order; includes runtime
  /// fallbacks (a backend erroring demotes kAuto to the uniform search).
  std::vector<std::string> fallbacks;
  bool profiled = false;      ///< kAuto profiles (all tasks — enumeration
                              ///< tasks record at least the GYO verdict);
                              ///< explicit backends skip it
  InstanceProfile profile;    ///< meaningful when `profiled`
  void WriteJson(JsonWriter& out) const;
  std::string ToJson() const { return ToJsonString(*this); }
};

/// The unified answer. Which fields are meaningful depends on the task:
/// decided (+witness) for kDecide/kWitness, count for kCount, rows for
/// kEnumerate (full homomorphisms) / kProject (distinct projections).
struct EngineResult {
  HomTask task = HomTask::kDecide;
  bool decided = false;
  std::optional<Homomorphism> witness;
  size_t count = 0;
  std::vector<std::vector<Element>> rows;
  EngineExplain explain;
  EngineStats stats;

  const EngineExplain& Explain() const { return explain; }
  /// Machine-readable record of answer + explain + stats, for
  /// `hom_tool --explain`.
  std::string ToJson() const;
};

/// The front door. Stateless apart from its options; one engine can serve
/// any number of problems (and one compiled HomProblem any number of runs).
class HomEngine {
 public:
  explicit HomEngine(EngineOptions options = {}) : options_(options) {}

  const EngineOptions& options() const { return options_; }

  /// Solves `problem` for `task`. Errors: InvalidArgument when an explicitly
  /// requested backend cannot handle the task or instance (kAuto never has
  /// that problem — it falls back); backend-specific statuses otherwise.
  /// A hit node limit is NOT an error here: check stats.search.limit_hit.
  /// Likewise a governed run that exhausts its budget returns OK with an
  /// "unknown" result: decided=false and stats.governor.tripped — the spent
  /// budget is recorded, the problem and engine stay reusable. kAuto does
  /// NOT fall back after a budget trip (the budget is already spent).
  Result<EngineResult> Run(const HomProblem& problem, HomTask task) const;

  // One-call conveniences over Run().
  Result<bool> Decide(const HomProblem& problem) const;
  Result<std::optional<Homomorphism>> FindWitness(
      const HomProblem& problem) const;
  Result<size_t> Count(const HomProblem& problem) const;
  Result<std::vector<std::vector<Element>>> Project(
      const HomProblem& problem) const;

 private:
  EngineOptions options_;
};

}  // namespace cqcs

#endif  // CQCS_API_ENGINE_H_
