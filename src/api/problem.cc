#include "api/problem.h"

#include <optional>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "cq/canonical.h"
#include "cq/containment.h"
#include "cq/gyo.h"

namespace cqcs {

// Source-side compilation products: everything derived from the source
// structure alone, shared across WithTarget rebinds. Fields are built
// lazily under `mu` and never rebuilt, so references handed out after the
// build stay valid without the lock.
struct HomProblem::SourceCache {
  Mutex mu;
  std::optional<ConjunctiveQuery> canonical CQCS_GUARDED_BY(mu);
  bool forest_known CQCS_GUARDED_BY(mu) = false;
  std::optional<JoinTree> forest CQCS_GUARDED_BY(mu);  // nullopt: cyclic
  std::optional<TreeDecomposition> decomposition CQCS_GUARDED_BY(mu);
  // A capped build that stopped: min-fill's width is at least
  // width_lower_bound. A decomposition, once built, takes precedence.
  std::optional<WidthCap> width_refusal CQCS_GUARDED_BY(mu);
};

// Pair products: the target's Schaefer classes and the constraint network.
// Fresh per (source, target) binding.
struct HomProblem::PairCache {
  Mutex mu;
  std::optional<CspInstance> csp CQCS_GUARDED_BY(mu);
  bool schaefer_known CQCS_GUARDED_BY(mu) = false;
  SchaeferClassSet schaefer_classes CQCS_GUARDED_BY(mu) = 0;
};

HomProblem::HomProblem(std::shared_ptr<const Structure> source,
                       std::shared_ptr<const Structure> target,
                       std::vector<Element> projection)
    : source_(std::move(source)),
      target_(std::move(target)),
      projection_(std::move(projection)),
      source_cache_(std::make_shared<SourceCache>()),
      pair_cache_(std::make_shared<PairCache>()) {}

Result<HomProblem> HomProblem::FromStructures(Structure source,
                                              Structure target) {
  if (!source.vocabulary()->Equals(*target.vocabulary())) {
    return Status::InvalidArgument(
        "source and target have different vocabularies");
  }
  CQCS_RETURN_IF_ERROR(source.Validate());
  CQCS_RETURN_IF_ERROR(target.Validate());
  return HomProblem(std::make_shared<const Structure>(std::move(source)),
                    std::make_shared<const Structure>(std::move(target)), {});
}

Result<HomProblem> HomProblem::FromQuery(const ConjunctiveQuery& query,
                                         Structure database) {
  CQCS_RETURN_IF_ERROR(query.Validate());
  if (!query.vocabulary()->Equals(*database.vocabulary())) {
    return Status::InvalidArgument(
        "query and database have different vocabularies");
  }
  CQCS_RETURN_IF_ERROR(database.Validate());
  CanonicalDb body = MakeCanonicalDb(query);
  return HomProblem(
      std::make_shared<const Structure>(std::move(body.structure)),
      std::make_shared<const Structure>(std::move(database)),
      std::move(body.head));
}

Result<HomProblem> HomProblem::FromContainment(const ConjunctiveQuery& q1,
                                               const ConjunctiveQuery& q2) {
  CQCS_RETURN_IF_ERROR(CheckComparableQueries(q1, q2));
  // Theorem 2.1: Q1 ⊆ Q2 iff hom(D_{Q2} -> D_{Q1}), head markers pinning
  // the distinguished variables positionally.
  CanonicalDb d1 = MakeCanonicalDbWithHeadMarkers(q1);
  CanonicalDb d2 = MakeCanonicalDbWithHeadMarkers(q2);
  return HomProblem(std::make_shared<const Structure>(std::move(d2.structure)),
                    std::make_shared<const Structure>(std::move(d1.structure)),
                    {});
}

Result<HomProblem> HomProblem::WithTarget(Structure new_target) const {
  if (!source_->vocabulary()->Equals(*new_target.vocabulary())) {
    return Status::InvalidArgument(
        "new target's vocabulary differs from the source's");
  }
  CQCS_RETURN_IF_ERROR(new_target.Validate());
  HomProblem rebound(
      source_, std::make_shared<const Structure>(std::move(new_target)),
      projection_);
  rebound.source_cache_ = source_cache_;  // keep the compiled source side
  return rebound;
}

Result<HomProblem> HomProblem::WithTarget(
    std::shared_ptr<const Structure> new_target) const {
  if (new_target == nullptr) {
    return Status::InvalidArgument("WithTarget: null target");
  }
  if (!source_->vocabulary()->Equals(*new_target->vocabulary())) {
    return Status::InvalidArgument(
        "new target's vocabulary differs from the source's");
  }
  HomProblem rebound(source_, std::move(new_target), projection_);
  rebound.source_cache_ = source_cache_;  // keep the compiled source side
  return rebound;
}

Status HomProblem::SetProjection(std::vector<Element> projection) {
  for (Element e : projection) {
    if (e >= source_->universe_size()) {
      return Status::InvalidArgument(
          "projection element " + std::to_string(e) +
          " outside the source universe of size " +
          std::to_string(source_->universe_size()));
    }
  }
  projection_ = std::move(projection);
  return Status::OK();
}

const ConjunctiveQuery& HomProblem::SourceCanonicalQuery() const {
  SourceCache& cache = *source_cache_;
  MutexLock lock(cache.mu);
  if (!cache.canonical.has_value()) {
    cache.canonical = CanonicalQuery(*source_);
  }
  return *cache.canonical;
}

const JoinTree* HomProblem::SourceJoinForest() const {
  SourceCache& cache = *source_cache_;
  MutexLock lock(cache.mu);
  if (!cache.forest_known) {
    // Shared queue-driven GYO, straight on the source's tuples — same
    // hypergraph as the canonical query's, no query materialization.
    cache.forest = StructureJoinForest(*source_);
    cache.forest_known = true;
  }
  return cache.forest.has_value() ? &*cache.forest : nullptr;
}

bool HomProblem::SourceAcyclic() const { return SourceJoinForest() != nullptr; }

const TreeDecomposition& HomProblem::SourceDecomposition() const {
  SourceCache& cache = *source_cache_;
  MutexLock lock(cache.mu);
  if (!cache.decomposition.has_value()) {
    // Ungoverned, the build cannot fail.
    cache.decomposition = *HeuristicDecomposition(*source_);
  }
  return *cache.decomposition;
}

Status HomProblem::EnsureSourceDecomposition(ResourceGovernor* governor,
                                             WidthCap* cap) const {
  SourceCache& cache = *source_cache_;
  MutexLock lock(cache.mu);
  if (cap != nullptr) cap->stopped = false;
  if (cache.decomposition.has_value()) return Status::OK();
  if (cap != nullptr && cache.width_refusal.has_value() &&
      cap->max_width < cache.width_refusal->width_lower_bound) {
    cap->stopped = true;
    cap->width_lower_bound = cache.width_refusal->width_lower_bound;
    cap->eliminated = cache.width_refusal->eliminated;
    return Status::OK();
  }
  // A trip leaves the cache empty — never a torn artifact — so the problem
  // stays reusable under a fresh budget.
  CQCS_ASSIGN_OR_RETURN(TreeDecomposition built,
                        HeuristicDecomposition(*source_, governor, cap));
  if (cap != nullptr && cap->stopped) {
    cache.width_refusal = *cap;
  } else {
    cache.decomposition = std::move(built);
  }
  return Status::OK();
}

bool HomProblem::TargetBoolean() const { return IsBooleanStructure(*target_); }

SchaeferClassSet HomProblem::TargetSchaeferClasses() const {
  PairCache& cache = *pair_cache_;
  MutexLock lock(cache.mu);
  if (!cache.schaefer_known) {
    cache.schaefer_classes = IsBooleanStructure(*target_)
                                 ? ClassifyBooleanStructure(*target_)
                                 : 0;
    cache.schaefer_known = true;
  }
  return cache.schaefer_classes;
}

const CspInstance& HomProblem::Csp() const {
  PairCache& cache = *pair_cache_;
  MutexLock lock(cache.mu);
  if (!cache.csp.has_value()) {
    cache.csp.emplace(*source_, *target_, projection_);
  }
  return *cache.csp;
}

}  // namespace cqcs
