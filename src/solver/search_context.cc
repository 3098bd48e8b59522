#include "solver/search_context.h"

#include <algorithm>
#include <bit>

#include "common/bitset.h"
#include "common/check.h"
#include "common/governor.h"

namespace cqcs {
namespace solver_internal {

namespace {

/// Luby sequence, 1-indexed: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8...
uint64_t LubyValue(uint64_t i) {
  for (;;) {
    if (std::has_single_bit(i + 1)) return (i + 1) >> 1;
    i -= std::bit_floor(i + 1) - 1;
  }
}

}  // namespace

SearchContext::SearchContext(const CspInstance& csp,
                             const SolveOptions& options,
                             std::span<const Element> projection,
                             std::function<bool(const Homomorphism&)>
                                 on_solution,
                             SolveStats* stats, bool first_solution_only,
                             const ParallelHandles* par)
    : csp_(csp),
      options_(options),
      on_solution_(std::move(on_solution)),
      stats_(stats != nullptr ? stats : &owned_stats_),
      prop_(csp),
      cbj_(options.strategy.backjumping),
      // A restarted run would re-report every solution already delivered,
      // so restarts only apply when the search stops at the first one.
      restarts_(options.strategy.restarts && first_solution_only),
      par_(par) {
  assigned_.assign(csp_.var_count(), 0);
  in_prefix_.assign(csp_.var_count(), 0);
  // Deduplicated projection prefix: these variables are branched on first,
  // so that after one full solution the search can discard the entire
  // subtree below them (same projection => already reported).
  for (Element v : projection) {
    CQCS_CHECK(v < csp_.var_count());
    if (in_prefix_[v]) continue;
    in_prefix_[v] = 1;
    prefix_.push_back(v);
  }
  prune_boundary_ = projection.empty() ? SIZE_MAX : prefix_.size();
  // One value buffer per depth, sized once: the search itself does not
  // allocate.
  values_by_depth_.resize(csp_.var_count());
  for (auto& values : values_by_depth_) values.reserve(csp_.domain_size());
  solution_.resize(csp_.var_count());
  frame_donated_.assign(csp_.var_count(), 0);
  if (par_ != nullptr) {
    prop_.set_cancel_flag(par_->cancel);
    var_by_depth_.assign(csp_.var_count(), 0);
    value_idx_by_depth_.assign(csp_.var_count(), 0);
  } else if (options_.governor != nullptr) {
    // Sequential governed search: long MAC fixpoints poll the governor's
    // sticky trip flag the same way parallel workers poll the shared
    // cancel. A cancelled fixpoint looks like a wipeout, which only prunes
    // — found solutions stay valid, and the trip check at the end of
    // RunSubproblem turns an exhausted-after-trip run into "unknown".
    prop_.set_cancel_flag(options_.governor->trip_flag());
  }
  if (cbj_) {
    prop_.EnableConflictTracking();
    cw_ = prop_.conflict_words();
    fail_set_.assign(cw_, 0);
    conflict_by_depth_.assign(csp_.var_count(),
                              std::vector<uint64_t>(cw_, 0));
  }
  if (options_.strategy.val_order == ValOrder::kLeastConstraining &&
      csp_.var_count() > 0 && csp_.domain_size() > 0) {
    // The static least-constraining order lives on the instance (one sort,
    // shared by every worker); per node the search just filters it against
    // the live domain instead of re-sorting.
    lcv_perm_ = csp_.LcvValuePermutation().data();
  }
}

bool SearchContext::PrepareRoot() {
  if (options_.propagation == Propagation::kMac) {
    return prop_.EstablishGac();
  }
  // Even under forward checking, empty initial domains mean failure.
  for (Element v = 0; v < csp_.var_count(); ++v) {
    if (prop_.domain_count(v) == 0) return false;
  }
  return true;
}

size_t SearchContext::Run() {
  if (PrepareRoot()) {
    RunSubproblem({});
  } else if (options_.governor != nullptr && options_.governor->tripped()) {
    stats_->limit_hit = true;  // a cancelled root fixpoint refutes nothing
  }
  return solutions_;
}

void SearchContext::RunSubproblem(
    std::span<const std::pair<Element, Element>> decisions) {
  replay_.assign(decisions.begin(), decisions.end());
  replay_len_ = replay_.size();
  prop_.PushLevel();
  size_t replayed = 0;
  bool ok = true;
  for (size_t i = 0; i < replay_.size() && ok; ++i) {
    const auto [var, value] = replay_[i];
    if (i + 1 == replay_.size()) {
      // The final entry is the stolen value — a branch its donor truncated
      // away and never counted. Charging it here keeps the union of all
      // workers' nodes equal to the sequential tree's (the shared prefix
      // above it was already counted by the donor walking it).
      if (par_ != nullptr &&
          par_->cancel->load(std::memory_order_relaxed)) {
        ok = false;
        break;
      }
      if (!CountNode()) {
        ok = false;
        break;
      }
    }
    if (cbj_) prop_.MarkDecision(var);
    prop_.Assign(var, value);
    assigned_[var] = 1;
    ++replayed;
    if (!prop_.Propagate(
            var, /*cascade=*/options_.propagation == Propagation::kMac)) {
      // Replay of a donated prefix can only genuinely fail at the stolen
      // value (the donor propagated everything above it); a failure that is
      // really a cancelled fixpoint is not a backtrack.
      if (par_ == nullptr ||
          !par_->cancel->load(std::memory_order_relaxed)) {
        ++stats_->backtracks;
      }
      ok = false;
    }
  }
  if (ok) {
    const uint64_t base =
        std::max<uint64_t>(1, options_.strategy.restart_base);
    for (uint64_t run = 1;; ++run) {
      restart_cutoff_ = restarts_ ? base * LubyValue(run) : 0;
      run_start_nodes_ = stats_->nodes;
      if (Search(0) != Step::kRestart) break;
      // The node counter is cumulative: a restart unwinds the trail, not
      // the accounting, so node_limit still bounds the whole search.
      ++stats_->restarts;
      prop_.DecayWeights();
    }
  }
  for (size_t i = 0; i < replayed; ++i) {
    assigned_[replay_[i].first] = 0;
    if (cbj_) prop_.UnmarkDecision(replay_[i].first);
  }
  prop_.PopLevel();
  replay_.clear();
  replay_len_ = 0;
  // A governor trip makes any non-solution outcome unreliable (cancelled
  // fixpoints prune spuriously), so report it through the same channel as
  // an exhausted node budget.
  if (options_.governor != nullptr && options_.governor->tripped()) {
    stats_->limit_hit = true;
  }
}

bool SearchContext::CountNode() {
  ++stats_->nodes;
  // Governed searches poll the request budget on a stride (node 1, then
  // every 128th local node): the same cooperative discipline as the node
  // limit, so after a trip the per-worker overshoot is bounded by the
  // stride instead of one node.
  if (options_.governor != nullptr && (stats_->nodes & 127) == 1) {
    if (!options_.governor->Poll().ok()) {
      stats_->limit_hit = true;
      if (par_ != nullptr) {
        par_->cancel->store(true, std::memory_order_relaxed);
      }
      return false;
    }
  }
  // Unlimited searches never touch the shared counter: a per-node RMW on a
  // line every other worker reads would ping-pong for nothing.
  if (options_.node_limit == 0) return true;
  if (par_ != nullptr) {
    const uint64_t total =
        par_->global_nodes->fetch_add(1, std::memory_order_relaxed) + 1;
    if (total > options_.node_limit) {
      stats_->limit_hit = true;
      par_->cancel->store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }
  if (stats_->nodes > options_.node_limit) {
    stats_->limit_hit = true;
    return false;
  }
  return true;
}

void SearchContext::TrySplit(size_t cur_depth) {
  if (par_->donate == nullptr) return;
  for (size_t k = 0; k <= cur_depth; ++k) {
    // Never split at or below the projection prune boundary: those subtrees
    // are abandoned wholesale after one solution, so donating them would
    // only manufacture duplicate projection rows for the dedup set.
    if (k + replay_len_ >= prune_boundary_) break;
    const size_t next = value_idx_by_depth_[k] + 1;
    std::vector<Element>& vals = values_by_depth_[k];
    if (next >= vals.size()) continue;
    std::vector<std::pair<Element, Element>> base = replay_;
    base.reserve(replay_.size() + k + 1);
    for (size_t j = 0; j < k; ++j) {
      base.emplace_back(var_by_depth_[j],
                        values_by_depth_[j][value_idx_by_depth_[j]]);
    }
    std::vector<Subproblem> subs;
    subs.reserve(vals.size() - next);
    for (size_t i = next; i < vals.size(); ++i) {
      Subproblem sp;
      sp.decisions = base;
      sp.decisions.emplace_back(var_by_depth_[k], vals[i]);
      subs.push_back(std::move(sp));
    }
    vals.resize(next);
    // This frame no longer tries every value itself, so its "all values
    // failed" conflict union would be unsound — fall back to chronological
    // backtracking here (the in-loop jump over deeper conflicts stays
    // valid: it never depends on which sibling values remain).
    frame_donated_[k] = 1;
    par_->donate(std::move(subs));
    return;
  }
}

SearchContext::Step SearchContext::Search(size_t depth) {
  if (depth + replay_len_ == csp_.var_count()) return EmitSolution();
  Element var = SelectVariable(depth);

  std::vector<Element>& values = values_by_depth_[depth];
  values.clear();
  if (lcv_perm_ == nullptr) {
    prop_.ForEachValue(
        var, [&](size_t v) { values.push_back(static_cast<Element>(v)); });
  } else {
    // Walk the precomputed least-constraining order, keeping live values.
    const Element* perm = lcv_perm_ + var * csp_.domain_size();
    for (size_t i = 0; i < csp_.domain_size(); ++i) {
      if (prop_.domain_test(var, perm[i])) values.push_back(perm[i]);
    }
  }
  if (cbj_) {
    std::fill(conflict_by_depth_[depth].begin(),
              conflict_by_depth_[depth].end(), 0);
  }
  frame_donated_[depth] = 0;
  // Once a solution is reported anywhere below this frame, conflict sets
  // stop being grounds for skipping: sibling values may lead to *other*
  // solutions, which a pure-conflict argument says nothing about. The
  // frame then backtracks chronologically and reports no conflict upward.
  bool solution_below = false;

  // Indexed (not range-for): TrySplit may truncate this frame's — or a
  // shallower frame's — value list mid-loop.
  for (size_t vi = 0; vi < values.size(); ++vi) {
    const Element v = values[vi];
    if (par_ != nullptr) {
      if (par_->cancel->load(std::memory_order_relaxed)) return Step::kStop;
      var_by_depth_[depth] = var;
      value_idx_by_depth_[depth] = vi;
      if (par_->want_work->load(std::memory_order_relaxed) > 0 &&
          par_->pool_size->load(std::memory_order_relaxed) == 0) {
        TrySplit(depth);
      }
    }
    if (restarts_ &&
        stats_->nodes - run_start_nodes_ >= restart_cutoff_) {
      return Step::kRestart;
    }
    if (!CountNode()) return Step::kStop;
    prop_.PushLevel();
    if (cbj_) prop_.MarkDecision(var);
    prop_.Assign(var, v);
    assigned_[var] = 1;
    bool consistent = prop_.Propagate(
        var, /*cascade=*/options_.propagation == Propagation::kMac);
    Step child = Step::kExhausted;
    const size_t solutions_before = solutions_;
    if (consistent) {
      child = Search(depth + 1);
    } else if (par_ != nullptr &&
               par_->cancel->load(std::memory_order_relaxed)) {
      // A cancelled fixpoint surfaces as a propagation failure without a
      // real wipeout: conflict_var()/conflict_set are stale, so record no
      // backtrack and no conflict — just unwind.
      child = Step::kStop;
    } else {
      ++stats_->backtracks;
      if (cbj_) {
        // The wipeout's explanation: every decision responsible for the
        // emptied domain. Valid to read before PopLevel rewinds it.
        const Element wiped = prop_.conflict_var();
        const uint64_t* cs = prop_.conflict_set(wiped);
        std::copy(cs, cs + cw_, fail_set_.begin());
        // A wiped *decision* variable lost its other values to its own
        // Assign, which records no reason — charge the decision itself.
        if (bitwords::TestBit(prop_.decision_bits(), wiped)) {
          bitwords::SetBit(fail_set_.data(), wiped);
        }
        fail_is_conflict_ = true;
        jump_chain_ = 0;
        uint64_t size = 0;
        for (size_t wi = 0; wi < cw_; ++wi) {
          size += static_cast<uint64_t>(
              std::popcount(fail_set_[wi] & prop_.decision_bits()[wi]));
        }
        stats_->max_conflict_set =
            std::max(stats_->max_conflict_set, size);
      }
    }
    assigned_[var] = 0;
    if (cbj_) prop_.UnmarkDecision(var);
    prop_.PopLevel();
    if (child == Step::kStop || child == Step::kRestart) return child;
    if (solutions_ != solutions_before) solution_below = true;
    if (child == Step::kPrune) {
      // A solution was reported below. If this variable is outside the
      // projection prefix, sibling values can only repeat the projection.
      if (depth + replay_len_ >= prune_boundary_) {
        fail_is_conflict_ = false;
        return Step::kPrune;
      }
      continue;  // otherwise move on to this variable's next value
    }
    // child == kExhausted: a failed subtree (or failed propagation, which
    // filled fail_set_ above). Conflict-directed backjumping: if the
    // failure's explanation does not mention this frame's variable, no
    // sibling value can change it — return the same conflict upward,
    // skipping the rest of this frame's values.
    if (cbj_ && !solution_below) {
      if (!fail_is_conflict_) {
        solution_below = true;  // deeper frame already saw a solution
      } else if (!bitwords::TestBit(fail_set_.data(), var)) {
        ++stats_->backjumps;
        ++jump_chain_;
        stats_->longest_backjump =
            std::max(stats_->longest_backjump, jump_chain_);
        return Step::kExhausted;  // fail_set_ passes through unchanged
      } else {
        jump_chain_ = 0;
        bitwords::ResetBit(fail_set_.data(), var);
        uint64_t* acc = conflict_by_depth_[depth].data();
        for (size_t wi = 0; wi < cw_; ++wi) acc[wi] |= fail_set_[wi];
      }
    }
  }
  if (cbj_ && !solution_below && !frame_donated_[depth]) {
    // Every value failed: the frame's conflict is the union of the value
    // conflicts plus the reasons this variable's other values were pruned
    // before branching.
    const uint64_t* own = prop_.conflict_set(var);
    const uint64_t* acc = conflict_by_depth_[depth].data();
    for (size_t wi = 0; wi < cw_; ++wi) fail_set_[wi] = acc[wi] | own[wi];
    fail_is_conflict_ = true;
    jump_chain_ = 0;
  } else {
    fail_is_conflict_ = false;
  }
  return Step::kExhausted;
}

SearchContext::Step SearchContext::EmitSolution() {
  for (size_t i = 0; i < solution_.size(); ++i) {
    size_t v = prop_.domain_first(static_cast<Element>(i));
    CQCS_CHECK(v != DynamicBitset::npos);
    solution_[i] = static_cast<Element>(v);
  }
  ++solutions_;
  if (!on_solution_(solution_)) return Step::kStop;
  return Step::kPrune;
}

// One tight scan per heuristic: the selection loop runs at every search
// node, so the strategy dispatch stays outside it.
Element SearchContext::SelectVariable(size_t depth) {
  // Depths are absolute (replay included): a subproblem whose prefix covers
  // the first few projection variables continues with the next one.
  const size_t abs_depth = depth + replay_len_;
  if (abs_depth < prefix_.size()) return prefix_[abs_depth];
  switch (options_.strategy.var_order) {
    case VarOrder::kLex:
      return SelectLex();
    case VarOrder::kMrv:
      return SelectMrv();
    case VarOrder::kDomWdeg:
      return SelectDomWdeg();
  }
  CQCS_CHECK(false);
}

Element SearchContext::SelectLex() const {
  for (Element v = 0; v < csp_.var_count(); ++v) {
    if (!assigned_[v] && !in_prefix_[v]) return v;
  }
  CQCS_CHECK(false);
}

Element SearchContext::SelectMrv() const {
  Element best = kUnassigned;
  size_t best_size = SIZE_MAX;
  size_t best_degree = 0;
  for (Element v = 0; v < csp_.var_count(); ++v) {
    if (assigned_[v] || in_prefix_[v]) continue;
    const size_t size = prop_.domain_count(v);
    const size_t degree = csp_.constraints_of(v).size();
    if (size < best_size || (size == best_size && degree > best_degree)) {
      best = v;
      best_size = size;
      best_degree = degree;
    }
  }
  CQCS_CHECK(best != kUnassigned);
  return best;
}

Element SearchContext::SelectDomWdeg() const {
  Element best = kUnassigned;
  size_t best_size = SIZE_MAX;
  uint64_t best_weight = 1;
  for (Element v = 0; v < csp_.var_count(); ++v) {
    if (assigned_[v] || in_prefix_[v]) continue;
    // Minimize size / weight without division: size_v * w_best <
    // size_best * w_v. Weights are offset by 1 so conflict-free variables
    // compare by domain size alone.
    const size_t size = prop_.domain_count(v);
    const uint64_t weight = prop_.failure_weight(v) + 1;
    if (best == kUnassigned ||
        static_cast<unsigned __int128>(size) * best_weight <
            static_cast<unsigned __int128>(best_size) * weight) {
      best = v;
      best_size = size;
      best_weight = weight;
    }
  }
  CQCS_CHECK(best != kUnassigned);
  return best;
}

}  // namespace solver_internal
}  // namespace cqcs
