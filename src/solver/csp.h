// The uniform homomorphism problem as a constraint network.
//
// Given structures A and B over a common vocabulary, the CSP view is:
// one variable per element of A, domain = universe of B, and one constraint
// per tuple t in a relation R^A requiring h(t) ∈ R^B. This is exactly the
// reformulation in Section 2 of Kolaitis–Vardi; the generic (exponential in
// the worst case) solver over this network is the uniform baseline that the
// paper's tractable cases improve upon.
//
// The instance is preprocessed for fast revision: identical constraints are
// deduplicated, every B-relation gets a (position, value) -> tuple-list
// support index (built once, shared by all constraints on that relation),
// and each constraint carries its first-occurrence positions and repeated-
// position equality pairs so the propagator can test "is this B-tuple still
// alive?" without rediscovering the scope shape. See docs/solver.md.
//
// Thread safety: a constructed CspInstance is logically immutable and safe
// to share across the parallel search's workers — every per-node read
// (constraints, constraints_of, the relations' CSR support indexes, which
// the constructor materializes eagerly) touches only memory written before
// the workers started. The one lazily built cache is
// ValueSupportScores(); the parallel driver (solver/parallel.cc) calls it
// once on the calling thread when the strategy needs it, so workers only
// ever read it. Callers sharing an instance across threads by other means
// must do the same warm-up.

#ifndef CQCS_SOLVER_CSP_H_
#define CQCS_SOLVER_CSP_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "core/structure.h"

namespace cqcs {

/// One constraint: the A-tuple `scope_tuple` of relation `rel` must map into
/// R^B. `vars` lists the distinct elements of the scope (first-occurrence
/// order); positions with equal elements force equal images.
struct Constraint {
  RelId rel = 0;
  /// Whether R^B is sparse enough for the propagator's support walk to pay
  /// (see Propagator::Revise): with k = vars.size() >= 2, (k + 1) x the
  /// largest |TuplesWith(p, v)| is below (k - 1) x |B|, i.e. walking one
  /// value's supports costs less than checking the other slots' full
  /// domains. Dense targets (K3, G(n, 0.5)) never walk and never pay for
  /// the rule.
  bool may_walk = false;
  std::vector<Element> scope_tuple;
  std::vector<Element> vars;
  /// var_pos[i] = first position of vars[i] in scope_tuple. A support for
  /// (vars[i], v) is a live B-tuple u with u[var_pos[i]] == v, so candidate
  /// supports come straight from the relation's position index. Empty means
  /// the identity map (scope positions all distinct — the common case,
  /// stored without an allocation).
  std::vector<uint32_t> var_pos;
  /// (p, q) with p > q, scope_tuple[p] == scope_tuple[q], q the first
  /// occurrence: a B-tuple u satisfies the scope's equality pattern iff
  /// u[p] == u[q] for all pairs. Empty for constraints without repeats.
  std::vector<std::pair<uint32_t, uint32_t>> eq_pairs;

  uint32_t pos_of_var(size_t i) const {
    return var_pos.empty() ? static_cast<uint32_t>(i) : var_pos[i];
  }
  /// Start of this constraint's (var slot, value) -> last-support residue
  /// block in the propagator's flat residue array (vars.size() * domain_size
  /// entries).
  size_t residue_offset = 0;
};

/// Immutable constraint network extracted from a pair (A, B).
class CspInstance {
 public:
  /// CHECK-fails if the vocabularies differ.
  CspInstance(const Structure& a, const Structure& b);

  const Structure& a() const { return *a_; }
  const Structure& b() const { return *b_; }

  size_t var_count() const { return a_->universe_size(); }
  size_t domain_size() const { return b_->universe_size(); }

  const std::vector<Constraint>& constraints() const { return constraints_; }

  /// Constraint indices whose scope mentions `var`.
  const std::vector<uint32_t>& constraints_of(Element var) const {
    return constraints_of_var_[var];
  }

  /// Total residue slots over all constraints (see Constraint::
  /// residue_offset); sizes the propagator's residue array.
  size_t residue_slot_count() const { return residue_slots_; }

  /// Domains with every value allowed.
  std::vector<DynamicBitset> FullDomains() const;

  /// Static least-constraining-value scores, laid out as
  /// scores[var * domain_size + value] = total number of B-tuples
  /// supporting var = value, summed over the constraints on var and read
  /// straight off the shared CSR position index. A higher score means the
  /// value leaves more live tuples in every scope, i.e. constrains the
  /// neighbors less. Built lazily on first use, then cached. NOT thread-safe
  /// on the first call — warm it up before sharing the instance across
  /// threads (the parallel search driver does; see the header comment).
  std::span<const uint64_t> ValueSupportScores() const;

  /// Per-variable value permutation in least-constraining order (highest
  /// ValueSupportScores first, lex tie-break — deterministic), laid out
  /// flat as perm[var * domain_size + i]. The order is static, so it lives
  /// here rather than in per-search (and, in parallel mode, per-worker)
  /// state: one sort per instance, shared by every worker. Same lazy-build
  /// thread-safety caveat as ValueSupportScores.
  std::span<const Element> LcvValuePermutation() const;

 private:
  const Structure* a_;
  const Structure* b_;
  std::vector<Constraint> constraints_;
  std::vector<std::vector<uint32_t>> constraints_of_var_;
  size_t residue_slots_ = 0;
  mutable std::vector<uint64_t> value_support_scores_;
  mutable bool value_support_scores_built_ = false;
  mutable std::vector<Element> lcv_perm_;
  mutable bool lcv_perm_built_ = false;
};

/// Establishes generalized arc consistency on `domains` by revising to a
/// fixpoint (AC-3 style queue). Returns false iff a domain wiped out, in
/// which case no homomorphism extends the given domains.
///
/// A one-shot convenience: it constructs a throwaway Propagator, whose setup
/// is proportional to the whole instance. Loops should hold a Propagator
/// (solver/propagator.h) directly, as the search does.
bool EstablishGac(const CspInstance& csp, std::vector<DynamicBitset>& domains);

}  // namespace cqcs

#endif  // CQCS_SOLVER_CSP_H_
