// Trail-based propagation engine for the backtracking solver.
//
// The propagator owns all search-time mutable state so that one instance is
// reused across the entire search with zero per-node allocation:
//
//  * Domains live in one flat uint64_t array (var_count x words-per-domain)
//    with an incrementally maintained popcount per variable. MRV reads a
//    counter instead of popcounting a bitset.
//  * Mutations are undone through a trail: before the first write to a word
//    within a level, the old word is recorded; PopLevel rewinds the trail.
//    Backtracking costs O(words actually changed), not O(total domain bits)
//    as the previous save-everything snapshot did.
//  * Revision has two strategies, chosen per call; both compute the same
//    domains. A one-constraint GAC revise has a unique result (the values
//    that still have a live B-tuple), and removing a value that has no live
//    tuple kills no live tuple, so neither the slot order nor the strategy
//    can change it.
//    - Residues (AC-2001/3rm style): for each (constraint, var slot, value)
//      a residue caches the last B-tuple found to support the value. Each
//      value first rechecks its residue; only on failure does it walk the
//      relation's (position, value) tuple list — never the whole relation.
//      Residues are hints, so they survive backtracking unmanaged.
//    - Support walk: when one slot j's domain is small, walk its values'
//      candidate tuples once, OR each live tuple's values into one scratch
//      bitset per slot (refreshing that (slot, value) residue), then AND
//      every domain with its bitset word by word. It runs when
//      k * |dom_j| < S and W < S, with k the scope width, S the other
//      slots' summed domain sizes and W the candidate tuple count; the
//      first test is O(k) and guards computing W. Constraints over a dense
//      relation (Constraint::may_walk false) skip the rule. Cost model:
//      the walk pays one TupleAlive per candidate, W in all; the residue
//      path pays at least one per value of the other slots, S in all, and
//      on a sparse target right after an assignment nearly every residue
//      of a neighbour is dead, so each dying value also rescans its whole
//      tuple list and pays a ClearValue. W < S is therefore the break-even
//      point.
//  * Optional conflict tracking (EnableConflictTracking) maintains, per
//    variable, the set of decision variables responsible for its domain
//    prunings. Conflict sets live in the same flat word array as the
//    domains, so the one trail rewinds both in lockstep; the search reads
//    them to implement conflict-directed backjumping.
//  * Per-variable failure weights (dom/wdeg): every constraint wipeout
//    bumps the weight of each variable in the failing constraint's scope.
//    Weights are heuristic state — never trailed, halved on restart.
//
// Threading contract: a Propagator is single-threaded state. The parallel
// search (solver/parallel.cc) gives every worker its own instance; what they
// share is only the immutable CspInstance (see the thread-safety note in
// solver/csp.h). The one concession to parallelism here is an optional
// cancellation flag (set_cancel_flag): a long MAC fixpoint polls it once per
// queue iteration so a cancelled worker aborts mid-propagation instead of
// finishing a doomed revision cascade.
//
// See docs/solver.md for the full architecture.

#ifndef CQCS_SOLVER_PROPAGATOR_H_
#define CQCS_SOLVER_PROPAGATOR_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "solver/csp.h"

namespace cqcs {

class Propagator {
 public:
  explicit Propagator(const CspInstance& csp);

  const CspInstance& csp() const { return *csp_; }

  /// Resets every domain to full and discards the trail (root state).
  void ResetToFull();

  /// Overwrites the domains from `domains` (size var_count, each of size
  /// domain_size) and discards the trail. For the free-function wrappers.
  void LoadDomains(const std::vector<DynamicBitset>& domains);

  /// Copies the current domains out (resizing `*domains` as needed).
  void StoreDomains(std::vector<DynamicBitset>* domains) const;

  // -- Domain queries ------------------------------------------------------

  size_t domain_count(Element var) const { return counts_[var]; }

  bool domain_test(Element var, Element v) const {
    return bitwords::TestBit(words_.data() + var * wpd_, v);
  }

  /// Lowest value in the domain, or DynamicBitset::npos if empty.
  size_t domain_first(Element var) const {
    return bitwords::FindFirst(words_.data() + var * wpd_, wpd_);
  }

  /// Calls fn(value) for every domain value of `var` in increasing order.
  template <typename Fn>
  void ForEachValue(Element var, Fn fn) const {
    bitwords::ForEachSetBit(words_.data() + var * wpd_, wpd_, fn);
  }

  // -- Search interface ----------------------------------------------------

  /// Opens an undo scope. Every domain change until the matching PopLevel
  /// is recorded and undone by it. Levels nest.
  void PushLevel();

  /// Rewinds all domain changes since the matching PushLevel.
  void PopLevel();

  /// Restricts var's domain to {value} (value must be in the domain).
  void Assign(Element var, Element value);

  /// Re-establishes consistency after `seed_var` changed: MAC to fixpoint
  /// when `cascade`, else one revise per constraint of seed_var (forward
  /// checking). Returns false iff a domain wiped out.
  bool Propagate(Element seed_var, bool cascade);

  /// Revises every constraint to a fixpoint (root GAC).
  bool EstablishGac();

  /// Revises one constraint; appends shrunk variables to `*changed` (if
  /// non-null). Returns false iff a domain wiped out.
  bool Revise(uint32_t ci, std::vector<Element>* changed);

  /// Calls fn(tuple) for every live B-tuple of constraint `ci` (see
  /// TupleAlive), each once: it walks the candidate lists of the scope slot
  /// with the smallest domain. `tuple` points at the relation's storage.
  template <typename Fn>
  void ForEachLiveTuple(uint32_t ci, Fn fn) const {
    const Constraint& c = csp_->constraints()[ci];
    const Relation& rb = csp_->b().relation(c.rel);
    size_t j = 0;
    for (size_t i = 1; i < c.vars.size(); ++i) {
      if (counts_[c.vars[i]] < counts_[c.vars[j]]) j = i;
    }
    const uint32_t pos = c.pos_of_var(j);
    ForEachValue(c.vars[j], [&](size_t a) {
      for (uint32_t t : rb.TuplesWith(pos, static_cast<Element>(a))) {
        if (TupleAlive(rb, t, c)) {
          fn(rb.data().data() + static_cast<size_t>(t) * rb.arity());
        }
      }
    });
  }

  /// Revise calls so far, and how many of them took the support walk (see
  /// the header comment). Never reset; the search copies them out.
  uint64_t revisions() const { return revisions_; }
  uint64_t support_walks() const { return support_walks_; }

  // -- Conflict tracking (for conflict-directed backjumping) ---------------

  /// Turns on conflict-set maintenance. Must be called at the root (no open
  /// levels); allocates var_count x WordCount(var_count) extra trailed words.
  /// Idempotent.
  void EnableConflictTracking();

  bool conflict_tracking() const { return track_conflicts_; }

  /// Words per conflict set (= WordCount(var_count)).
  size_t conflict_words() const { return cw_; }

  /// The conflict set of `var`: a bitset over variables, containing every
  /// decision variable responsible (transitively, through propagation) for
  /// some current pruning of var's domain. Always an over-approximation of
  /// "nothing": removing any superset of the listed decisions may restore
  /// values, removing none of them cannot. Valid only with tracking on.
  const uint64_t* conflict_set(Element var) const {
    return words_.data() + conflict_base_ + var * cw_;
  }

  /// Bitset over variables currently assigned by a search decision.
  /// Maintained by Mark/UnmarkDecision, not by the trail: the search calls
  /// them symmetrically around each level.
  const uint64_t* decision_bits() const { return decision_bits_.data(); }

  void MarkDecision(Element var) {
    bitwords::SetBit(decision_bits_.data(), var);
  }
  void UnmarkDecision(Element var) {
    bitwords::ResetBit(decision_bits_.data(), var);
  }

  /// The variable whose domain wiped out in the last failed Revise.
  Element conflict_var() const { return conflict_var_; }

  // -- Failure weights (dom/wdeg variable ordering) ------------------------

  /// Number of constraint wipeouts involving `var`'s scope so far
  /// (dom/wdeg numerator state). Bumped on every failed Revise.
  uint64_t failure_weight(Element var) const { return weights_[var]; }

  /// Halves every failure weight — called on restart so stale conflicts
  /// fade while recent ones keep steering the variable order.
  void DecayWeights();

  // -- Cancellation (parallel search) --------------------------------------

  /// Installs a shared stop flag (or nullptr to detach). While the flag
  /// reads true, revision loops fail fast: Propagate / EstablishGac return
  /// false without finishing the fixpoint. The spurious "wipeout" is safe —
  /// the search observes the flag at its next node and unwinds everything —
  /// but it means results after cancellation must be discarded, which is
  /// exactly what the parallel driver does.
  void set_cancel_flag(const std::atomic<bool>* cancel) { cancel_ = cancel; }

 private:
  /// True iff B-tuple `t` of c's relation matches c's equality pattern and
  /// every position's value is still in the corresponding domain.
  bool TupleAlive(const Relation& rb, uint32_t t, const Constraint& c) const;

  /// Records word `slot`'s value on the trail unless already recorded in
  /// the current level.
  void SaveWord(size_t slot);

  /// Removes `v` from var's domain through the trail.
  void ClearValue(Element var, Element v);

  /// ORs into vars[i]'s conflict set the explanation for prunings of its
  /// domain by constraint c: the union, over every other scope variable u,
  /// of u's decision bit (if assigned) and u's own conflict set.
  void RecordPruneReason(const Constraint& c, size_t i);

  /// Bookkeeping after slot i of c lost values: the prune reason, the
  /// changed list and, on a wipeout, conflict_var_ and the dom/wdeg weights.
  /// Returns false iff the slot's domain is now empty.
  bool NoteShrink(const Constraint& c, size_t i, std::vector<Element>* changed);

  /// The support-walk rule: returns the smallest slot of c if walking its
  /// candidate tuples is cheaper than checking the other slots' values,
  /// else SIZE_MAX. Revise asks only when c.may_walk.
  size_t SupportWalkSlot(const Constraint& c) const;

  /// The support-walk revise of c, starting from slot j.
  bool ReviseBySupportWalk(const Constraint& c, size_t j,
                           std::vector<Element>* changed);

  /// Drains the revision queue to a fixpoint. Clears in-queue flags on both
  /// exits. Returns false iff a domain wiped out.
  bool RunQueue();

  void EnqueueConstraintsOf(Element var, uint32_t except);

  struct TrailEntry {
    size_t slot;
    uint64_t old_word;
  };

  const CspInstance* csp_;
  size_t wpd_;  // words per domain
  size_t cw_;   // words per conflict set (WordCount(var_count))

  /// Flat domains (var_count * wpd_ words), followed — once conflict
  /// tracking is enabled — by the conflict sets (var_count * cw_ words
  /// starting at conflict_base_). One array so SaveWord/PopLevel rewind
  /// both through the same trail.
  std::vector<uint64_t> words_;
  size_t conflict_base_ = 0;      // == var_count * wpd_ once tracking is on
  bool track_conflicts_ = false;
  std::vector<size_t> counts_;    // popcount per domain, kept in sync

  std::vector<uint64_t> decision_bits_;  // cw_ words; see decision_bits()
  std::vector<uint64_t> weights_;        // per-var failure weight (dom/wdeg)
  Element conflict_var_ = 0;             // last wipeout variable
  const std::atomic<bool>* cancel_ = nullptr;  // see set_cancel_flag

  std::vector<TrailEntry> trail_;
  std::vector<size_t> level_marks_;
  std::vector<uint64_t> stamps_;  // per word slot: level id of last save
  uint64_t level_id_ = 1;         // bumped on every Push/Pop; 0 = never

  /// Last-support residues, indexed by Constraint::residue_offset +
  /// slot * domain_size + value. kNoResidue when unknown.
  static constexpr uint32_t kNoResidue = UINT32_MAX;
  std::vector<uint32_t> residues_;

  // Reusable revision queue (FIFO over queue_[head_..]) and scratch.
  std::vector<uint32_t> queue_;
  size_t head_ = 0;
  std::vector<uint8_t> in_queue_;
  std::vector<Element> changed_scratch_;
  /// Support-walk bitsets: one wpd_-word set per slot of the widest scope.
  std::vector<uint64_t> support_scratch_;

  uint64_t revisions_ = 0;
  uint64_t support_walks_ = 0;
};

}  // namespace cqcs

#endif  // CQCS_SOLVER_PROPAGATOR_H_
