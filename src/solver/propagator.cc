#include "solver/propagator.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace cqcs {

Propagator::Propagator(const CspInstance& csp)
    : csp_(&csp),
      wpd_(bitwords::WordCount(csp.domain_size())),
      cw_(bitwords::WordCount(csp.var_count())) {
  words_.resize(csp.var_count() * wpd_);
  conflict_base_ = words_.size();
  counts_.resize(csp.var_count());
  stamps_.assign(words_.size(), 0);
  residues_.assign(csp.residue_slot_count(), kNoResidue);
  in_queue_.assign(csp.constraints().size(), 0);
  queue_.reserve(csp.constraints().size());
  decision_bits_.assign(cw_, 0);
  weights_.assign(csp.var_count(), 0);
  size_t widest = 0;
  for (const Constraint& c : csp.constraints()) {
    widest = std::max(widest, c.vars.size());
  }
  support_scratch_.assign(widest * wpd_, 0);
  ResetToFull();
}

void Propagator::EnableConflictTracking() {
  if (track_conflicts_) return;
  CQCS_CHECK_MSG(level_marks_.empty(),
                 "EnableConflictTracking requires the root state");
  track_conflicts_ = true;
  words_.resize(conflict_base_ + csp_->var_count() * cw_, 0);
  stamps_.resize(words_.size(), 0);
}

void Propagator::DecayWeights() {
  for (uint64_t& w : weights_) w >>= 1;
}

void Propagator::ResetToFull() {
  const size_t n = csp_->domain_size();
  const uint64_t tail =
      (n % 64 == 0) ? ~0ULL : (~0ULL >> (64 - (n % 64)));
  for (Element var = 0; var < csp_->var_count(); ++var) {
    uint64_t* d = words_.data() + var * wpd_;
    for (size_t wi = 0; wi < wpd_; ++wi) d[wi] = ~0ULL;
    if (wpd_ > 0) d[wpd_ - 1] = tail;
    counts_[var] = n;
  }
  for (size_t wi = conflict_base_; wi < words_.size(); ++wi) words_[wi] = 0;
  trail_.clear();
  level_marks_.clear();
  stamps_.assign(stamps_.size(), 0);
  level_id_ = 1;
}

void Propagator::LoadDomains(const std::vector<DynamicBitset>& domains) {
  CQCS_CHECK(domains.size() == csp_->var_count());
  for (Element var = 0; var < csp_->var_count(); ++var) {
    CQCS_CHECK(domains[var].size() == csp_->domain_size());
    uint64_t* d = words_.data() + var * wpd_;
    for (size_t wi = 0; wi < wpd_; ++wi) d[wi] = domains[var].word(wi);
    counts_[var] = bitwords::Count(d, wpd_);
  }
  for (size_t wi = conflict_base_; wi < words_.size(); ++wi) words_[wi] = 0;
  trail_.clear();
  level_marks_.clear();
  stamps_.assign(stamps_.size(), 0);
  level_id_ = 1;
}

void Propagator::StoreDomains(std::vector<DynamicBitset>* domains) const {
  domains->assign(csp_->var_count(), DynamicBitset(csp_->domain_size()));
  for (Element var = 0; var < csp_->var_count(); ++var) {
    const uint64_t* d = words_.data() + var * wpd_;
    for (size_t wi = 0; wi < wpd_; ++wi) (*domains)[var].set_word(wi, d[wi]);
  }
}

void Propagator::PushLevel() {
  level_marks_.push_back(trail_.size());
  ++level_id_;
}

void Propagator::PopLevel() {
  CQCS_CHECK(!level_marks_.empty());
  const size_t mark = level_marks_.back();
  level_marks_.pop_back();
  while (trail_.size() > mark) {
    const TrailEntry& e = trail_.back();
    const uint64_t cur = words_[e.slot];
    words_[e.slot] = e.old_word;
    // Conflict-set words (slots past conflict_base_) have no popcount
    // counter to maintain.
    if (e.slot < conflict_base_) {
      counts_[e.slot / wpd_] +=
          static_cast<size_t>(std::popcount(e.old_word)) -
          static_cast<size_t>(std::popcount(cur));
    }
    trail_.pop_back();
  }
  // New id so the next level's first write to any word re-saves it.
  ++level_id_;
}

void Propagator::SaveWord(size_t slot) {
  // Root-level changes (no open level) are permanent: nothing will undo
  // them, so recording would only grow the trail.
  if (level_marks_.empty()) return;
  if (stamps_[slot] == level_id_) return;
  stamps_[slot] = level_id_;
  trail_.push_back(TrailEntry{slot, words_[slot]});
}

void Propagator::Assign(Element var, Element value) {
  const size_t base = var * wpd_;
  const size_t vw = value >> 6;
  for (size_t wi = 0; wi < wpd_; ++wi) {
    const uint64_t target = (wi == vw) ? (1ULL << (value & 63)) : 0ULL;
    if (words_[base + wi] != target) {
      SaveWord(base + wi);
      words_[base + wi] = target;
    }
  }
  counts_[var] = 1;
}

void Propagator::ClearValue(Element var, Element v) {
  const size_t slot = var * wpd_ + (v >> 6);
  SaveWord(slot);
  words_[slot] &= ~(1ULL << (v & 63));
  --counts_[var];
}

bool Propagator::TupleAlive(const Relation& rb, uint32_t t,
                            const Constraint& c) const {
  const Element* u = rb.data().data() + static_cast<size_t>(t) * rb.arity();
  for (const auto& [p, q] : c.eq_pairs) {
    if (u[p] != u[q]) return false;
  }
  const uint32_t arity = rb.arity();
  for (uint32_t p = 0; p < arity; ++p) {
    if (!bitwords::TestBit(words_.data() + c.scope_tuple[p] * wpd_, u[p])) {
      return false;
    }
  }
  return true;
}

void Propagator::RecordPruneReason(const Constraint& c, size_t i) {
  const Element var = c.vars[i];
  const size_t base = conflict_base_ + var * cw_;
  for (size_t j = 0; j < c.vars.size(); ++j) {
    if (j == i) continue;
    const Element u = c.vars[j];
    const uint64_t* from = words_.data() + conflict_base_ + u * cw_;
    for (size_t wi = 0; wi < cw_; ++wi) {
      uint64_t add = from[wi];
      if ((u >> 6) == wi && bitwords::TestBit(decision_bits_.data(), u)) {
        add |= 1ULL << (u & 63);
      }
      if ((words_[base + wi] | add) != words_[base + wi]) {
        SaveWord(base + wi);
        words_[base + wi] |= add;
      }
    }
  }
}

bool Propagator::NoteShrink(const Constraint& c, size_t i,
                            std::vector<Element>* changed) {
  const Element var = c.vars[i];
  if (track_conflicts_) RecordPruneReason(c, i);
  if (changed != nullptr) changed->push_back(var);
  if (counts_[var] != 0) return true;
  conflict_var_ = var;
  // dom/wdeg: this constraint just failed; its scope variables get heavier
  // so the search branches on them earlier next time.
  for (Element u : c.vars) ++weights_[u];
  return false;
}

size_t Propagator::SupportWalkSlot(const Constraint& c) const {
  const size_t k = c.vars.size();
  size_t j = 0;
  size_t total = 0;
  for (size_t i = 0; i < k; ++i) {
    total += counts_[c.vars[i]];
    if (counts_[c.vars[i]] < counts_[c.vars[j]]) j = i;
  }
  const size_t small = counts_[c.vars[j]];
  const size_t others = total - small;
  if (k * small >= others) return SIZE_MAX;
  const Relation& rb = csp_->b().relation(c.rel);
  const uint32_t pos = c.pos_of_var(j);
  size_t candidates = 0;
  ForEachValue(c.vars[j], [&](size_t a) {
    candidates += rb.TuplesWith(pos, static_cast<Element>(a)).size();
  });
  return candidates < others ? j : SIZE_MAX;
}

bool Propagator::ReviseBySupportWalk(const Constraint& c, size_t j,
                                     std::vector<Element>* changed) {
  const Relation& rb = csp_->b().relation(c.rel);
  const size_t domain_size = csp_->domain_size();
  const size_t k = c.vars.size();
  uint64_t* support = support_scratch_.data();
  std::fill(support, support + k * wpd_, 0);
  uint32_t* residues = residues_.data() + c.residue_offset;
  const uint32_t pos_j = c.pos_of_var(j);
  ForEachValue(c.vars[j], [&](size_t a) {
    for (uint32_t t : rb.TuplesWith(pos_j, static_cast<Element>(a))) {
      if (!TupleAlive(rb, t, c)) continue;
      const Element* u =
          rb.data().data() + static_cast<size_t>(t) * rb.arity();
      for (size_t i = 0; i < k; ++i) {
        const Element v = u[c.pos_of_var(i)];
        bitwords::SetBit(support + i * wpd_, v);
        residues[i * domain_size + v] = t;
      }
    }
  });
  for (size_t i = 0; i < k; ++i) {
    const Element var = c.vars[i];
    const size_t base = var * wpd_;
    const uint64_t* keep = support + i * wpd_;
    size_t removed = 0;
    for (size_t wi = 0; wi < wpd_; ++wi) {
      const uint64_t old = words_[base + wi];
      const uint64_t kept = old & keep[wi];
      if (kept == old) continue;
      SaveWord(base + wi);
      words_[base + wi] = kept;
      removed += static_cast<size_t>(std::popcount(old ^ kept));
    }
    if (removed == 0) continue;
    counts_[var] -= removed;
    if (!NoteShrink(c, i, changed)) return false;
  }
  return true;
}

bool Propagator::Revise(uint32_t ci, std::vector<Element>* changed) {
  const Constraint& c = csp_->constraints()[ci];
  ++revisions_;
  if (c.may_walk) {
    const size_t walk_from = SupportWalkSlot(c);
    if (walk_from != SIZE_MAX) {
      ++support_walks_;
      return ReviseBySupportWalk(c, walk_from, changed);
    }
  }
  const Relation& rb = csp_->b().relation(c.rel);
  const size_t domain_size = csp_->domain_size();
  for (size_t i = 0; i < c.vars.size(); ++i) {
    const Element var = c.vars[i];
    const uint32_t pos = c.pos_of_var(i);
    uint32_t* residue = residues_.data() + c.residue_offset + i * domain_size;
    bool shrank = false;
    ForEachValue(var, [&](size_t value) {
      const Element v = static_cast<Element>(value);
      const uint32_t r = residue[v];
      if (r != kNoResidue && TupleAlive(rb, r, c)) return;
      for (uint32_t t : rb.TuplesWith(pos, v)) {
        if (TupleAlive(rb, t, c)) {
          residue[v] = t;
          return;
        }
      }
      ClearValue(var, v);
      shrank = true;
    });
    if (shrank && !NoteShrink(c, i, changed)) return false;
  }
  return true;
}

void Propagator::EnqueueConstraintsOf(Element var, uint32_t except) {
  for (uint32_t cj : csp_->constraints_of(var)) {
    if (cj != except && !in_queue_[cj]) {
      in_queue_[cj] = 1;
      queue_.push_back(cj);
    }
  }
}

bool Propagator::RunQueue() {
  while (head_ < queue_.size()) {
    // Cancelled workers bail out of the fixpoint; the caller's node loop
    // sees the flag next and unwinds, discarding this spurious failure.
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      for (size_t k = head_; k < queue_.size(); ++k) in_queue_[queue_[k]] = 0;
      queue_.clear();
      head_ = 0;
      return false;
    }
    const uint32_t ci = queue_[head_++];
    in_queue_[ci] = 0;
    changed_scratch_.clear();
    if (!Revise(ci, &changed_scratch_)) {
      for (size_t k = head_; k < queue_.size(); ++k) in_queue_[queue_[k]] = 0;
      queue_.clear();
      head_ = 0;
      return false;
    }
    for (Element var : changed_scratch_) EnqueueConstraintsOf(var, ci);
  }
  queue_.clear();
  head_ = 0;
  return true;
}

bool Propagator::Propagate(Element seed_var, bool cascade) {
  if (!cascade) {
    for (uint32_t ci : csp_->constraints_of(seed_var)) {
      if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
        return false;
      }
      if (!Revise(ci, nullptr)) return false;
    }
    return true;
  }
  for (uint32_t ci : csp_->constraints_of(seed_var)) {
    if (!in_queue_[ci]) {
      in_queue_[ci] = 1;
      queue_.push_back(ci);
    }
  }
  return RunQueue();
}

bool Propagator::EstablishGac() {
  for (uint32_t ci = 0; ci < csp_->constraints().size(); ++ci) {
    if (!in_queue_[ci]) {
      in_queue_[ci] = 1;
      queue_.push_back(ci);
    }
  }
  return RunQueue();
}

}  // namespace cqcs
