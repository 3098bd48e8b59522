#include "solver/csp.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "common/hash.h"
#include "core/homomorphism.h"
#include "solver/propagator.h"

namespace cqcs {

namespace {

/// Marks duplicate tuples of `ra` (every occurrence after the first) in
/// `*dup`. Open-addressing over tuple ids — one flat probe table, no
/// per-tuple allocation. No-op for relations with < 2 tuples.
void MarkDuplicateTuples(const Relation& ra, std::vector<uint8_t>* dup) {
  const size_t m = ra.tuple_count();
  dup->assign(m, 0);
  if (m < 2) return;
  const uint32_t arity = ra.arity();
  const size_t cap = std::bit_ceil(2 * m);
  const size_t mask = cap - 1;
  std::vector<uint32_t> table(cap, UINT32_MAX);
  const Element* data = ra.data().data();
  for (uint32_t t = 0; t < m; ++t) {
    const Element* tup = data + static_cast<size_t>(t) * arity;
    size_t slot = static_cast<size_t>(Fnv1a64(tup, arity)) & mask;
    while (true) {
      const uint32_t other = table[slot];
      if (other == UINT32_MAX) {
        table[slot] = t;
        break;
      }
      const Element* otup = data + static_cast<size_t>(other) * arity;
      if (std::equal(tup, tup + arity, otup)) {
        (*dup)[t] = 1;
        break;
      }
      slot = (slot + 1) & mask;
    }
  }
}

/// The greedy cycle cutset behind CspInstance::cycle_cutset(). It peels
/// the variable/constraint incidence graph to its 2-core (a variable on at
/// most one live constraint, or a constraint with at most one live
/// variable, is a leaf and lies on no cycle), then moves one core variable
/// at a time into C and peels again, until the core is empty: the graph
/// minus C is then a forest. Constraints with one variable never close a
/// cycle and are left out from the start. nullopt once C would exceed
/// `cap`.
std::optional<std::vector<Element>> GreedyCycleCutset(
    const std::vector<Constraint>& constraints,
    const std::vector<std::vector<uint32_t>>& constraints_of_var,
    std::span<const Element> head, size_t cap) {
  const size_t n = constraints_of_var.size();
  std::vector<uint32_t> live_vars(constraints.size(), 0);
  std::vector<uint32_t> degree(n, 0);
  std::vector<uint8_t> var_gone(n, 0);
  std::vector<uint8_t> con_gone(constraints.size(), 1);
  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    const std::vector<Element>& vars = constraints[ci].vars;
    if (vars.size() < 2) continue;
    con_gone[ci] = 0;
    live_vars[ci] = static_cast<uint32_t>(vars.size());
    for (Element v : vars) ++degree[v];
  }
  std::vector<Element> var_queue;
  std::vector<uint32_t> con_queue;
  for (Element v = 0; v < n; ++v) {
    if (degree[v] <= 1) var_queue.push_back(v);
  }
  auto remove_var = [&](Element v) {
    var_gone[v] = 1;
    for (uint32_t ci : constraints_of_var[v]) {
      if (!con_gone[ci] && --live_vars[ci] <= 1) {
        con_gone[ci] = 1;
        con_queue.push_back(ci);
      }
    }
  };
  auto peel = [&] {
    while (!var_queue.empty() || !con_queue.empty()) {
      if (!var_queue.empty()) {
        const Element v = var_queue.back();
        var_queue.pop_back();
        if (!var_gone[v]) remove_var(v);
        continue;
      }
      const uint32_t ci = con_queue.back();
      con_queue.pop_back();
      for (Element v : constraints[ci].vars) {
        if (!var_gone[v] && --degree[v] == 1) var_queue.push_back(v);
      }
    }
  };
  peel();
  std::vector<Element> cutset;
  size_t next_head = 0;
  while (true) {
    Element pick = kUnassigned;
    while (next_head < head.size() && pick == kUnassigned) {
      const Element h = head[next_head++];
      if (!var_gone[h]) pick = h;
    }
    if (pick == kUnassigned) {
      // No head variable is left on a cycle: take the core variable on the
      // most core constraints (lowest id on ties).
      for (Element v = 0; v < n; ++v) {
        if (!var_gone[v] &&
            (pick == kUnassigned || degree[v] > degree[pick])) {
          pick = v;
        }
      }
    }
    if (pick == kUnassigned) return cutset;  // the core is empty
    if (cutset.size() == cap) return std::nullopt;
    cutset.push_back(pick);
    remove_var(pick);
    peel();
  }
}

}  // namespace

CspInstance::CspInstance(const Structure& a, const Structure& b,
                         std::span<const Element> head)
    : a_(&a), b_(&b) {
  CQCS_CHECK_MSG(a.vocabulary()->Equals(*b.vocabulary()),
                 "CSP instance requires a common vocabulary");
  const Vocabulary& vocab = *a.vocabulary();
  constraints_of_var_.resize(a.universe_size());
  std::vector<uint8_t> dup;
  for (RelId id = 0; id < vocab.size(); ++id) {
    const Relation& ra = a.relation(id);
    // Support index over R^B, built once and shared by every constraint on
    // this relation (see Propagator::Revise).
    const Relation& rb = b.relation(id);
    rb.EnsurePositionIndex(static_cast<Element>(b.universe_size()));
    size_t max_degree = 0;
    for (uint32_t p = 0; p < rb.arity(); ++p) {
      for (Element v = 0; v < b.universe_size(); ++v) {
        max_degree = std::max(max_degree, rb.TuplesWith(p, v).size());
      }
    }
    // Identical A-tuples yield identical constraints; revising each copy
    // would repeat the exact same work, so keep only the first.
    MarkDuplicateTuples(ra, &dup);
    const uint32_t arity = ra.arity();
    constraints_.reserve(constraints_.size() + ra.tuple_count());
    for (uint32_t t = 0; t < ra.tuple_count(); ++t) {
      if (dup[t]) continue;
      std::span<const Element> tup = ra.tuple(t);
      Constraint c;
      c.rel = id;
      c.scope_tuple.assign(tup.begin(), tup.end());
      bool all_distinct = true;
      for (uint32_t p = 1; p < arity && all_distinct; ++p) {
        for (uint32_t q = 0; q < p; ++q) {
          if (tup[q] == tup[p]) {
            all_distinct = false;
            break;
          }
        }
      }
      if (all_distinct) {
        // Common case: vars == scope positions, var_pos stays empty
        // (identity), no equality pairs.
        c.vars.assign(tup.begin(), tup.end());
      } else {
        for (uint32_t p = 0; p < arity; ++p) {
          uint32_t first = p;
          for (uint32_t q = 0; q < p; ++q) {
            if (tup[q] == tup[p]) {
              first = q;
              break;
            }
          }
          if (first == p) {
            c.vars.push_back(tup[p]);
            c.var_pos.push_back(p);
          } else {
            c.eq_pairs.emplace_back(p, first);
          }
        }
      }
      c.residue_offset = residue_slots_;
      const size_t k = c.vars.size();
      c.may_walk =
          k >= 2 && (k + 1) * max_degree < (k - 1) * b.universe_size();
      residue_slots_ += c.vars.size() * b.universe_size();
      uint32_t ci = static_cast<uint32_t>(constraints_.size());
      for (Element v : c.vars) constraints_of_var_[v].push_back(ci);
      constraints_.push_back(std::move(c));
    }
  }
  for (Element h : head) CQCS_CHECK(h < a.universe_size());
  if (b.universe_size() > 0) {
    cutset_ = GreedyCycleCutset(constraints_, constraints_of_var_, head,
                                kMaxCutset);
  }
  if (cutset_.has_value()) {
    // Leaf tables skip their dedup over a relation known duplicate-free
    // (YannakakisProgram::FromDomains); sorting it once here tells.
    for (RelId id = 0; id < vocab.size(); ++id) {
      if (a.relation(id).tuple_count() > 0) b.relation(id).EnsureIndex();
    }
  }
}

std::vector<DynamicBitset> CspInstance::FullDomains() const {
  std::vector<DynamicBitset> domains(
      var_count(), DynamicBitset(domain_size(), /*fill=*/true));
  return domains;
}

std::span<const uint64_t> CspInstance::ValueSupportScores() const {
  // Lazy, and deliberately unsynchronized: the only multi-threaded consumer
  // (solver/parallel.cc) materializes the cache on the calling thread
  // before any worker can get here, after which every access is a read.
  if (!value_support_scores_built_) {
    value_support_scores_built_ = true;
    value_support_scores_.assign(var_count() * domain_size(), 0);
    const size_t d = domain_size();
    for (const Constraint& c : constraints_) {
      const Relation& rb = b_->relation(c.rel);
      for (size_t i = 0; i < c.vars.size(); ++i) {
        uint64_t* row = value_support_scores_.data() + c.vars[i] * d;
        const uint32_t pos = c.pos_of_var(i);
        for (Element v = 0; v < d; ++v) {
          row[v] += rb.TuplesWith(pos, v).size();
        }
      }
    }
  }
  return value_support_scores_;
}

std::span<const Element> CspInstance::LcvValuePermutation() const {
  if (!lcv_perm_built_) {
    lcv_perm_built_ = true;
    const size_t d = domain_size();
    lcv_perm_.resize(var_count() * d);
    const uint64_t* scores = ValueSupportScores().data();
    for (Element var = 0; var < var_count(); ++var) {
      Element* perm = lcv_perm_.data() + var * d;
      for (size_t v = 0; v < d; ++v) perm[v] = static_cast<Element>(v);
      const uint64_t* row = scores + var * d;
      // Least-constraining first: higher static support count means more
      // live B-tuples in every scope the value touches. stable_sort keeps
      // ties in lex order, so runs are deterministic.
      std::stable_sort(perm, perm + d,
                       [row](Element x, Element y) { return row[x] > row[y]; });
    }
  }
  return lcv_perm_;
}

// The vector<DynamicBitset> entry point (tests and one-shot callers) wraps
// a throwaway Propagator; the search loop keeps one alive instead — see
// backtracking.cc.
bool EstablishGac(const CspInstance& csp,
                  std::vector<DynamicBitset>& domains) {
  Propagator prop(csp);
  prop.LoadDomains(domains);
  bool ok = prop.EstablishGac();
  prop.StoreDomains(&domains);
  return ok;
}

}  // namespace cqcs
