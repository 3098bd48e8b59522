#include "pebble/game.h"

#include <algorithm>

#include "common/check.h"
#include "common/governor.h"

namespace cqcs {

namespace {

/// Bytes one position costs: the vector in maps_ and its key copy in
/// index_ (each with its pairs), the hash node and bucket, and alive_.
size_t PositionBytes(size_t size) {
  return 2 * (sizeof(PebblePosition) +
              size * sizeof(std::pair<Element, Element>)) +
         4 * sizeof(void*) + 1;
}

/// Tuples of A lying entirely inside the element set `dom` (sorted).
std::vector<std::pair<RelId, uint32_t>> TuplesInside(
    const Structure& a, const std::vector<Element>& dom) {
  std::vector<std::pair<RelId, uint32_t>> out;
  const Vocabulary& vocab = *a.vocabulary();
  // cqcs-lint: allow(unpolled-loop): one pass over A's tuples per domain; the caller polls per domain
  for (RelId id = 0; id < vocab.size(); ++id) {
    const Relation& r = a.relation(id);
    for (uint32_t t = 0; t < r.tuple_count(); ++t) {
      bool inside = true;
      for (Element e : r.tuple(t)) {
        if (!std::binary_search(dom.begin(), dom.end(), e)) {
          inside = false;
          break;
        }
      }
      if (inside) out.emplace_back(id, t);
    }
  }
  return out;
}

}  // namespace

Result<ExistentialPebbleGame> ExistentialPebbleGame::Create(
    const Structure& a, const Structure& b, uint32_t k,
    ResourceGovernor* governor) {
  if (k < 1) {
    return Status::InvalidArgument("the pebble game needs at least one pebble");
  }
  if (!a.vocabulary()->Equals(*b.vocabulary())) {
    return Status::InvalidArgument("pebble game requires a common vocabulary");
  }
  ExistentialPebbleGame game(k, governor);
  CQCS_RETURN_IF_ERROR(game.Build(a, b));
  return game;
}

ExistentialPebbleGame::Charge::~Charge() {
  if (governor != nullptr && bytes > 0) governor->ReleaseBytes(bytes);
}

Status ExistentialPebbleGame::Build(const Structure& a, const Structure& b) {
  const size_t n = a.universe_size();
  const size_t m = b.universe_size();
  const uint32_t max_size = static_cast<uint32_t>(
      std::min<size_t>(k_, n));

  // Governed runs poll every kStride-th step: a domain, an assignment, or
  // a position of the fixpoint (each O(n·m) hash probes at most). The
  // first step polls, so a governor that already tripped stops the game
  // before any work. `stop` unwinds the recursive enumeration.
  ResourceGovernor* const governor = charge_.governor;
  constexpr uint64_t kStride = 256;
  uint64_t tick = 0;
  bool stop = false;
  auto poll = [&] {
    if (governor != nullptr && tick++ % kStride == 0 &&
        !governor->Poll().ok()) {
      stop = true;
    }
    return !stop;
  };

  // --- Enumerate all partial homomorphisms of size <= k. ---
  // For each domain (combination of A-elements) collect the A-tuples fully
  // inside it, then keep the assignments whose images are B-tuples.
  std::vector<Element> dom;
  std::vector<Element> assign;
  std::vector<Element> image;

  auto check_and_insert =
      [&](const std::vector<std::pair<RelId, uint32_t>>& tuples) {
        // Check every covered tuple maps into B.
        // cqcs-lint: allow(unpolled-loop): covered tuples x arity for one assignment; the caller polls per assignment
        for (auto [rel, t] : tuples) {
          std::span<const Element> tup = a.relation(rel).tuple(t);
          image.resize(tup.size());
          for (size_t p = 0; p < tup.size(); ++p) {
            size_t pos = static_cast<size_t>(
                std::lower_bound(dom.begin(), dom.end(), tup[p]) -
                dom.begin());
            image[p] = assign[pos];
          }
          if (!b.relation(rel).Contains(image)) return;
        }
        PebblePosition pos;
        pos.reserve(dom.size());
        for (size_t i = 0; i < dom.size(); ++i) {
          pos.emplace_back(dom[i], assign[i]);
        }
        if (governor != nullptr) {
          const size_t bytes = PositionBytes(pos.size());
          governor->ChargeBytes(bytes);
          charge_.bytes += bytes;
        }
        uint32_t id = static_cast<uint32_t>(maps_.size());
        index_.emplace(pos, id);
        maps_.push_back(std::move(pos));
      };

  auto emit_assignments = [&](const std::vector<std::pair<RelId, uint32_t>>&
                                  tuples) {
    assign.assign(dom.size(), 0);
    auto recurse = [&](auto&& self, size_t depth) -> void {
      if (depth == dom.size()) {
        if (poll()) check_and_insert(tuples);
        return;
      }
      for (Element bv = 0; bv < m && !stop; ++bv) {
        assign[depth] = bv;
        self(self, depth + 1);
      }
    };
    recurse(recurse, 0);
  };

  // Combinations of sizes 0..max_size.
  std::vector<Element> combo;
  auto enumerate_domains = [&](auto&& self, Element start,
                               uint32_t remaining) -> void {
    if (remaining == 0) {
      dom = combo;
      if (m == 0 && !dom.empty()) return;  // no assignments possible
      if (poll()) emit_assignments(TuplesInside(a, dom));
      return;
    }
    for (Element e = start; e + remaining <= n && !stop; ++e) {
      combo.push_back(e);
      self(self, e + 1, remaining - 1);
      combo.pop_back();
    }
  };
  for (uint32_t size = 0; size <= max_size && !stop; ++size) {
    enumerate_domains(enumerate_domains, 0, size);
  }
  if (stop) return governor->TripStatus();
  stats_.total_positions = maps_.size();
  alive_.assign(maps_.size(), 1);

  // --- Greatest-fixpoint deletion. ---
  // Forth check for position id at element `a_elem`: does some alive
  // extension by (a_elem -> b') exist?
  auto has_support = [&](uint32_t id, Element a_elem) {
    PebblePosition extended = maps_[id];
    auto it = std::lower_bound(
        extended.begin(), extended.end(),
        std::make_pair(a_elem, static_cast<Element>(0)));
    size_t slot = static_cast<size_t>(it - extended.begin());
    extended.insert(it, {a_elem, 0});
    for (Element bv = 0; bv < m; ++bv) {
      extended[slot].second = bv;
      auto found = index_.find(extended);
      if (found != index_.end() && alive_[found->second]) return true;
    }
    return false;
  };

  std::vector<uint32_t> to_delete;
  auto kill = [&](uint32_t id) {
    if (!alive_[id]) return;
    alive_[id] = 0;
    ++stats_.deleted_positions;
    to_delete.push_back(id);
  };

  // Initial sweep: forth failures.
  for (uint32_t id = 0; id < maps_.size(); ++id) {
    if (!poll()) return governor->TripStatus();
    if (maps_[id].size() >= max_size) continue;
    for (Element a_elem = 0; a_elem < n; ++a_elem) {
      bool in_dom = false;
      for (auto [ae, be] : maps_[id]) in_dom |= (ae == a_elem);
      if (in_dom) continue;
      if (!has_support(id, a_elem)) {
        kill(id);
        break;
      }
    }
  }

  // Cascade.
  while (!to_delete.empty()) {
    if (!poll()) return governor->TripStatus();
    uint32_t id = to_delete.back();
    to_delete.pop_back();
    const PebblePosition f = maps_[id];
    // (2) restriction closure upward: every alive extension of f dies.
    if (f.size() < max_size) {
      PebblePosition extended = f;
      for (Element a_elem = 0; a_elem < n; ++a_elem) {
        bool in_dom = false;
        for (auto [ae, be] : f) in_dom |= (ae == a_elem);
        if (in_dom) continue;
        auto it = std::lower_bound(
            extended.begin(), extended.end(),
            std::make_pair(a_elem, static_cast<Element>(0)));
        size_t slot = static_cast<size_t>(it - extended.begin());
        extended.insert(it, {a_elem, 0});
        for (Element bv = 0; bv < m; ++bv) {
          extended[slot].second = bv;
          auto found = index_.find(extended);
          if (found != index_.end()) kill(found->second);
        }
        extended.erase(extended.begin() + static_cast<ptrdiff_t>(slot));
      }
    }
    // (1) forth re-check downward: each restriction may have lost its only
    // support at the removed element.
    for (size_t drop = 0; drop < f.size(); ++drop) {
      PebblePosition restricted = f;
      Element a_elem = restricted[drop].first;
      restricted.erase(restricted.begin() + static_cast<ptrdiff_t>(drop));
      auto found = index_.find(restricted);
      if (found == index_.end() || !alive_[found->second]) continue;
      if (!has_support(found->second, a_elem)) kill(found->second);
    }
  }

  PebblePosition empty;
  auto found = index_.find(empty);
  CQCS_CHECK(found != index_.end());
  duplicator_wins_ = alive_[found->second] != 0;
  return Status::OK();
}

bool ExistentialPebbleGame::DuplicatorWinsFrom(
    const PebblePosition& position) const {
  PebblePosition normalized = position;
  std::sort(normalized.begin(), normalized.end());
  normalized.erase(std::unique(normalized.begin(), normalized.end()),
                   normalized.end());
  for (size_t i = 1; i < normalized.size(); ++i) {
    if (normalized[i].first == normalized[i - 1].first) return false;
  }
  CQCS_CHECK_MSG(normalized.size() <= k_, "position uses more than k pebbles");
  auto found = index_.find(normalized);
  if (found == index_.end()) return false;  // not a partial homomorphism
  return alive_[found->second] != 0;
}

Result<bool> SpoilerWinsExistentialKPebble(const Structure& a,
                                           const Structure& b, uint32_t k) {
  CQCS_ASSIGN_OR_RETURN(ExistentialPebbleGame game,
                        ExistentialPebbleGame::Create(a, b, k));
  return game.SpoilerWins();
}

}  // namespace cqcs
