#include "treewidth/hom_dp.h"

#include <algorithm>

#include "common/check.h"
#include "common/governor.h"
#include "common/work_pool.h"
#include "rel/hash_index.h"
#include "rel/table.h"

namespace cqcs {

namespace {

using rel::HashIndex;
using rel::Table;

/// Identity column list [0, width).
std::vector<uint32_t> AllCols(uint32_t width) {
  std::vector<uint32_t> cols(width);
  for (uint32_t c = 0; c < width; ++c) cols[c] = c;
  return cols;
}

/// One filter on a bag's assignments: a covered tuple's membership in B, a
/// child's key probe, or the bag's own parent-key dedup. It reads the bag
/// positions [begin, end) of the bag's position list.
struct BagCheck {
  enum Kind : uint8_t { kTuple, kChild, kKey } kind;
  uint32_t id;  ///< the relation (kTuple) or the child node (kChild)
  uint32_t begin, end;
};

}  // namespace

Result<std::optional<Homomorphism>> SolveViaTreeDecomposition(
    const Structure& a, const Structure& b,
    const TreeDecomposition& decomposition, TreewidthSolveStats* stats,
    ResourceGovernor* governor, unsigned num_threads,
    std::vector<std::vector<Element>>* node_tables) {
  if (!a.vocabulary()->Equals(*b.vocabulary())) {
    return Status::InvalidArgument("vocabulary mismatch");
  }
  if (governor != nullptr) CQCS_RETURN_IF_ERROR(governor->Poll());
  // Validation also assigns every tuple of A to a node whose bag covers it
  // (linear: it probes the rarest element's node list).
  TreeDecomposition::TupleAssignment tuples_of_node;
  CQCS_RETURN_IF_ERROR(decomposition.ValidateFor(a, &tuples_of_node));
  const unsigned workers = ResolveThreadCount(num_threads);
  if (stats != nullptr) {
    stats->width = decomposition.Width();
    stats->table_entries = 0;
    stats->table_rows = 0;
    stats->workers = workers;
    stats->morsels = 0;
    stats->steals = 0;
  }
  if (node_tables != nullptr) node_tables->clear();
  if (a.universe_size() == 0) {
    return std::optional<Homomorphism>(Homomorphism{});
  }

  const size_t num_nodes = decomposition.node_count();
  const size_t m = b.universe_size();
  const Vocabulary& vocab = *a.vocabulary();

  // Hash membership indexes on B's relations (only the ones A uses):
  // the DP's inner check becomes an O(1) probe on the flattened tuple
  // data instead of a binary search.
  std::vector<HashIndex> b_member(vocab.size());
  for (RelId rel = 0; rel < vocab.size(); ++rel) {
    if (a.relation(rel).tuple_count() == 0) continue;
    if (governor != nullptr) CQCS_RETURN_IF_ERROR(governor->Poll());
    const Relation& br = b.relation(rel);
    b_member[rel].AttachGovernor(governor);
    b_member[rel].Build(br.data().data(), br.arity(),
                        static_cast<uint32_t>(br.tuple_count()),
                        AllCols(br.arity()));
  }

  // Intersection of each node's bag with its parent's bag, as positions
  // within the node's bag (the node's key columns) and, in the same order,
  // within the parent's bag (where the parent reads the key); empty for
  // roots.
  std::vector<std::vector<uint32_t>> parent_shared_positions(num_nodes);
  std::vector<std::vector<uint32_t>> shared_in_parent(num_nodes);
  // cqcs-lint: allow(unpolled-loop): bounded by nodes * width * log(width) — decomposition shape, not data
  for (uint32_t node = 0; node < num_nodes; ++node) {
    uint32_t p = decomposition.parent(node);
    if (p == TreeDecomposition::kNoParent) continue;
    const auto& bag = decomposition.bag(node);
    const auto& pbag = decomposition.bag(p);
    for (size_t i = 0; i < bag.size(); ++i) {
      auto it = std::lower_bound(pbag.begin(), pbag.end(), bag[i]);
      if (it != pbag.end() && *it == bag[i]) {
        parent_shared_positions[node].push_back(static_cast<uint32_t>(i));
        shared_in_parent[node].push_back(
            static_cast<uint32_t>(it - pbag.begin()));
      }
    }
  }

  // Bottom-up DP over columnar tables: node i's table holds one full bag
  // assignment per distinct projection onto the parent intersection (the
  // first witness found), indexed by that projection for O(1) child
  // probes. Children have larger indices than parents; the sweep is
  // *level-scheduled* — nodes grouped by depth, deepest level first — so
  // every child's table is complete before its parent runs, and the nodes
  // within one level, which share no data, fan out as one-bag morsels on
  // the shared MorselPool. Emptiness is checked after each level in node
  // order, and per-node entry counts merge in node order, so the answer
  // and stats match the sequential sweep at every thread count.
  //
  // A bag's assignments are walked depth-first in the odometer's order
  // (position k-1 outermost, position 0 innermost), each filter running at
  // the depth that fixes its last position: a failed filter skips its
  // whole subtree. Once a row is kept, every later assignment below the
  // key's depth repeats its key, so the walk resumes there (a root's
  // single row ends the bag). The kept rows are the ones the full
  // odometer would keep, in the same order.
  std::vector<uint32_t> depth(num_nodes, 0);
  uint32_t max_depth = 0;
  // cqcs-lint: allow(unpolled-loop): one pass over decomposition shape, not data
  for (uint32_t node = 0; node < num_nodes; ++node) {
    uint32_t p = decomposition.parent(node);
    if (p == TreeDecomposition::kNoParent) continue;
    depth[node] = depth[p] + 1;  // parents have smaller indices
    max_depth = std::max(max_depth, depth[node]);
  }
  std::vector<std::vector<uint32_t>> levels(max_depth + 1);
  for (uint32_t node = 0; node < num_nodes; ++node) {
    levels[depth[node]].push_back(node);
  }

  std::vector<Table> tables(num_nodes);
  std::vector<HashIndex> tab_index(num_nodes);
  std::vector<uint64_t> node_entries(num_nodes, 0);
  MorselCounters mc;
  auto flush_counters = [&] {
    if (stats != nullptr) {
      stats->morsels = mc.morsels;
      stats->steals = mc.steals;
    }
    if (node_tables != nullptr) {
      node_tables->assign(num_nodes, {});
      for (uint32_t node = 0; node < num_nodes; ++node) {
        const Table& t = tables[node];
        (*node_tables)[node].assign(t.data(),
                                    t.data() + t.row_count() * t.width());
      }
    }
  };
  for (size_t d = levels.size(); d-- > 0;) {
    const std::vector<uint32_t>& level = levels[d];
    auto body = [&](unsigned, size_t begin, size_t end) {
      // Per-worker scratch: the walk state, probe keys and filters are
      // private to the bag being processed.
      std::vector<Element> assign, probe;
      std::vector<uint32_t> positions;
      // The filters by the walk depth that decides them. The walk fixes bag
      // position k-1 first and position 0 last, so a filter is decided at
      // the smallest position it reads; depth k holds those that read none.
      std::vector<std::vector<BagCheck>> at_depth;
      uint64_t tick = 0;  // governor poll stride over visited assignments
      for (size_t li = begin; li < end; ++li) {
        const uint32_t node = level[li];
        const auto& bag = decomposition.bag(node);
        const auto k = static_cast<uint32_t>(bag.size());
        tables[node] = Table(k);
        Table& table = tables[node];
        table.AttachGovernor(governor);
        // Keyed on the parent-shared positions: one row per distinct key.
        tab_index[node].AttachGovernor(governor);
        tab_index[node].Reset(k, parent_shared_positions[node]);

        // The filters, with their bag positions resolved once per bag.
        positions.clear();
        if (at_depth.size() <= k) at_depth.resize(k + 1);
        for (uint32_t at = 0; at <= k; ++at) at_depth[at].clear();
        auto add = [&](BagCheck::Kind kind, uint32_t id, uint32_t first) {
          const auto last = static_cast<uint32_t>(positions.size());
          uint32_t at = k;
          for (uint32_t i = first; i < last; ++i) {
            at = std::min(at, positions[i]);
          }
          at_depth[at].push_back({kind, id, first, last});
          return at;
        };
        for (auto [rel, t] : tuples_of_node[node]) {
          const auto first = static_cast<uint32_t>(positions.size());
          for (Element e : a.relation(rel).tuple(t)) {
            positions.push_back(static_cast<uint32_t>(
                std::lower_bound(bag.begin(), bag.end(), e) - bag.begin()));
          }
          add(BagCheck::kTuple, rel, first);
        }
        for (uint32_t child : decomposition.children(node)) {
          const auto first = static_cast<uint32_t>(positions.size());
          positions.insert(positions.end(), shared_in_parent[child].begin(),
                           shared_in_parent[child].end());
          add(BagCheck::kChild, child, first);
        }
        const auto key_first = static_cast<uint32_t>(positions.size());
        positions.insert(positions.end(), parent_shared_positions[node].begin(),
                         parent_shared_positions[node].end());
        const uint32_t key_depth = add(BagCheck::kKey, 0, key_first);

        auto passes = [&](uint32_t at) {
          for (const BagCheck& check : at_depth[at]) {
            probe.clear();
            for (uint32_t i = check.begin; i < check.end; ++i) {
              probe.push_back(assign[positions[i]]);
            }
            bool ok = false;
            switch (check.kind) {
              case BagCheck::kTuple:
                // (a) a covered tuple is mapped into B;
                ok = b_member[check.id].FindFirst(
                         b.relation(check.id).data().data(), probe) !=
                     HashIndex::kNone;
                break;
              case BagCheck::kChild:
                // (b) the child has a subtree assignment agreeing on the
                // shared elements;
                ok = tab_index[check.id].FindFirst(tables[check.id].data(),
                                                   probe) != HashIndex::kNone;
                break;
              case BagCheck::kKey:
                // (c) the first witness per parent-intersection key is kept.
                ok = tab_index[node].FindFirst(table.data(), probe) ==
                     HashIndex::kNone;
                break;
            }
            if (!ok) return false;
          }
          return true;
        };

        // Validated bags are nonempty, so the walk has at least one depth.
        if (k == 0 || m == 0 || !passes(k)) continue;
        assign.assign(k, 0);
        uint32_t at = k - 1;  // assign[at, k) is fixed
        for (;;) {
          if (governor != nullptr && (++tick & 1023) == 0 &&
              !governor->Poll().ok()) {
            return false;  // tripped: abandon the level
          }
          ++node_entries[node];
          if (passes(at)) {
            if (at > 0) {
              assign[--at] = 0;
              continue;
            }
            table.AppendRow(assign);
            tab_index[node].Add(table.data(),
                                static_cast<uint32_t>(table.row_count() - 1));
            if (key_depth == k) break;  // an empty key keeps one row
            at = key_depth;
          }
          // Next value at depth `at`, carrying outward.
          while (++assign[at] == static_cast<Element>(m)) {
            if (++at == k) break;
          }
          if (at == k) break;
        }
      }
      return true;
    };
    mc.MergeFrom(MorselPool::Shared().Run(level.size(), workers, 1, body));
    if (governor != nullptr && governor->tripped()) {
      flush_counters();
      CQCS_RETURN_IF_ERROR(governor->TripStatus());
    }
    for (uint32_t node : level) {
      if (stats != nullptr) {
        stats->table_entries += node_entries[node];
        stats->table_rows += tables[node].row_count();
      }
      if (tables[node].empty()) {
        flush_counters();
        return std::optional<Homomorphism>(std::nullopt);
      }
    }
  }
  flush_counters();

  // Top-down witness extraction.
  Homomorphism h(a.universe_size(), kUnassigned);
  std::vector<Element> proj;
  std::vector<uint32_t> stack;
  std::vector<uint32_t> chosen(num_nodes, 0);
  for (uint32_t node = 0; node < num_nodes; ++node) {
    if (decomposition.parent(node) != TreeDecomposition::kNoParent) continue;
    chosen[node] = 0;  // root: any table row works
    stack.push_back(node);
  }
  // cqcs-lint: allow(unpolled-loop): witness walk visits each node once after the DP (which polls) succeeded
  while (!stack.empty()) {
    uint32_t node = stack.back();
    stack.pop_back();
    const auto& bag = decomposition.bag(node);
    std::span<const Element> row = tables[node].row(chosen[node]);
    for (size_t i = 0; i < bag.size(); ++i) {
      CQCS_CHECK(h[bag[i]] == kUnassigned || h[bag[i]] == row[i]);
      h[bag[i]] = row[i];
    }
    for (uint32_t child : decomposition.children(node)) {
      proj.clear();
      for (uint32_t pos : shared_in_parent[child]) proj.push_back(row[pos]);
      uint32_t match = tab_index[child].FindFirst(tables[child].data(), proj);
      CQCS_CHECK(match != HashIndex::kNone);
      chosen[child] = match;
      stack.push_back(child);
    }
  }
  for (Element v : h) CQCS_CHECK(v != kUnassigned);
  return std::optional<Homomorphism>(std::move(h));
}

Result<std::optional<Homomorphism>> SolveBoundedTreewidth(
    const Structure& a, const Structure& b, TreewidthSolveStats* stats,
    ResourceGovernor* governor, unsigned num_threads) {
  CQCS_ASSIGN_OR_RETURN(TreeDecomposition decomposition,
                        HeuristicDecomposition(a, governor));
  return SolveViaTreeDecomposition(a, b, decomposition, stats, governor,
                                   num_threads);
}

}  // namespace cqcs
