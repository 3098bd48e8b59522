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

}  // namespace

Result<std::optional<Homomorphism>> SolveViaTreeDecomposition(
    const Structure& a, const Structure& b,
    const TreeDecomposition& decomposition, TreewidthSolveStats* stats,
    ResourceGovernor* governor, unsigned num_threads) {
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
  std::vector<uint8_t> b_member_built(vocab.size(), 0);
  for (uint32_t node = 0; node < num_nodes; ++node) {
    for (auto [rel, t] : tuples_of_node[node]) {
      (void)t;
      if (b_member_built[rel]) continue;
      b_member_built[rel] = 1;
      if (governor != nullptr) CQCS_RETURN_IF_ERROR(governor->Poll());
      const Relation& br = b.relation(rel);
      b_member[rel].AttachGovernor(governor);
      b_member[rel].Build(br.data().data(), br.arity(),
                          static_cast<uint32_t>(br.tuple_count()),
                          AllCols(br.arity()));
    }
  }

  // Intersection of each node's bag with its parent's bag (positions
  // within the node's bag), empty for roots.
  std::vector<std::vector<uint32_t>> parent_shared_positions(num_nodes);
  // cqcs-lint: allow(unpolled-loop): bounded by nodes * width * log(width) — decomposition shape, not data
  for (uint32_t node = 0; node < num_nodes; ++node) {
    uint32_t p = decomposition.parent(node);
    if (p == TreeDecomposition::kNoParent) continue;
    const auto& bag = decomposition.bag(node);
    const auto& pbag = decomposition.bag(p);
    for (size_t i = 0; i < bag.size(); ++i) {
      if (std::binary_search(pbag.begin(), pbag.end(), bag[i])) {
        parent_shared_positions[node].push_back(static_cast<uint32_t>(i));
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
  };
  for (size_t d = levels.size(); d-- > 0;) {
    const std::vector<uint32_t>& level = levels[d];
    auto body = [&](unsigned, size_t begin, size_t end) {
      // Per-worker scratch: the odometer state and probe keys are private
      // to the bag being processed.
      std::vector<Element> assign, proj, image;
      uint64_t tick = 0;  // governor poll stride over odometer entries
      for (size_t li = begin; li < end; ++li) {
        const uint32_t node = level[li];
        const auto& bag = decomposition.bag(node);
        tables[node] = Table(static_cast<uint32_t>(bag.size()));
        Table& table = tables[node];
        table.AttachGovernor(governor);
        // Keyed on the parent-shared positions: one row per distinct key.
        tab_index[node].AttachGovernor(governor);
        tab_index[node].Reset(static_cast<uint32_t>(bag.size()),
                              parent_shared_positions[node]);

        assign.assign(bag.size(), 0);
        bool exhausted = m == 0 && !bag.empty();
        while (!exhausted) {
          if (governor != nullptr && (++tick & 1023) == 0 &&
              !governor->Poll().ok()) {
            return false;  // tripped: abandon the level
          }
          ++node_entries[node];
          // (a) covered tuples are mapped into B;
          bool ok = true;
          for (auto [rel, t] : tuples_of_node[node]) {
            std::span<const Element> tup = a.relation(rel).tuple(t);
            image.resize(tup.size());
            for (size_t pp = 0; pp < tup.size(); ++pp) {
              size_t pos = static_cast<size_t>(
                  std::lower_bound(bag.begin(), bag.end(), tup[pp]) -
                  bag.begin());
              image[pp] = assign[pos];
            }
            const Relation& br = b.relation(rel);
            if (b_member[rel].FindFirst(br.data().data(), image) ==
                HashIndex::kNone) {
              ok = false;
              break;
            }
          }
          // (b) every child has a subtree assignment agreeing on the
          // shared elements.
          if (ok) {
            for (uint32_t child : decomposition.children(node)) {
              const auto& cbag = decomposition.bag(child);
              proj.clear();
              for (uint32_t ci : parent_shared_positions[child]) {
                Element e = cbag[ci];
                size_t pos = static_cast<size_t>(
                    std::lower_bound(bag.begin(), bag.end(), e) -
                    bag.begin());
                proj.push_back(assign[pos]);
              }
              if (tab_index[child].FindFirst(tables[child].data(), proj) ==
                  HashIndex::kNone) {
                ok = false;
                break;
              }
            }
          }
          if (ok) {
            // Keep the first witness per parent-intersection key.
            proj.clear();
            for (uint32_t i : parent_shared_positions[node]) {
              proj.push_back(assign[i]);
            }
            if (tab_index[node].FindFirst(table.data(), proj) ==
                HashIndex::kNone) {
              table.AppendRow(assign);
              tab_index[node].Add(
                  table.data(), static_cast<uint32_t>(table.row_count() - 1));
            }
          }
          // Odometer.
          size_t pos = 0;
          while (pos < assign.size() &&
                 ++assign[pos] == static_cast<Element>(m)) {
            assign[pos] = 0;
            ++pos;
          }
          if (pos == assign.size()) exhausted = true;
          if (bag.empty()) exhausted = true;
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
      const auto& cbag = decomposition.bag(child);
      proj.clear();
      for (uint32_t ci : parent_shared_positions[child]) {
        Element e = cbag[ci];
        size_t pos = static_cast<size_t>(
            std::lower_bound(bag.begin(), bag.end(), e) - bag.begin());
        proj.push_back(row[pos]);
      }
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
