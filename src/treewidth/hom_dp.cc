#include "treewidth/hom_dp.h"

#include <algorithm>

#include "common/check.h"
#include "common/governor.h"
#include "common/work_pool.h"
#include "cq/acyclic.h"
#include "rel/hash_index.h"
#include "rel/table.h"

namespace cqcs {

namespace {

using rel::HashIndex;
using rel::Table;

/// B's relations as the bag joins read them, indexed once per run before
/// any bag is built: the workers only probe, so B's own lazily built
/// indexes (core/relation.h), which concurrent runs share, are never
/// written from a bag worker.
struct TargetIndexes {
  /// Per relation: B's flat tuple data, which every index below views.
  std::vector<const Element*> data;
  /// Per relation A uses: keyed on every column (membership).
  std::vector<HashIndex> member;
  /// Per relation A uses, of arity >= 2: one index per column.
  std::vector<std::vector<HashIndex>> column;
};

/// Builds bag tables by join. A bag's positions are fixed one at a time,
/// each time the one the covered tuples link to the fixed positions most
/// often (first, the one they read most often). Each later position is
/// extended through the column index of one covered tuple that links it
/// to a fixed position; it ranges over the whole universe only when no
/// covered tuple links it. A covered tuple is checked at the depth that
/// fixes its last position, except a binary extension tuple, which its
/// own probe already satisfied. Candidates are distinct at each depth, so
/// the table is duplicate-free. One instance serves the bags of one
/// worker, reusing its buffers.
class BagJoin {
 public:
  BagJoin(const Structure& a, const Structure& b, const TargetIndexes& ix,
          ResourceGovernor* governor)
      : a_(a), b_(b), ix_(ix), gov_(governor) {}

  /// Sets `table` (width = bag size) to every assignment of `bag` that
  /// maps each tuple of `covered` into B, and *tried to the extensions
  /// tried; false, writing neither, on a governor trip. Both are written
  /// once, at the end: neighbouring bags belong to other workers.
  bool Build(std::span<const Element> bag,
             std::span<const std::pair<RelId, uint32_t>> covered,
             Table* table, uint64_t* tried) {
    Plan(bag, covered);
    const size_t k = bag.size();
    Table rows(static_cast<uint32_t>(k));
    rows.AttachGovernor(gov_);
    uint64_t extensions = 0;
    assign_.assign(k, 0);
    Fill(0);
    size_t d = 0;
    for (;;) {
      if (cur_[d] == cand_[d].size()) {
        if (d == 0) break;
        --d;
        continue;
      }
      assign_[order_[d]] = cand_[d][cur_[d]++];
      ++extensions;
      if (gov_ != nullptr && (++tick_ & 1023) == 0 && !gov_->Poll().ok()) {
        return false;
      }
      if (!Checks(d)) continue;
      if (d + 1 == k) {
        rows.AppendRow(assign_);
      } else {
        Fill(++d);
      }
    }
    *table = std::move(rows);
    *tried = extensions;
    return true;
  }

 private:
  static constexpr uint32_t kUniverse = UINT32_MAX;

  /// Where depth d's candidates come from: the universe, or the values in
  /// column `val_col` of the B tuples of `rel` whose column `key_col`
  /// holds the value at bag position `key_pos` (covered tuple `tuple`
  /// links the two positions).
  struct Step {
    uint32_t rel = kUniverse;
    uint32_t tuple = 0, key_col = 0, val_col = 0, key_pos = 0;
  };

  void Plan(std::span<const Element> bag,
            std::span<const std::pair<RelId, uint32_t>> covered) {
    const auto k = static_cast<uint32_t>(bag.size());
    // The covered tuples as bag positions: tuple i reads positions
    // pos_[begin_[i], begin_[i + 1]).
    pos_.clear();
    begin_.assign(1, 0);
    rel_.clear();
    // cqcs-lint: allow(unpolled-loop): plans one bag — covered tuples x arity, A's shape, not B's data
    for (auto [rel, t] : covered) {
      for (Element e : a_.relation(rel).tuple(t)) {
        pos_.push_back(static_cast<uint32_t>(
            std::lower_bound(bag.begin(), bag.end(), e) - bag.begin()));
      }
      begin_.push_back(static_cast<uint32_t>(pos_.size()));
      rel_.push_back(rel);
    }
    const size_t tuples = rel_.size();
    // depth_[p] = the depth that fixes position p (k while unfixed).
    depth_.assign(k, k);
    order_.clear();
    steps_.assign(k, Step());
    // cqcs-lint: allow(unpolled-loop): plans one bag — width^2 x covered tuples x arity, A's shape, not B's data
    for (uint32_t d = 0; d < k; ++d) {
      // links_[p]: reads of unfixed p by covered tuples that also read a
      // fixed position (by every covered tuple, for the first position).
      links_.assign(k, 0);
      for (size_t i = 0; i < tuples; ++i) {
        bool linked = d == 0;
        for (uint32_t j = begin_[i]; j < begin_[i + 1]; ++j) {
          linked = linked || depth_[pos_[j]] < d;
        }
        if (!linked) continue;
        for (uint32_t j = begin_[i]; j < begin_[i + 1]; ++j) {
          if (depth_[pos_[j]] == k) ++links_[pos_[j]];
        }
      }
      uint32_t best = k;
      for (uint32_t p = 0; p < k; ++p) {
        if (depth_[p] == k && (best == k || links_[p] > links_[best])) {
          best = p;
        }
      }
      depth_[best] = d;
      order_.push_back(best);
      if (d == 0 || links_[best] == 0) continue;
      // Extend through the first covered tuple that links `best` to a
      // fixed position.
      for (size_t i = 0; i < tuples; ++i) {
        uint32_t key = kUniverse, val = kUniverse;
        for (uint32_t j = begin_[i]; j < begin_[i + 1]; ++j) {
          if (key == kUniverse && depth_[pos_[j]] < d) key = j - begin_[i];
          if (val == kUniverse && pos_[j] == best) val = j - begin_[i];
        }
        if (key == kUniverse || val == kUniverse) continue;
        steps_[d] = {rel_[i], static_cast<uint32_t>(i), key, val,
                     pos_[begin_[i] + key]};
        break;
      }
    }
    // Each covered tuple is checked where its last position is fixed; a
    // binary tuple that drove that depth's extension holds by construction.
    if (checks_.size() < k) checks_.resize(k);
    for (uint32_t d = 0; d < k; ++d) checks_[d].clear();
    // cqcs-lint: allow(unpolled-loop): plans one bag — covered tuples x arity, A's shape, not B's data
    for (size_t i = 0; i < tuples; ++i) {
      uint32_t last = 0;
      for (uint32_t j = begin_[i]; j < begin_[i + 1]; ++j) {
        last = std::max(last, depth_[pos_[j]]);
      }
      const bool drove = steps_[last].rel != kUniverse &&
                         steps_[last].tuple == i &&
                         begin_[i + 1] - begin_[i] == 2;
      if (!drove) checks_[last].push_back(static_cast<uint32_t>(i));
    }
    if (cand_.size() < k) {
      cand_.resize(k);
      cur_.resize(k);
    }
  }

  /// Collects depth d's distinct candidates and rewinds its cursor.
  void Fill(size_t d) {
    std::vector<Element>& cand = cand_[d];
    cand.clear();
    cur_[d] = 0;
    const Step& step = steps_[d];
    if (step.rel == kUniverse) {
      for (size_t v = 0; v < b_.universe_size(); ++v) {
        cand.push_back(static_cast<Element>(v));
      }
      return;
    }
    const Element* data = ix_.data[step.rel];
    const size_t arity = a_.vocabulary()->arity(step.rel);
    const HashIndex& index = ix_.column[step.rel][step.key_col];
    const Element key = assign_[step.key_pos];
    for (uint32_t row = index.FindFirst(data, {&key, 1});
         row != HashIndex::kNone; row = index.Next(row)) {
      cand.push_back(data[row * arity + step.val_col]);
    }
    if (cand.size() > 1) {
      std::sort(cand.begin(), cand.end());
      cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
    }
  }

  /// Whether the current assignment maps every tuple checked at depth d
  /// into B.
  bool Checks(size_t d) {
    // cqcs-lint: allow(unpolled-loop): one probe per covered tuple; Build polls once per extension
    for (uint32_t i : checks_[d]) {
      probe_.clear();
      for (uint32_t j = begin_[i]; j < begin_[i + 1]; ++j) {
        probe_.push_back(assign_[pos_[j]]);
      }
      if (ix_.member[rel_[i]].FindFirst(ix_.data[rel_[i]], probe_) ==
          HashIndex::kNone) {
        return false;
      }
    }
    return true;
  }

  const Structure& a_;
  const Structure& b_;
  const TargetIndexes& ix_;
  ResourceGovernor* gov_;
  uint64_t tick_ = 0;  // governor poll stride over extensions tried

  // The plan of the current bag.
  std::vector<uint32_t> pos_, begin_;
  std::vector<RelId> rel_;
  std::vector<uint32_t> depth_, order_, links_;
  std::vector<Step> steps_;
  std::vector<std::vector<uint32_t>> checks_;  // tuple ids, per depth
  // The walk.
  std::vector<Element> assign_, probe_;
  std::vector<std::vector<Element>> cand_;
  std::vector<size_t> cur_;
};

}  // namespace

Status YannakakisProgram::FromBags(
    const Structure& a, const Structure& b,
    const TreeDecomposition& decomposition, JoinTree* shape, Passes passes,
    TreewidthSolveStats* stats,
    std::vector<std::vector<Element>>* node_tables) {
  if (!a.vocabulary()->Equals(*b.vocabulary())) {
    return Status::InvalidArgument("vocabulary mismatch");
  }
  if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->Poll());
  // Validation also lists, per node, every tuple of A its bag covers
  // (linear: it walks the rarest element's node list).
  TreeDecomposition::TupleAssignment covered;
  CQCS_RETURN_IF_ERROR(decomposition.ValidateFor(a, &covered));
  if (stats != nullptr) {
    stats->width = decomposition.Width();
    stats->table_entries = 0;
    stats->table_rows = 0;
    stats->workers = threads_;
    stats->morsels = 0;
    stats->steals = 0;
  }
  if (node_tables != nullptr) node_tables->clear();

  TargetIndexes ix;
  const Vocabulary& vocab = *a.vocabulary();
  ix.data.resize(vocab.size());
  ix.member.resize(vocab.size());
  ix.column.resize(vocab.size());
  for (RelId rel = 0; rel < vocab.size(); ++rel) {
    if (a.relation(rel).tuple_count() == 0) continue;
    if (gov_ != nullptr) CQCS_RETURN_IF_ERROR(gov_->Poll());
    const Relation& br = b.relation(rel);
    ix.data[rel] = br.data().data();
    const auto rows = static_cast<uint32_t>(br.tuple_count());
    std::vector<uint32_t> all(br.arity());
    for (uint32_t c = 0; c < br.arity(); ++c) all[c] = c;
    ix.member[rel].AttachGovernor(gov_);
    ix.member[rel].Build(br.data().data(), br.arity(), rows, all);
    if (br.arity() < 2) continue;
    ix.column[rel].resize(br.arity());
    for (uint32_t c = 0; c < br.arity(); ++c) {
      ix.column[rel][c].AttachGovernor(gov_);
      ix.column[rel][c].Build(br.data().data(), br.arity(), rows, {c});
    }
  }

  // The bags are independent: all of them are built in one flat dispatch,
  // each worker reusing its own BagJoin. Counters merge in node order. This
  // is the program's only parallel phase.
  const size_t nodes = decomposition.node_count();
  tables_.resize(nodes);
  std::vector<uint64_t> tried(nodes, 0);
  std::vector<BagJoin> joins(threads_, BagJoin(a, b, ix, gov_));
  auto body = [&](unsigned worker, size_t begin, size_t end) {
    for (size_t node = begin; node < end; ++node) {
      const std::vector<Element>& bag =
          decomposition.bag(static_cast<uint32_t>(node));
      if (!joins[worker].Build(bag, covered[node], &tables_[node],
                               &tried[node])) {
        return false;
      }
    }
    return true;
  };
  const MorselCounters run = MorselPool::Shared().Run(nodes, threads_, 8, body);
  if (stats != nullptr) {
    stats->morsels = run.morsels;
    stats->steals = run.steals;
  }
  CQCS_RETURN_IF_ERROR(TripStatus());

  std::vector<std::vector<VarId>> bags(nodes);
  std::vector<uint32_t> parent(nodes);
  for (uint32_t node = 0; node < nodes; ++node) {
    bags[node].assign(decomposition.bag(node).begin(),
                      decomposition.bag(node).end());
    parent[node] = decomposition.parent(node);
    if (stats != nullptr) {
      stats->table_entries += tried[node];
      stats->table_rows += tables_[node].row_count();
    }
    if (node_tables != nullptr) {
      const Table& t = tables_[node];
      node_tables->emplace_back(t.data(), t.data() + t.row_count() * t.width());
    }
  }
  *shape = JoinTree::Build(a.universe_size(), bags, std::move(parent));
  shape_ = shape;
  universe_ = b.universe_size();
  return Run(passes);
}

Result<std::optional<Homomorphism>> SolveViaTreeDecomposition(
    const Structure& a, const Structure& b,
    const TreeDecomposition& decomposition, TreewidthSolveStats* stats,
    ResourceGovernor* governor, unsigned num_threads,
    std::vector<std::vector<Element>>* node_tables) {
  JoinTree shape;
  YannakakisProgram program(nullptr, governor, num_threads);
  CQCS_RETURN_IF_ERROR(program.FromBags(a, b, decomposition, &shape,
                                        YannakakisProgram::Passes::kWalk,
                                        stats, node_tables));
  std::vector<std::vector<Element>> first;
  if (program.satisfiable()) CQCS_RETURN_IF_ERROR(program.Enumerate(1, &first));
  if (first.empty()) return std::optional<Homomorphism>();
  return std::optional<Homomorphism>(std::move(first[0]));
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
