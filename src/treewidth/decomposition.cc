#include "treewidth/decomposition.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <sstream>

#include "common/check.h"
#include "common/governor.h"

namespace cqcs {

uint32_t TreeDecomposition::AddNode(std::vector<Element> bag,
                                    uint32_t parent) {
  std::sort(bag.begin(), bag.end());
  bag.erase(std::unique(bag.begin(), bag.end()), bag.end());
  uint32_t id = static_cast<uint32_t>(bags_.size());
  CQCS_CHECK_MSG(parent == kNoParent || parent < id,
                 "parent must precede child");
  bags_.push_back(std::move(bag));
  parents_.push_back(parent);
  children_.emplace_back();
  if (parent != kNoParent) children_[parent].push_back(id);
  return id;
}

int TreeDecomposition::Width() const {
  int width = -1;
  for (const auto& bag : bags_) {
    width = std::max(width, static_cast<int>(bag.size()) - 1);
  }
  return width;
}

namespace {

bool BagContains(const std::vector<Element>& bag, Element e) {
  return std::binary_search(bag.begin(), bag.end(), e);
}

/// Element -> the nodes whose bags hold it, as a CSR in ascending node
/// order. Coverage checks probe the rarest element's list instead of
/// scanning every bag.
struct NodeLists {
  std::vector<uint32_t> offsets;  // universe + 1
  std::vector<uint32_t> nodes;

  size_t count(Element e) const { return offsets[e + 1] - offsets[e]; }
  std::span<const uint32_t> of(Element e) const {
    return {nodes.data() + offsets[e], count(e)};
  }
};

/// The node-local conditions, in O(Σ|bag| · log w): bags are nonempty and
/// in range, and every element lies in at least one bag whose nodes form a
/// subtree — exactly one of them (its top) has a parent not holding the
/// element. Builds `lists` for the coverage checks that follow.
Status IndexAndCheckElements(const TreeDecomposition& td, size_t n,
                             NodeLists* lists) {
  const size_t nodes = td.node_count();
  if (n > 0 && nodes == 0) {
    return Status::InvalidArgument("no bags for a nonempty graph");
  }
  for (uint32_t node = 0; node < nodes; ++node) {
    if (td.bag(node).empty()) return Status::InvalidArgument("empty bag");
    for (Element e : td.bag(node)) {
      if (e >= n) return Status::InvalidArgument("bag element out of range");
    }
  }
  lists->offsets.assign(n + 1, 0);
  std::vector<uint32_t> tops(n, 0);
  for (uint32_t node = 0; node < nodes; ++node) {
    const uint32_t p = td.parent(node);
    for (Element e : td.bag(node)) {
      ++lists->offsets[e + 1];
      if (p == TreeDecomposition::kNoParent || !BagContains(td.bag(p), e)) {
        ++tops[e];
      }
    }
  }
  for (size_t e = 0; e < n; ++e) lists->offsets[e + 1] += lists->offsets[e];
  lists->nodes.resize(lists->offsets.back());
  std::vector<uint32_t> fill(lists->offsets.begin(), lists->offsets.end() - 1);
  for (uint32_t node = 0; node < nodes; ++node) {
    for (Element e : td.bag(node)) lists->nodes[fill[e]++] = node;
  }
  for (Element v = 0; v < n; ++v) {
    if (lists->count(v) == 0) {
      return Status::InvalidArgument("vertex " + std::to_string(v) +
                                     " is in no bag");
    }
    if (tops[v] != 1) {
      return Status::InvalidArgument(
          "bags containing vertex " + std::to_string(v) +
          " do not form a subtree");
    }
  }
  return Status::OK();
}

/// First node (ascending) whose bag covers `elems`, probing the node list
/// of the first element with the fewest nodes; kNoParent when none does.
uint32_t CoveringNode(const TreeDecomposition& td, const NodeLists& lists,
                      std::span<const Element> elems) {
  Element rare = elems[0];
  for (Element e : elems) {
    if (lists.count(e) < lists.count(rare)) rare = e;
  }
  for (uint32_t node : lists.of(rare)) {
    const std::vector<Element>& bag = td.bag(node);
    bool covered = true;
    for (Element e : elems) {
      if (!BagContains(bag, e)) {
        covered = false;
        break;
      }
    }
    if (covered) return node;
  }
  return TreeDecomposition::kNoParent;
}

}  // namespace

Status TreeDecomposition::ValidateFor(const Graph& g) const {
  NodeLists lists;
  CQCS_RETURN_IF_ERROR(IndexAndCheckElements(*this, g.vertex_count(), &lists));
  for (uint32_t u = 0; u < g.vertex_count(); ++u) {
    for (uint32_t v : g.neighbors(u)) {
      if (v < u) continue;
      const Element edge[2] = {u, v};
      if (CoveringNode(*this, lists, edge) == kNoParent) {
        return Status::InvalidArgument("edge {" + std::to_string(u) + "," +
                                       std::to_string(v) + "} is in no bag");
      }
    }
  }
  return Status::OK();
}

Status TreeDecomposition::ValidateFor(const Structure& a,
                                      TupleAssignment* assignment) const {
  // Lemma 5.1: a tree decomposition of A is one of its Gaifman graph and
  // vice versa. Covering every tuple covers every Gaifman edge, so the
  // tuples are checked directly and no Gaifman graph is built.
  NodeLists lists;
  CQCS_RETURN_IF_ERROR(IndexAndCheckElements(*this, a.universe_size(), &lists));
  if (assignment != nullptr) assignment->assign(node_count(), {});
  const Vocabulary& vocab = *a.vocabulary();
  for (RelId id = 0; id < vocab.size(); ++id) {
    const Relation& r = a.relation(id);
    for (uint32_t t = 0; t < r.tuple_count(); ++t) {
      const uint32_t node = CoveringNode(*this, lists, r.tuple(t));
      if (node == kNoParent) {
        return Status::InvalidArgument("a tuple of " + vocab.name(id) +
                                       " is covered by no bag");
      }
      if (assignment != nullptr) (*assignment)[node].emplace_back(id, t);
    }
  }
  return Status::OK();
}

std::string TreeDecomposition::ToString() const {
  std::ostringstream out;
  for (uint32_t node = 0; node < bags_.size(); ++node) {
    out << node << " -> ";
    if (parents_[node] == kNoParent) {
      out << "root";
    } else {
      out << parents_[node];
    }
    out << ": {";
    for (size_t i = 0; i < bags_[node].size(); ++i) {
      if (i > 0) out << ",";
      out << bags_[node][i];
    }
    out << "}\n";
  }
  return out.str();
}

namespace {

using FillEdges = std::vector<std::pair<uint32_t, uint32_t>>;

/// Vertex elimination on flat sorted adjacency: the one core under the
/// greedy orders and DecompositionFromEliminationOrder. Eliminating v
/// records the bag {v} ∪ N(v), makes N(v) a clique (the fill-in) and
/// removes v; BuildTree() then links the recorded bags.
class EliminationGraph {
 public:
  explicit EliminationGraph(const Graph& g)
      : adj_(g.vertex_count()),
        position_(g.vertex_count(), kLive),
        bags_(g.vertex_count()) {
    for (uint32_t v = 0; v < adj_.size(); ++v) {
      std::span<const uint32_t> nbrs = g.neighbors(v);
      adj_[v].assign(nbrs.begin(), nbrs.end());
    }
    order_.reserve(adj_.size());
  }

  bool eliminated(uint32_t v) const { return position_[v] != kLive; }
  const std::vector<uint32_t>& neighbors(uint32_t v) const { return adj_[v]; }
  const std::vector<uint32_t>& order() const { return order_; }
  /// {v} ∪ N(v) at v's elimination, sorted.
  const std::vector<Element>& bag(uint32_t v) const { return bags_[v]; }

  /// Eliminates the live vertex v. Each new fill edge {a, b}, a < b, is
  /// appended to `fill` when it is non-null.
  void Eliminate(uint32_t v, FillEdges* fill) {
    const std::vector<uint32_t>& nv = adj_[v];
    for (uint32_t w : nv) {
      // adj(w) := (adj(w) \ {v}) ∪ (N(v) \ {w}), as one sorted merge.
      const std::vector<uint32_t>& old = adj_[w];
      merged_.clear();
      size_t i = 0, j = 0;
      while (i < old.size() || j < nv.size()) {
        if (j == nv.size() || (i < old.size() && old[i] < nv[j])) {
          if (old[i] != v) merged_.push_back(old[i]);
          ++i;
        } else if (i == old.size() || nv[j] < old[i]) {
          const uint32_t x = nv[j++];
          if (x == w) continue;
          merged_.push_back(x);
          if (fill != nullptr && w < x) fill->emplace_back(w, x);
        } else {
          merged_.push_back(old[i]);
          ++i;
          ++j;
        }
      }
      adj_[w].swap(merged_);
    }
    std::vector<Element>& bag = bags_[v];
    bag.reserve(nv.size() + 1);
    auto split = std::lower_bound(nv.begin(), nv.end(), v);
    bag.insert(bag.end(), nv.begin(), split);
    bag.push_back(v);
    bag.insert(bag.end(), split, nv.end());
    std::vector<uint32_t>().swap(adj_[v]);
    position_[v] = static_cast<uint32_t>(order_.size());
    order_.push_back(v);
  }

  /// The tree over the recorded bags, once every vertex is eliminated: in
  /// reverse elimination order, the bag of v hangs under the bag of its
  /// earliest-eliminated higher neighbor.
  TreeDecomposition BuildTree() && {
    TreeDecomposition out;
    std::vector<uint32_t> node_of(order_.size());
    for (size_t i = order_.size(); i-- > 0;) {
      const uint32_t v = order_[i];
      uint32_t parent = TreeDecomposition::kNoParent;
      uint32_t best = kLive;
      for (Element w : bags_[v]) {
        if (w != v && position_[w] < best) {
          best = position_[w];
          parent = node_of[w];
        }
      }
      node_of[v] = out.AddNode(std::move(bags_[v]), parent);
    }
    return out;
  }

 private:
  static constexpr uint32_t kLive = UINT32_MAX;

  std::vector<std::vector<uint32_t>> adj_;  // live vertices only, sorted
  std::vector<uint32_t> position_;          // elimination step, or kLive
  std::vector<std::vector<Element>> bags_;
  std::vector<uint32_t> order_;
  std::vector<uint32_t> merged_;  // merge scratch, reused across steps
};

/// Greedy elimination: repeatedly eliminates the live vertex with the
/// lowest score — its fill-in (min-fill) or its degree (min-degree) —
/// taking the smallest id among ties. Scores sit in a lazy min-heap keyed
/// by (score, id); an entry goes stale once its vertex is rescored or
/// eliminated and is dropped when it surfaces. Eliminating v only changes
/// the scores of N(v), which are recomputed, and — for min-fill — of the
/// common neighbours of each fill edge {a, b} outside N[v], whose fill-in
/// loses exactly the now-adjacent pair (a, b). The governor (null:
/// ungoverned) is polled once per elimination. The elimination stops early,
/// leaving the chosen vertex live, when that vertex has more than
/// `max_degree` live neighbours; its degree then goes to *stop_degree.
Result<EliminationGraph> GreedyEliminate(const Graph& g, bool min_fill,
                                         ResourceGovernor* governor,
                                         size_t max_degree = SIZE_MAX,
                                         size_t* stop_degree = nullptr) {
  const size_t n = g.vertex_count();
  EliminationGraph eg(g);
  std::vector<uint8_t> mark(n, 0);  // scratch flags, all zero between uses

  // Pairs of v's neighbours that are not adjacent: C(d, 2) minus the edges
  // inside N(v), each counted from both ends.
  auto fill_in = [&](uint32_t v) -> size_t {
    const std::vector<uint32_t>& nv = eg.neighbors(v);
    const size_t d = nv.size();
    if (d < 2) return 0;
    for (uint32_t x : nv) mark[x] = 1;
    size_t twice_edges = 0;
    for (uint32_t x : nv) {
      const std::vector<uint32_t>& nx = eg.neighbors(x);
      if (nx.size() <= d) {
        for (uint32_t y : nx) twice_edges += mark[y];
      } else {
        for (uint32_t y : nv) {
          twice_edges += std::binary_search(nx.begin(), nx.end(), y);
        }
      }
    }
    for (uint32_t x : nv) mark[x] = 0;
    return d * (d - 1) / 2 - twice_edges / 2;
  };
  auto score_of = [&](uint32_t v) {
    return min_fill ? fill_in(v) : eg.neighbors(v).size();
  };

  using Entry = std::pair<size_t, uint32_t>;  // (score, vertex)
  std::vector<size_t> score(n);
  std::vector<Entry> entries(n);
  for (uint32_t v = 0; v < n; ++v) {
    score[v] = score_of(v);
    entries[v] = {score[v], v};
  }
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap(
      std::greater<Entry>(), std::move(entries));

  FillEdges fill;
  std::vector<uint32_t> touched;
  for (size_t step = 0; step < n; ++step) {
    if (governor != nullptr) CQCS_RETURN_IF_ERROR(governor->Poll());
    uint32_t v;
    for (;;) {
      auto [s, u] = heap.top();
      heap.pop();
      if (!eg.eliminated(u) && s == score[u]) {
        v = u;
        break;
      }
    }
    if (eg.neighbors(v).size() > max_degree) {
      *stop_degree = eg.neighbors(v).size();
      break;
    }
    fill.clear();
    eg.Eliminate(v, min_fill ? &fill : nullptr);
    const std::vector<Element>& closed = eg.bag(v);  // N[v]
    if (!fill.empty()) {
      // mark: 1 = in N[v], 2 = outside N[v] with a lowered fill-in.
      for (Element x : closed) mark[x] = 1;
      for (auto [a, b] : fill) {
        const std::vector<uint32_t>& na = eg.neighbors(a);
        const std::vector<uint32_t>& nb = eg.neighbors(b);
        for (size_t i = 0, j = 0; i < na.size() && j < nb.size();) {
          if (na[i] < nb[j]) {
            ++i;
          } else if (nb[j] < na[i]) {
            ++j;
          } else {
            const uint32_t x = na[i];
            ++i;
            ++j;
            if (mark[x] == 1) continue;
            --score[x];
            if (mark[x] == 0) {
              mark[x] = 2;
              touched.push_back(x);
            }
          }
        }
      }
      for (uint32_t x : touched) {
        heap.emplace(score[x], x);
        mark[x] = 0;
      }
      touched.clear();
      for (Element x : closed) mark[x] = 0;
    }
    for (Element w : closed) {
      if (w == v) continue;
      score[w] = score_of(w);
      heap.emplace(score[w], w);
    }
  }
  return eg;
}

}  // namespace

TreeDecomposition DecompositionFromEliminationOrder(
    const Graph& g, const std::vector<uint32_t>& order) {
  const size_t n = g.vertex_count();
  CQCS_CHECK_MSG(order.size() == n, "order must list every vertex once");
  EliminationGraph eg(g);
  for (uint32_t v : order) {
    CQCS_CHECK(v < n);
    CQCS_CHECK_MSG(!eg.eliminated(v), "order must list every vertex once");
    eg.Eliminate(v, nullptr);
  }
  return std::move(eg).BuildTree();
}

std::vector<uint32_t> MinDegreeOrder(const Graph& g) {
  return (*GreedyEliminate(g, /*min_fill=*/false, nullptr)).order();
}

std::vector<uint32_t> MinFillOrder(const Graph& g) {
  return (*GreedyEliminate(g, /*min_fill=*/true, nullptr)).order();
}

Result<TreeDecomposition> HeuristicDecomposition(const Structure& a,
                                                 ResourceGovernor* governor,
                                                 WidthCap* cap) {
  // Every bag before the stop fits the cap, so the stopping bag is the
  // largest one seen.
  size_t max_degree = SIZE_MAX;
  size_t stop_degree = 0;
  if (cap != nullptr) {
    CQCS_CHECK_MSG(cap->max_width >= 0, "width cap must be nonnegative");
    cap->stopped = false;
    max_degree = static_cast<size_t>(cap->max_width);
  }
  CQCS_ASSIGN_OR_RETURN(
      EliminationGraph eg,
      GreedyEliminate(GaifmanGraph(a), /*min_fill=*/true, governor,
                      max_degree, &stop_degree));
  if (eg.order().size() < a.universe_size()) {
    cap->stopped = true;
    cap->width_lower_bound = static_cast<int>(stop_degree);
    cap->eliminated = eg.order().size();
    return TreeDecomposition();
  }
  return std::move(eg).BuildTree();
}

Result<int> ExactTreewidth(const Graph& g) {
  const size_t n = g.vertex_count();
  if (n == 0) return -1;
  if (n > 20) {
    return Status::Unsupported(
        "exact treewidth is bounded to 20 vertices; use the heuristics");
  }
  // opt(S) = min over elimination orders of S (eliminated first) of the max
  // bag encountered; Q(S, v) = neighbors of v reachable through S
  // ("On exact algorithms for treewidth", Bodlaender et al.).
  const uint32_t full = static_cast<uint32_t>((1u << n) - 1);
  std::vector<int8_t> memo(static_cast<size_t>(full) + 1, -2);
  memo[0] = -1;

  auto q_size = [&](uint32_t s, uint32_t v) {
    // BFS from v through vertices in s; count reached vertices outside s.
    uint32_t visited = 1u << v;
    std::queue<uint32_t> queue;
    queue.push(v);
    int count = 0;
    while (!queue.empty()) {
      uint32_t x = queue.front();
      queue.pop();
      for (uint32_t w : g.neighbors(x)) {
        if (visited & (1u << w)) continue;
        visited |= 1u << w;
        if (s & (1u << w)) {
          queue.push(w);
        } else {
          ++count;
        }
      }
    }
    return count;
  };

  auto solve = [&](auto&& self, uint32_t s) -> int {
    if (memo[s] != -2) return memo[s];
    int best = INT8_MAX;
    for (uint32_t v = 0; v < n; ++v) {
      if (!(s & (1u << v))) continue;
      uint32_t rest = s & ~(1u << v);
      int sub = self(self, rest);
      int cost = std::max(sub, q_size(rest, v));
      best = std::min(best, cost);
    }
    memo[s] = static_cast<int8_t>(best);
    return best;
  };
  return solve(solve, full);
}

int HeuristicIncidenceTreewidth(const Structure& a) {
  return (*GreedyEliminate(IncidenceGraph(a), /*min_fill=*/true, nullptr))
      .BuildTree()
      .Width();
}

}  // namespace cqcs
