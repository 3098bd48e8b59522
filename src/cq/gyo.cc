#include "cq/gyo.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "cq/acyclic.h"

namespace cqcs {

namespace {

class GyoReducer {
 public:
  GyoReducer(size_t var_count, std::span<const std::vector<VarId>> edges)
      : m_(edges.size()), vars_(m_), alive_(m_, 1), in_queue_(m_, 0) {
    // Dedup each edge's vertex set and count live occurrences per vertex.
    cnt_.assign(var_count, 0);
    for (size_t i = 0; i < m_; ++i) {
      vars_[i].assign(edges[i].begin(), edges[i].end());
      std::sort(vars_[i].begin(), vars_[i].end());
      vars_[i].erase(std::unique(vars_[i].begin(), vars_[i].end()),
                     vars_[i].end());
      for (VarId v : vars_[i]) ++cnt_[v];
    }
    // Static vertex -> edges CSR incidence (scanned with alive_ filtering;
    // each vertex's list is walked at most once by the cnt==1 trigger).
    offsets_.assign(var_count + 1, 0);
    for (const auto& e : vars_) {
      for (VarId v : e) ++offsets_[v + 1];
    }
    for (size_t v = 0; v < var_count; ++v) offsets_[v + 1] += offsets_[v];
    incidence_.resize(offsets_.back());
    std::vector<uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
    for (uint32_t i = 0; i < m_; ++i) {
      for (VarId v : vars_[i]) incidence_[fill[v]++] = i;
    }
    stamp_.assign(var_count, UINT32_MAX);
  }

  /// The join forest's parent links, or nullopt when the hypergraph is
  /// cyclic.
  std::optional<std::vector<uint32_t>> Run() {
    parent_.assign(m_, JoinTree::kNoParent);
    alive_count_ = m_;
    for (uint32_t i = 0; i < m_; ++i) Enqueue(i);
    while (!queue_.empty()) {
      uint32_t e = queue_.back();
      queue_.pop_back();
      in_queue_[e] = 0;
      TryRemoveEar(e);
    }
    if (alive_count_ > 0) return std::nullopt;  // cyclic
    return std::move(parent_);
  }

 private:
  void Enqueue(uint32_t e) {
    if (!alive_[e] || in_queue_[e]) return;
    in_queue_[e] = 1;
    queue_.push_back(e);
  }

  void Remove(uint32_t e, uint32_t parent) {
    alive_[e] = 0;
    --alive_count_;
    parent_[e] = parent;
    for (VarId v : vars_[e]) {
      if (--cnt_[v] == 1) {
        // v's sole remaining live edge may have just become an ear.
        for (uint32_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
          if (alive_[incidence_[i]]) {
            Enqueue(incidence_[i]);
            break;
          }
        }
      }
    }
  }

  void TryRemoveEar(uint32_t e) {
    if (!alive_[e]) return;
    // S_e: vertices of e still shared with another live edge.
    shared_.clear();
    VarId pivot = 0;
    uint32_t pivot_cnt = UINT32_MAX;
    for (VarId v : vars_[e]) {
      if (cnt_[v] > 1) {
        shared_.push_back(v);
        if (cnt_[v] < pivot_cnt) {
          pivot_cnt = cnt_[v];
          pivot = v;
        }
      }
    }
    if (shared_.empty()) {
      // Isolated ear: nothing left to join it to — a forest root.
      Remove(e, JoinTree::kNoParent);
      return;
    }
    // A witness must contain every vertex of S_e, in particular the pivot:
    // scanning the pivot's live edges sees every candidate.
    for (uint32_t i = offsets_[pivot]; i < offsets_[pivot + 1]; ++i) {
      uint32_t w = incidence_[i];
      if (w == e || !alive_[w]) continue;
      if (stamped_edge_ != w) {
        // Mark w's vertex set for O(1) membership tests. Edge vertex sets
        // never change, so a mark is valid until overwritten.
        for (VarId u : vars_[w]) stamp_[u] = w;
        stamped_edge_ = w;
      }
      bool covers = true;
      for (VarId u : shared_) {
        if (stamp_[u] != w) {
          covers = false;
          break;
        }
      }
      if (covers) {
        Remove(e, w);
        Enqueue(w);  // w's shared set may have shrunk to coverable
        return;
      }
    }
    // No witness now; the cnt==1 trigger re-enqueues e if that changes.
  }

  const uint32_t m_;
  std::vector<std::vector<VarId>> vars_;
  std::vector<uint32_t> cnt_;
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> incidence_;
  std::vector<uint8_t> alive_, in_queue_;
  std::vector<uint32_t> queue_;
  std::vector<VarId> shared_;
  // stamp_[u] == w marks u as a vertex of edge w (cleared lazily by
  // overwrite; edge ids are unique so no generation counter is needed).
  std::vector<uint32_t> stamp_;
  uint32_t stamped_edge_ = UINT32_MAX;
  uint32_t alive_count_ = 0;
  std::vector<uint32_t> parent_;
};

}  // namespace

std::optional<JoinTree> GyoJoinForest(
    size_t var_count, std::span<const std::vector<VarId>> edges) {
  std::optional<std::vector<uint32_t>> parent =
      GyoReducer(var_count, edges).Run();
  if (!parent.has_value()) return std::nullopt;
  return JoinTree::Build(var_count, edges, *std::move(parent));
}

std::vector<std::vector<VarId>> QueryHyperedges(const ConjunctiveQuery& q) {
  std::vector<std::vector<VarId>> edges;
  edges.reserve(q.atoms().size());
  for (const Atom& atom : q.atoms()) edges.push_back(atom.args);
  return edges;
}

std::optional<JoinTree> StructureJoinForest(const Structure& a) {
  std::vector<std::vector<VarId>> edges;
  edges.reserve(a.TotalTuples());
  const Vocabulary& vocab = *a.vocabulary();
  for (RelId id = 0; id < vocab.size(); ++id) {
    const Relation& r = a.relation(id);
    for (uint32_t t = 0; t < r.tuple_count(); ++t) {
      std::span<const Element> tup = r.tuple(t);
      edges.emplace_back(tup.begin(), tup.end());
    }
  }
  return GyoJoinForest(a.universe_size(), edges);
}

}  // namespace cqcs
