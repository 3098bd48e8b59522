// Bounded treewidth in action (Section 5): evaluating tree-like queries in
// polynomial time via dynamic programming over a tree decomposition, with
// the generic exponential solver as the foil.

#include <cstdio>

#include "common/timer.h"
#include "gen/generators.h"
#include "solver/backtracking.h"
#include "treewidth/binary_encoding.h"
#include "treewidth/decomposition.h"
#include "treewidth/hom_dp.h"

using namespace cqcs;

int main() {
  auto vocab = MakeGraphVocabulary();
  Rng rng(2024);

  // Source: a long "chain of diamonds" — treewidth 2 regardless of length.
  const size_t kDiamonds = 40;
  Structure chain(vocab, 1 + 3 * kDiamonds);
  for (size_t d = 0; d < kDiamonds; ++d) {
    auto base = static_cast<Element>(3 * d);
    Element top = base + 1, bottom = base + 2, next = base + 3;
    for (auto [u, v] : {std::pair<Element, Element>{base, top},
                        {base, bottom},
                        {top, next},
                        {bottom, next}}) {
      chain.AddTuple(0, {u, v});
      chain.AddTuple(0, {v, u});
    }
  }
  TreeDecomposition td = *HeuristicDecomposition(chain);
  std::printf("diamond chain: %zu elements, decomposition width %d\n",
              chain.universe_size(), td.Width());

  // Target: a random symmetric graph ("database").
  Structure db = RandomGraphStructure(vocab, 30, 0.25, rng, true);

  Timer dp_timer;
  TreewidthSolveStats stats;
  auto dp = SolveViaTreeDecomposition(chain, db, td, &stats);
  double dp_ms = dp_timer.Millis();

  Timer bt_timer;
  auto bt = FindHomomorphism(chain, db);
  double bt_ms = bt_timer.Millis();

  std::printf("  DP over decomposition: %-3s in %7.2f ms (%zu table rows)\n",
              dp->has_value() ? "yes" : "no", dp_ms, stats.table_entries);
  std::printf("  backtracking        : %-3s in %7.2f ms\n",
              bt.has_value() ? "yes" : "no", bt_ms);

  // Lemma 5.5: a wide-arity structure becomes binary so the same machinery
  // applies. One 5-ary "pipeline stage" relation, chained.
  auto wide_vocab = std::make_shared<Vocabulary>();
  wide_vocab->AddRelation("Stage", 5);
  Structure pipeline(wide_vocab, 13);
  for (Element s = 0; s + 4 < 13; s += 4) {
    pipeline.AddTuple(0, {s, static_cast<Element>(s + 1),
                          static_cast<Element>(s + 2),
                          static_cast<Element>(s + 3),
                          static_cast<Element>(s + 4)});
  }
  Structure wide_db = RandomStructure(wide_vocab, 4, 60, rng);
  BinaryEncoded enc = BinaryEncode(pipeline);
  std::printf(
      "\nwide pipeline: Gaifman width %d, incidence-style binary encoding "
      "has %zu elements over %zu coincidence relations\n",
      HeuristicDecomposition(pipeline)->Width(), enc.encoded.universe_size(),
      enc.vocabulary->size());
  bool via_binary = HomomorphismExistsViaBinaryEncoding(
      pipeline, wide_db, [](const Structure& ea, const Structure& eb) {
        auto r = SolveBoundedTreewidth(ea, eb);
        return r.ok() && r->has_value();
      });
  bool direct = HasHomomorphism(pipeline, wide_db);
  std::printf("  hom(pipeline -> db): direct %s, via binary encoding %s\n",
              direct ? "yes" : "no", via_binary ? "yes" : "no");
  return 0;
}
