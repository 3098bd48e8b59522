// E5 (Proposition 3.6): two-atom conjunctive-query containment in
// polynomial time via Booleanization + bijunctivity, versus the generic
// NP containment test. Series: both decision procedures as the queries
// grow. (Their agreement is checked by schaefer_uniform_test's
// SaraiyaTest.RandomChainQueriesAgree.)

#include <benchmark/benchmark.h>

#include "cq/containment.h"
#include "gen/generators.h"
#include "schaefer/saraiya.h"

namespace cqcs {
namespace {

VocabularyPtr WideVocab(size_t relations) {
  auto vocab = std::make_shared<Vocabulary>();
  for (size_t i = 0; i < relations; ++i) {
    vocab->AddRelation("E" + std::to_string(i), 2);
  }
  return vocab;
}

struct QueryPair {
  ConjunctiveQuery q1;
  ConjunctiveQuery q2;
};

QueryPair MakePair(size_t relations, uint64_t seed) {
  Rng rng(seed);
  auto vocab = WideVocab(relations);
  ConjunctiveQuery q1 = RandomTwoAtomQuery(vocab, 2 + relations, rng);
  ConjunctiveQuery q2 = RandomQuery(vocab, 2 + relations, 3 * relations, rng);
  return QueryPair{std::move(q1), std::move(q2)};
}

void BM_SaraiyaContainment(benchmark::State& state) {
  QueryPair pair = MakePair(static_cast<size_t>(state.range(0)), 5);
  bool answer = false;
  for (auto _ : state) {
    auto r = TwoAtomContainment(pair.q1, pair.q2);
    answer = r.ok() && *r;
    benchmark::DoNotOptimize(r);
  }
  state.counters["contained"] = answer ? 1 : 0;
  state.counters["q1_size"] = static_cast<double>(pair.q1.Size());
  state.counters["q2_size"] = static_cast<double>(pair.q2.Size());
}
BENCHMARK(BM_SaraiyaContainment)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_GenericContainment(benchmark::State& state) {
  QueryPair pair = MakePair(static_cast<size_t>(state.range(0)), 5);
  for (auto _ : state) {
    auto r = Contains(pair.q1, pair.q2);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GenericContainment)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cqcs
