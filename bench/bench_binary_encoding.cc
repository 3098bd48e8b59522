// E10 (Lemma 5.5): the dual-graph binary encoding preserves homomorphism
// existence; its cost is quadratic in the number of tuples (all coincidence
// pairs are materialized). Series: encoding time and size versus tuple
// count and arity. (The equivalence itself is checked by treewidth_test's
// BinaryEncodingTest.PreservesHomomorphismExistence.)

#include <benchmark/benchmark.h>

#include "gen/generators.h"
#include "treewidth/binary_encoding.h"

namespace cqcs {
namespace {

void BM_BinaryEncode(benchmark::State& state) {
  const size_t tuples = static_cast<size_t>(state.range(0));
  Rng rng(13 + tuples);
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("R", 3);
  Structure a = RandomStructure(vocab, 2 * tuples, tuples, rng);
  size_t encoded_size = 0;
  for (auto _ : state) {
    BinaryEncoded enc = BinaryEncode(a);
    encoded_size = enc.encoded.Size();
    benchmark::DoNotOptimize(enc);
  }
  state.counters["orig_size"] = static_cast<double>(a.Size());
  state.counters["enc_size"] = static_cast<double>(encoded_size);
}
BENCHMARK(BM_BinaryEncode)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_BinaryEncode_AritySweep(benchmark::State& state) {
  const uint32_t arity = static_cast<uint32_t>(state.range(0));
  Rng rng(17 + arity);
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("R", arity);
  Structure a = RandomStructure(vocab, 32, 32, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BinaryEncode(a));
  }
}
BENCHMARK(BM_BinaryEncode_AritySweep)
    ->Arg(2)->Arg(3)->Arg(4)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cqcs
