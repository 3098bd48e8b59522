// E4 (Lemma 3.5): Booleanization preserves homomorphism existence at a
// ⌈log |B|⌉ blow-up. Series: encoding time and measured blow-up factor as
// |B| grows. (The equivalence itself is checked by schaefer_uniform_test's
// BooleanizeTest.PreservesHomomorphismExistence.)

#include <benchmark/benchmark.h>

#include "gen/generators.h"
#include "schaefer/booleanize.h"

namespace cqcs {
namespace {

void BM_Booleanize(benchmark::State& state) {
  const size_t nb = static_cast<size_t>(state.range(0));
  Rng rng(7 * nb + 1);
  auto vocab = MakeGraphVocabulary();
  Structure a = RandomGraphStructure(vocab, 64, 0.1, rng, false);
  Structure b = RandomGraphStructure(vocab, nb, 0.3, rng, false);
  size_t encoded_size = 0;
  uint32_t bits = 0;
  for (auto _ : state) {
    auto boolean = Booleanize(a, b);
    encoded_size = boolean->a_b.Size() + boolean->b_b.Size();
    bits = boolean->bits;
    benchmark::DoNotOptimize(boolean);
  }
  double original = static_cast<double>(a.Size() + b.Size());
  state.counters["bits"] = bits;
  state.counters["blowup"] = static_cast<double>(encoded_size) / original;
}
BENCHMARK(BM_Booleanize)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cqcs
