// The existential k-pebble game (Section 4.2 of the paper).
//
// The Duplicator wins the game on (A, B) iff there is a nonempty family of
// partial homomorphisms from A to B, with domains of size at most k, that is
// closed under restrictions and has the forth property up to k ([KV95]).
// This module computes the LARGEST such family by greatest-fixpoint
// deletion: start from all partial homomorphisms of size <= k, delete
//   (1) any f with |dom f| < k and some a ∉ dom f such that no extension
//       f ∪ {a -> b} survives (forth failure), and
//   (2) any f one of whose restrictions was deleted (restriction closure),
// until stable. The Duplicator wins iff the empty map survives. This is the
// bottom-up evaluation of the LFP sentence of Theorem 4.7, and runs in time
// polynomial in n^{2k} (Theorem 4.9).

#ifndef CQCS_PEBBLE_GAME_H_
#define CQCS_PEBBLE_GAME_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/structure.h"

namespace cqcs {

class ResourceGovernor;  // common/governor.h

/// Statistics from the fixpoint computation.
struct PebbleGameStats {
  size_t total_positions = 0;    ///< partial homomorphisms enumerated
  size_t deleted_positions = 0;  ///< positions found losing for Duplicator
};

/// A partial map as sorted (a, b) pairs.
using PebblePosition = std::vector<std::pair<Element, Element>>;

/// Solver for one pair (A, B) and pebble count k.
class ExistentialPebbleGame {
 public:
  /// Enumerates all partial homomorphisms of size <= k — Θ(C(n,k) · m^k)
  /// work — and runs the deletion fixpoint. Errors (InvalidArgument) on
  /// vocabulary mismatch or k = 0, matching the Result<> contract of the
  /// other backends so the engine can fall back instead of aborting.
  /// A non-null `governor` is polled on a stride through the enumeration
  /// and the fixpoint and charged for the position tables (released with
  /// the game); a trip returns its kResourceExhausted and no game.
  static Result<ExistentialPebbleGame> Create(
      const Structure& a, const Structure& b, uint32_t k,
      ResourceGovernor* governor = nullptr);

  /// True iff the Duplicator has a winning strategy.
  bool DuplicatorWins() const { return duplicator_wins_; }
  bool SpoilerWins() const { return !duplicator_wins_; }

  const PebbleGameStats& stats() const { return stats_; }

  /// Whether the position (a pebbling, as (a_i, b_i) pairs in any order) is
  /// winning for the Duplicator. Positions that are not partial
  /// homomorphisms (including conflicting repeated a_i) are losing.
  /// Precondition: at most k distinct a_i.
  bool DuplicatorWinsFrom(const PebblePosition& position) const;

 private:
  ExistentialPebbleGame(uint32_t k, ResourceGovernor* governor)
      : k_(k), charge_{governor} {}

  struct PositionHash {
    size_t operator()(const PebblePosition& p) const {
      size_t h = 0x9e3779b97f4a7c15ULL;
      for (auto [a, b] : p) {
        h = (h ^ a) * 0x100000001b3ULL;
        h = (h ^ b) * 0x100000001b3ULL;
      }
      return h;
    }
  };

  Status Build(const Structure& a, const Structure& b);

  /// Bytes charged to the governor for the position tables; released when
  /// the game that holds them dies. Move-only, so a charge moves with the
  /// game and is released once.
  struct Charge {
    ResourceGovernor* governor = nullptr;
    size_t bytes = 0;
    explicit Charge(ResourceGovernor* g) : governor(g) {}
    Charge(Charge&& other) noexcept
        : governor(other.governor), bytes(std::exchange(other.bytes, 0)) {}
    Charge& operator=(Charge&&) = delete;
    ~Charge();
  };

  uint32_t k_;
  Charge charge_;
  bool duplicator_wins_ = false;
  PebbleGameStats stats_;
  std::vector<PebblePosition> maps_;
  std::vector<uint8_t> alive_;
  std::unordered_map<PebblePosition, uint32_t, PositionHash> index_;
};

/// Theorem 4.9's uniform algorithm: when ¬CSP(B) is k-Datalog expressible,
/// "Spoiler wins" decides CSP exactly. Independently of expressibility,
/// Spoiler winning always certifies that no homomorphism exists
/// (soundness); Duplicator winning means "no k-pebble obstruction".
/// Errors as in ExistentialPebbleGame::Create.
Result<bool> SpoilerWinsExistentialKPebble(const Structure& a,
                                           const Structure& b, uint32_t k);

}  // namespace cqcs

#endif  // CQCS_PEBBLE_GAME_H_
