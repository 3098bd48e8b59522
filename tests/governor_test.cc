// Resource-governance net: every backend must honor deadlines, memory
// budgets, cancellation, and injected faults by unwinding to a structured
// "unknown" — never an abort, never a torn or wrong answer — and a problem
// or engine that tripped must stay fully reusable afterwards.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "api/engine.h"
#include "common/governor.h"
#include "common/rng.h"
#include "common/saturating.h"
#include "core/homomorphism.h"
#include "core/io.h"
#include "cq/acyclic.h"
#include "cq/containment.h"
#include "cq/parser.h"
#include "datalog/parser.h"
#include "gen/generators.h"
#include "rel/hash_index.h"
#include "rel/ops.h"
#include "rel/table.h"
#include "solver/backtracking.h"

namespace cqcs {
namespace {

HomProblem MustProblem(Result<HomProblem> r) {
  CQCS_CHECK_MSG(r.ok(), r.status().ToString());
  return *std::move(r);
}

EngineResult MustRun(const HomEngine& engine, const HomProblem& p,
                     HomTask task) {
  auto r = engine.Run(p, task);
  CQCS_CHECK_MSG(r.ok(), r.status().ToString());
  return *std::move(r);
}

bool OracleDecide(const Structure& a, const Structure& b) {
  BacktrackingSolver solver(a, b);
  return solver.Solve().has_value();
}

// ---- Governor unit behavior. ----------------------------------------------

TEST(GovernorTest, UngovernedPollsAlwaysOk) {
  ResourceGovernor g;  // no deadline, no budget
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(g.Poll().ok());
  EXPECT_FALSE(g.tripped());
  EXPECT_EQ(g.trip_cause(), TripCause::kNone);
  EXPECT_EQ(g.checks(), 100u);
}

TEST(GovernorTest, MemoryCeilingTripsOnNextPoll) {
  ResourceGovernor g(0, 1000);
  g.ChargeBytes(600);
  EXPECT_TRUE(g.Poll().ok());  // within budget
  g.ChargeBytes(600);          // 1200 > 1000: marks the trip
  Status s = g.Poll();
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_EQ(g.trip_cause(), TripCause::kMemory);
  EXPECT_EQ(g.peak_bytes(), 1200u);
  // Release does not un-trip: the budget was exceeded, sticky by design.
  g.ReleaseBytes(1200);
  EXPECT_FALSE(g.Poll().ok());
  EXPECT_EQ(g.bytes_in_use(), 0u);
}

TEST(GovernorTest, FirstCauseWins) {
  ResourceGovernor g(0, 10);
  g.ChargeBytes(100);
  EXPECT_FALSE(g.Poll().ok());
  EXPECT_EQ(g.trip_cause(), TripCause::kMemory);
  g.Cancel();  // later cause must not overwrite the first
  EXPECT_EQ(g.trip_cause(), TripCause::kMemory);
}

TEST(GovernorTest, ExternalCancelObservedAtPoll) {
  std::atomic<bool> cancel{false};
  ResourceGovernor g;
  g.set_external_cancel(&cancel);
  EXPECT_TRUE(g.Poll().ok());
  cancel.store(true);
  EXPECT_EQ(g.Poll().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(g.trip_cause(), TripCause::kCancelled);
}

TEST(GovernorTest, FailpointTripsAtNthCheck) {
  ResourceGovernor g;
  GovernorFailpoints fp;
  fp.trip_after_checks = 3;
  g.set_failpoints(fp);
  EXPECT_TRUE(g.Poll().ok());
  EXPECT_TRUE(g.Poll().ok());
  EXPECT_FALSE(g.Poll().ok());
  EXPECT_EQ(g.trip_cause(), TripCause::kFailpoint);
}

TEST(GovernorTest, AdmitBytesDoesNotTrip) {
  ResourceGovernor g(0, 1000);
  g.ChargeBytes(800);
  EXPECT_TRUE(g.AdmitBytes(100));
  EXPECT_FALSE(g.AdmitBytes(500));
  EXPECT_FALSE(g.tripped());  // admission is advisory, not a trip
  ResourceGovernor unlimited;
  EXPECT_TRUE(unlimited.AdmitBytes(SIZE_MAX));
}

// ---- Charged-bytes conservation in the governed rel/ kernel. --------------
//
// rel::Table and rel::HashIndex report capacity deltas to the governor and
// hand their charge over on move (the moved-from object must neither
// double-release nor keep a phantom charge). The audit property: after ANY
// interleaving of appends, reserves, copies, moves, clears, KeepRows, and
// destructions, bytes_in_use() equals the sum of the live objects' charges
// — and hits exactly zero when the last governed object dies.

TEST(GovernorChargeTest, TableMoveTransfersChargeExactlyOnce) {
  ResourceGovernor g;
  {
    rel::Table a(2);
    a.AttachGovernor(&g);
    for (Element v = 0; v < 100; ++v) {
      const Element row[2] = {v, v};
      a.AppendRow(row);
    }
    const size_t charged = g.bytes_in_use();
    ASSERT_GT(charged, 0u);
    // Move-construct: the charge follows the buffer; destroying the
    // moved-from shell must not release (or re-release) anything.
    rel::Table b(std::move(a));
    EXPECT_EQ(g.bytes_in_use(), charged);
    { rel::Table graveyard(std::move(a)); }  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(g.bytes_in_use(), charged);
    // Move-assign over a charged table: the target's old charge is
    // released, the source's transfers — never summed, never dropped.
    rel::Table c(2);
    c.AttachGovernor(&g);
    const Element row[2] = {1, 2};
    for (int i = 0; i < 50; ++i) c.AppendRow(row);
    c = std::move(b);
    EXPECT_EQ(g.bytes_in_use(), charged);
  }
  EXPECT_EQ(g.bytes_in_use(), 0u);
}

TEST(GovernorChargeTest, TableCopyChargesTheCopyIndependently) {
  ResourceGovernor g;
  {
    rel::Table a(3);
    a.AttachGovernor(&g);
    const Element row[3] = {1, 2, 3};
    for (int i = 0; i < 64; ++i) a.AppendRow(row);
    const size_t one = g.bytes_in_use();
    rel::Table b(a);
    // The copy charges its own buffer (at least the 64*3 cells of data,
    // whatever slack the original's capacity carried).
    EXPECT_GE(g.bytes_in_use(), one + 64 * 3 * sizeof(Element));
    b = a;  // re-assign releases the old charge then re-charges, no leak
    const size_t both = g.bytes_in_use();
    {
      rel::Table c(a);
      EXPECT_GT(g.bytes_in_use(), both);
    }
    EXPECT_EQ(g.bytes_in_use(), both);  // c fully released on destruction
  }
  EXPECT_EQ(g.bytes_in_use(), 0u);
}

TEST(GovernorChargeTest, KeepRowsAndClearNeverLeakCharge) {
  ResourceGovernor g;
  {
    rel::Table t(2);
    t.AttachGovernor(&g);
    const Element row[2] = {7, 7};
    for (int i = 0; i < 200; ++i) t.AppendRow(row);
    // KeepRows compacts in place (capacity, and thus the charge, may stay);
    // the invariant is only that destruction returns to zero, checked at
    // scope exit, and that the charge never exceeds the peak.
    const size_t peak = g.bytes_in_use();
    const uint32_t keep_ids[] = {0, 5, 9};
    t.KeepRows(keep_ids);
    EXPECT_LE(g.bytes_in_use(), peak);
    t.Clear();
    EXPECT_LE(g.bytes_in_use(), peak);
    t.AttachGovernor(nullptr);  // detach releases everything still charged
    EXPECT_EQ(g.bytes_in_use(), 0u);
    const Element row2[2] = {1, 1};
    t.AppendRow(row2);  // detached: no governor, no charge
    EXPECT_EQ(g.bytes_in_use(), 0u);
  }
  EXPECT_EQ(g.bytes_in_use(), 0u);
}

TEST(GovernorChargeTest, HashIndexMovesAndCopiesConserveCharge) {
  ResourceGovernor g;
  {
    rel::Table t(2);
    for (Element v = 0; v < 128; ++v) {
      const Element r[2] = {v, v % 7};
      t.AppendRow(r);
    }
    rel::HashIndex idx;
    idx.AttachGovernor(&g);
    idx.Build(t.data(), 2, static_cast<uint32_t>(t.row_count()), {1});
    const size_t charged = g.bytes_in_use();
    ASSERT_GT(charged, 0u);
    rel::HashIndex moved(std::move(idx));
    EXPECT_EQ(g.bytes_in_use(), charged);
    rel::HashIndex copy(moved);
    EXPECT_GT(g.bytes_in_use(), charged);
    copy = std::move(moved);  // release copy's charge, adopt moved's
    EXPECT_EQ(g.bytes_in_use(), charged);
    // Key {1} takes seven values, so its slots are addressed directly: a
    // smaller charge than the hashed layout the two-column key needs.
    // Rebuilding switches layout both ways on the charge of one object.
    rel::HashIndex hashed;
    hashed.AttachGovernor(&g);
    hashed.Build(t.data(), 2, static_cast<uint32_t>(t.row_count()), {0, 1});
    EXPECT_LT(charged, g.bytes_in_use() - charged);
    copy.Build(t.data(), 2, static_cast<uint32_t>(t.row_count()), {0, 1});
    hashed.Build(t.data(), 2, static_cast<uint32_t>(t.row_count()), {1});
  }
  EXPECT_EQ(g.bytes_in_use(), 0u);
}

TEST(GovernorChargeTest, ViewsChargeNothingAndCopyOnWriteChargesItsBuffer) {
  ResourceGovernor g;
  const std::vector<Element> storage = {0, 1, 1, 2, 2, 3, 3, 0};
  const std::vector<Element> before = storage;
  {
    rel::Table view = rel::Table::View(storage.data(), 2, 4);
    view.AttachGovernor(&g);
    EXPECT_TRUE(view.borrowed());
    EXPECT_EQ(view.data(), storage.data());
    EXPECT_EQ(g.bytes_in_use(), 0u);
    // Copies and moves of a view are views of the same storage.
    rel::Table copy(view);
    EXPECT_TRUE(copy.borrowed());
    rel::Table moved(std::move(view));
    EXPECT_TRUE(moved.borrowed());
    EXPECT_EQ(g.bytes_in_use(), 0u);
    // Copy-on-write: the kept rows move into a charged buffer of their
    // own, and the borrowed storage is not written.
    const uint32_t keep[] = {1, 3};
    copy.KeepRows(keep);
    EXPECT_FALSE(copy.borrowed());
    ASSERT_EQ(copy.row_count(), 2u);
    EXPECT_EQ(copy.row(0)[0], 1u);
    EXPECT_EQ(copy.row(1)[1], 0u);
    EXPECT_GE(g.bytes_in_use(), 2 * 2 * sizeof(Element));
    EXPECT_EQ(storage, before);
    EXPECT_TRUE(moved.borrowed());
    moved.Clear();
    EXPECT_FALSE(moved.borrowed());
    EXPECT_TRUE(moved.empty());
  }
  EXPECT_EQ(g.bytes_in_use(), 0u);
  // A view of no rows is an empty owned table.
  EXPECT_FALSE(rel::Table::View(storage.data(), 2, 0).borrowed());
}

TEST(GovernorChargeTest, KeyArraysChargeTheirCapacity) {
  // The count fold's per-value sums and the semijoin's presence bitset
  // are charged like a table's buffer: by capacity, kept across Assign,
  // moved by AttachGovernor, released on destruction.
  ResourceGovernor g;
  {
    rel::ValueArray<size_t> sums;
    sums.AttachGovernor(&g);
    EXPECT_EQ(g.bytes_in_use(), 0u);
    sums.Assign(100);
    EXPECT_GE(g.bytes_in_use(), 100 * sizeof(size_t));
    const size_t charged = g.bytes_in_use();
    sums.Assign(10);  // the capacity stays
    EXPECT_EQ(g.bytes_in_use(), charged);
    sums.AttachGovernor(nullptr);
    EXPECT_EQ(g.bytes_in_use(), 0u);
    sums.AttachGovernor(&g);
    EXPECT_EQ(g.bytes_in_use(), charged);
  }
  EXPECT_EQ(g.bytes_in_use(), 0u);

  ResourceGovernor h;
  {
    rel::SemijoinScratch scratch(&h);
    rel::Table right(1), left(1);
    for (Element v = 0; v < 600; ++v) {
      right.AppendRow({&v, 1});
      left.AppendRow({&v, 1});
    }
    const uint32_t col[] = {0};
    EXPECT_EQ(scratch.Run(left, col, right, col), 0u);
    EXPECT_GT(h.bytes_in_use(), 0u);  // the bitset is held for reuse
  }
  EXPECT_EQ(h.bytes_in_use(), 0u);
  EXPECT_GE(h.peak_bytes(), 600 / 8);
}

TEST(GovernorChargeTest, ProgramRunsOverViewsSettleAtZero) {
  // Every task over an indexed database, whose atoms are views: a
  // semijoin that drops rows charges its copy, and each run settles at 0.
  Rng rng(0x71e3);
  auto vocab = MakeGraphVocabulary();
  Structure a = StructureFromGraph(vocab, RandomTree(6, rng));
  Structure b = RandomGraphStructure(vocab, 40, 0.08, rng,
                                     /*symmetric=*/false);
  b.relation(0).EnsureIndex();
  ASSERT_TRUE(b.relation(0).duplicate_free().value_or(false));
  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
  const ConjunctiveQuery& q = p.SourceCanonicalQuery();
  const std::vector<VarId> proj = {0};
  const std::vector<Element> before = b.relation(0).data();
  ResourceGovernor g(/*deadline_ms=*/60'000, /*memory=*/256u << 20);
  ASSERT_TRUE(EvaluateBooleanAcyclic(q, b, nullptr, &g).ok());
  EXPECT_EQ(g.bytes_in_use(), 0u);
  ASSERT_TRUE(AcyclicWitness(q, b, nullptr, &g).ok());
  EXPECT_EQ(g.bytes_in_use(), 0u);
  ASSERT_TRUE(AcyclicCount(q, b, SIZE_MAX, nullptr, &g).ok());
  EXPECT_EQ(g.bytes_in_use(), 0u);
  YannakakisStats stats;
  ASSERT_TRUE(AcyclicProject(q, b, proj, SIZE_MAX, &stats, &g).ok());
  EXPECT_EQ(g.bytes_in_use(), 0u);
  EXPECT_GT(stats.rows_pruned, 0u);  // some view was copied on write
  EXPECT_EQ(b.relation(0).data(), before);
  EXPECT_FALSE(g.tripped());
}

TEST(GovernorChargeTest, RandomizedLifecycleConservesToZero) {
  // Randomized interleaving over a pool of governed tables and indexes;
  // the governor's byte account must (a) never underflow (an underflow
  // wraps size_t and shows up as an absurdly large balance) and (b) settle
  // at exactly zero once the pool is destroyed.
  Rng rng(0xacc7);
  ResourceGovernor g;
  {
    std::vector<rel::Table> tables;
    std::vector<rel::HashIndex> indexes;
    for (int step = 0; step < 600; ++step) {
      const uint32_t action = rng.Below(8);
      switch (action) {
        case 0: {  // new governed table
          rel::Table t(2);
          t.AttachGovernor(&g);
          tables.push_back(std::move(t));
          break;
        }
        case 1: {  // append rows
          if (tables.empty()) break;
          rel::Table& t = tables[rng.Below(
              static_cast<uint32_t>(tables.size()))];
          for (int i = 0; i < 16; ++i) {
            const Element row[2] = {static_cast<Element>(rng.Below(100)),
                                    static_cast<Element>(rng.Below(100))};
            t.AppendRow(row);
          }
          break;
        }
        case 2: {  // reserve
          if (tables.empty()) break;
          tables[rng.Below(static_cast<uint32_t>(tables.size()))].Reserve(
              rng.Below(256));
          break;
        }
        case 3: {  // copy-assign
          if (tables.size() < 2) break;
          const uint32_t n = static_cast<uint32_t>(tables.size());
          tables[rng.Below(n)] = tables[rng.Below(n)];
          break;
        }
        case 4: {  // move-assign (possibly self — guarded by the kernel)
          if (tables.size() < 2) break;
          const uint32_t n = static_cast<uint32_t>(tables.size());
          tables[rng.Below(n)] = std::move(tables[rng.Below(n)]);
          break;
        }
        case 5: {  // destroy one
          if (tables.empty()) break;
          tables.erase(tables.begin() +
                       rng.Below(static_cast<uint32_t>(tables.size())));
          break;
        }
        case 6: {  // KeepRows / Clear
          if (tables.empty()) break;
          rel::Table& t = tables[rng.Below(
              static_cast<uint32_t>(tables.size()))];
          if (t.row_count() > 2 && rng.Chance(0.5)) {
            const uint32_t keep[] = {0, 1};
            t.KeepRows(keep);
          } else {
            t.Clear();
          }
          break;
        }
        case 7: {  // build a governed index over a random table
          if (tables.empty()) break;
          const rel::Table& t = tables[rng.Below(
              static_cast<uint32_t>(tables.size()))];
          if (t.row_count() == 0) break;
          rel::HashIndex idx;
          idx.AttachGovernor(&g);
          idx.Build(t.data(), t.width(),
                    static_cast<uint32_t>(t.row_count()), {0});
          if (indexes.size() > 4) {
            indexes[rng.Below(static_cast<uint32_t>(indexes.size()))] =
                std::move(idx);
          } else {
            indexes.push_back(std::move(idx));
          }
          break;
        }
      }
      // Underflow guard: a bad release would wrap to ~SIZE_MAX.
      ASSERT_LT(g.bytes_in_use(), size_t{1} << 40) << "step " << step;
    }
  }
  EXPECT_EQ(g.bytes_in_use(), 0u);
  EXPECT_FALSE(g.tripped());
}

// ---- Saturating arithmetic boundaries. ------------------------------------

TEST(SaturatingTest, AddBoundaries) {
  EXPECT_EQ(SatAdd(2, 3, 100), 5u);
  EXPECT_EQ(SatAdd(60, 60, 100), 100u);
  EXPECT_EQ(SatAdd(100, 0, 100), 100u);
  EXPECT_EQ(SatAdd(SIZE_MAX, SIZE_MAX, SIZE_MAX), SIZE_MAX);
  EXPECT_EQ(SatAdd(SIZE_MAX - 1, 1, SIZE_MAX), SIZE_MAX);
  EXPECT_EQ(SatAdd(0, 0, SIZE_MAX), 0u);
}

TEST(SaturatingTest, MulBoundaries) {
  EXPECT_EQ(SatMul(6, 7, 100), 42u);
  EXPECT_EQ(SatMul(20, 20, 100), 100u);
  EXPECT_EQ(SatMul(SIZE_MAX, 0, 100), 0u);  // 0 annihilates even saturated
  EXPECT_EQ(SatMul(0, SIZE_MAX, 100), 0u);
  EXPECT_EQ(SatMul(SIZE_MAX, 2, SIZE_MAX), SIZE_MAX);
  EXPECT_EQ(SatMul(1, SIZE_MAX, SIZE_MAX), SIZE_MAX);
}

TEST(SaturatingTest, PowBoundaries) {
  EXPECT_EQ(SatPow(10, 0, 100), 1u);  // empty product, even at the limit
  EXPECT_EQ(SatPow(0, 0, 100), 1u);
  EXPECT_EQ(SatPow(0, 5, 100), 0u);
  EXPECT_EQ(SatPow(2, 6, 100), 64u);
  EXPECT_EQ(SatPow(2, 7, 100), 100u);
  EXPECT_EQ(SatPow(2, 64, SIZE_MAX), SIZE_MAX);
}

// ---- Fault injection: every backend x task unwinds cleanly. ---------------

struct BackendCase {
  Backend backend;
  std::vector<HomTask> tasks;
};

void ExpectCleanTrip(const EngineResult& r, HomTask task) {
  EXPECT_TRUE(r.stats.governor.enabled);
  EXPECT_TRUE(r.stats.governor.tripped) << r.explain.ToJson();
  EXPECT_EQ(r.stats.governor.cause, TripCause::kFailpoint);
  EXPECT_FALSE(r.decided);
  EXPECT_FALSE(r.witness.has_value());
  if (task == HomTask::kEnumerate || task == HomTask::kProject) {
    // A poly-backend trip discards partial rows (the uniform search keeps
    // its verified prefix, marked incomplete via limit_hit — not covered
    // by this helper, see UniformTripKeepsVerifiedPrefix).
    EXPECT_TRUE(r.rows.empty());
  }
}

TEST(GovernorEngineTest, EveryBackendTripsCleanlyAndStaysReusable) {
  Rng rng(7001);
  auto graph_vocab = MakeGraphVocabulary();
  // One instance per backend, shaped so the explicit backend accepts it.
  Structure acyclic_a = PathStructure(graph_vocab, 8);
  Structure cyclic_a = UndirectedCycleStructure(graph_vocab, 7);
  Structure graph_b = RandomGraphStructure(graph_vocab, 4, 0.6, rng, true);

  auto bool_vocab = std::make_shared<Vocabulary>();
  bool_vocab->AddRelation("R", 3);
  Structure horn_b =
      RandomClosedBooleanStructure(bool_vocab, 3, ClosureOp::kAnd, 4, rng);
  Structure bool_a = RandomStructure(bool_vocab, 8, 12, rng);

  const std::vector<BackendCase> cases = {
      {Backend::kAcyclic,
       {HomTask::kDecide, HomTask::kWitness, HomTask::kCount,
        HomTask::kEnumerate, HomTask::kProject}},
      {Backend::kTreewidth,
       {HomTask::kDecide, HomTask::kWitness, HomTask::kCount,
        HomTask::kEnumerate, HomTask::kProject}},
      {Backend::kSchaefer, {HomTask::kDecide, HomTask::kWitness}},
      {Backend::kUniform,
       {HomTask::kDecide, HomTask::kWitness, HomTask::kCount,
        HomTask::kEnumerate, HomTask::kProject}},
  };

  for (const BackendCase& c : cases) {
    const Structure& a =
        c.backend == Backend::kSchaefer
            ? bool_a
            : (c.backend == Backend::kTreewidth ? cyclic_a : acyclic_a);
    const Structure& b = c.backend == Backend::kSchaefer ? horn_b : graph_b;
    HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
    ASSERT_TRUE(p.SetProjection({0}).ok());

    for (HomTask task : c.tasks) {
      SCOPED_TRACE(testing::Message() << BackendName(c.backend) << "/"
                                      << HomTaskName(task));
      EngineOptions tripping;
      tripping.backend = c.backend;
      tripping.failpoints.trip_after_checks = 1;
      HomEngine governed(tripping);
      EngineResult r = MustRun(governed, p, task);
      if (c.backend == Backend::kUniform) {
        // The search reports its trip via the node-limit contract.
        EXPECT_TRUE(r.stats.governor.tripped);
        EXPECT_TRUE(r.stats.search.limit_hit);
        EXPECT_FALSE(r.decided);
      } else {
        ExpectCleanTrip(r, task);
        // The trip is on the record: the fallback log names the exhaustion.
        bool mentioned = false;
        for (const auto& f : r.explain.fallbacks) {
          if (f.find("exhausted") != std::string::npos) mentioned = true;
        }
        EXPECT_TRUE(mentioned) << r.explain.ToJson();
      }

      // Reuse: the identical problem and an ungoverned engine agree with
      // the oracle — the trip left no torn cache behind.
      EngineOptions clean;
      clean.backend = c.backend;
      HomEngine fresh(clean);
      EngineResult ok = MustRun(fresh, p, task);
      EXPECT_FALSE(ok.stats.governor.enabled);
      if (task == HomTask::kDecide || task == HomTask::kWitness) {
        EXPECT_EQ(ok.decided, OracleDecide(a, b));
      }
    }
  }
}

TEST(GovernorEngineTest, ParallelMorselTripBehavesLikeSequential) {
  // A failpoint firing while several morsel workers are in flight must
  // honor the same clean-trip contract as the sequential path: the cancel
  // flag propagates through the MorselPool, in-flight morsels finish,
  // partially built bag tables are discarded (no torn tables surface in
  // the result), and the identical problem immediately answers correctly
  // afterwards. The treewidth cases dispatch: a 48-cycle decomposes into
  // dozens of bags, several 8-bag morsels. The acyclic cases run on the
  // calling thread at any thread count and check that path at 4 threads.
  Rng rng(7010);
  auto vocab = MakeGraphVocabulary();
  Structure acyclic_a = PathStructure(vocab, 10);
  Structure cyclic_a = UndirectedCycleStructure(vocab, 48);
  Structure b = RandomGraphStructure(vocab, 5, 0.6, rng, true);

  struct Case {
    Backend backend;
    HomTask task;
    const Structure* a;
  };
  const std::vector<Case> cases = {
      {Backend::kAcyclic, HomTask::kCount, &acyclic_a},
      {Backend::kAcyclic, HomTask::kEnumerate, &acyclic_a},
      {Backend::kAcyclic, HomTask::kProject, &acyclic_a},
      {Backend::kTreewidth, HomTask::kDecide, &cyclic_a},
      {Backend::kTreewidth, HomTask::kCount, &cyclic_a},
      {Backend::kTreewidth, HomTask::kProject, &cyclic_a},
  };
  for (const Case& c : cases) {
    HomProblem p = MustProblem(HomProblem::FromStructures(*c.a, b));
    ASSERT_TRUE(p.SetProjection({0}).ok());

    // Ungoverned parallel baseline (already thread-invariant per the poly
    // oracle); the post-trip reuse check compares against it.
    EngineOptions clean;
    clean.backend = c.backend;
    clean.solve.num_threads = 4;
    EngineResult baseline = MustRun(HomEngine(clean), p, c.task);
    if (c.backend == Backend::kTreewidth) {
      // Bags per morsel are fixed, so this holds on any schedule.
      ASSERT_GE(baseline.stats.treewidth.morsels, 2u);
    }

    // Sweep the failpoint through the run so it lands in different
    // phases — including mid-morsel of the parallel passes.
    for (uint64_t after : {uint64_t{1}, uint64_t{3}, uint64_t{17},
                           uint64_t{200}}) {
      SCOPED_TRACE(testing::Message()
                   << BackendName(c.backend) << "/" << HomTaskName(c.task)
                   << " trip_after_checks=" << after);
      EngineOptions tripping = clean;
      tripping.failpoints.trip_after_checks = after;
      EngineResult r = MustRun(HomEngine(tripping), p, c.task);
      if (r.stats.governor.tripped) {
        ExpectCleanTrip(r, c.task);
      } else {
        // Failpoint beyond the run's poll count: the governed run must
        // then agree with the ungoverned baseline exactly.
        EXPECT_EQ(r.decided, baseline.decided);
        EXPECT_EQ(r.count, baseline.count);
        EXPECT_EQ(r.rows, baseline.rows);
      }
      // Reuse after the trip: no torn state behind the compiled problem.
      EngineResult again = MustRun(HomEngine(clean), p, c.task);
      EXPECT_EQ(again.decided, baseline.decided);
      EXPECT_EQ(again.count, baseline.count);
      EXPECT_EQ(again.rows, baseline.rows);
    }
  }
}

TEST(GovernorEngineTest, ChargeFailpointTripsTheTablePaths) {
  // trip_after_charges=1 fires on the first table/index growth, exercising
  // the memory-accounting trip path rather than the poll path.
  Rng rng(7002);
  auto vocab = MakeGraphVocabulary();
  Structure a = PathStructure(vocab, 8);
  Structure b = RandomGraphStructure(vocab, 4, 0.6, rng, true);
  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));

  for (Backend backend : {Backend::kAcyclic, Backend::kTreewidth}) {
    SCOPED_TRACE(BackendName(backend));
    EngineOptions options;
    options.backend = backend;
    options.failpoints.trip_after_charges = 1;
    HomEngine engine(options);
    EngineResult r = MustRun(engine, p, HomTask::kDecide);
    EXPECT_TRUE(r.stats.governor.tripped) << r.explain.ToJson();
    EXPECT_EQ(r.stats.governor.cause, TripCause::kFailpoint);
    EXPECT_FALSE(r.decided);
  }
}

TEST(GovernorEngineTest, CompiledArtifactsKeepPointerIdentityAcrossTrips) {
  Rng rng(7003);
  auto vocab = MakeGraphVocabulary();
  Structure a = UndirectedCycleStructure(vocab, 7);
  Structure b = RandomGraphStructure(vocab, 4, 0.6, rng, true);
  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));

  // Compile the source artifacts once, ungoverned.
  const ConjunctiveQuery* q_before = &p.SourceCanonicalQuery();
  const TreeDecomposition* dec_before = &p.SourceDecomposition();

  EngineOptions options;
  options.backend = Backend::kTreewidth;
  options.failpoints.trip_after_checks = 2;
  HomEngine engine(options);
  EngineResult r = MustRun(engine, p, HomTask::kDecide);
  EXPECT_TRUE(r.stats.governor.tripped);

  // The cached artifacts survived the trip at the same addresses: the
  // governed run reused them instead of rebuilding (and the trip did not
  // evict them).
  EXPECT_EQ(q_before, &p.SourceCanonicalQuery());
  EXPECT_EQ(dec_before, &p.SourceDecomposition());

  HomEngine clean;
  EngineResult ok = MustRun(clean, p, HomTask::kDecide);
  EXPECT_EQ(ok.decided, OracleDecide(a, b));
}

TEST(GovernorEngineTest, TrippedDecompositionBuildCachesNothing) {
  Rng rng(7004);
  auto vocab = MakeGraphVocabulary();
  Structure a = UndirectedCycleStructure(vocab, 9);
  Structure b = RandomGraphStructure(vocab, 4, 0.6, rng, true);
  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));

  ResourceGovernor tripping;
  GovernorFailpoints fp;
  fp.trip_after_checks = 1;
  tripping.set_failpoints(fp);
  Status s = p.EnsureSourceDecomposition(&tripping);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();

  // The next (unconstrained) build completes and is correct.
  ResourceGovernor roomy;
  ASSERT_TRUE(p.EnsureSourceDecomposition(&roomy).ok());
  EXPECT_TRUE(p.SourceDecomposition().ValidateFor(a).ok());
}

TEST(GovernorEngineTest, AutoRoutingDecompositionIsGoverned) {
  // kAuto on a cyclic source with a non-Boolean target reaches stage 3,
  // whose min-fill build must poll the run's governor: the first poll
  // trips, and the run unwinds to the standard tripped result before any
  // backend starts.
  Rng rng(7011);
  auto vocab = MakeGraphVocabulary();
  Structure a = UndirectedCycleStructure(vocab, 9);
  Structure b = RandomGraphStructure(vocab, 4, 0.6, rng, true);
  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));

  EngineOptions tripping;  // kAuto
  tripping.failpoints.trip_after_checks = 1;
  EngineResult r = MustRun(HomEngine(tripping), p, HomTask::kDecide);
  ExpectCleanTrip(r, HomTask::kDecide);
  EXPECT_FALSE(r.explain.profile.width_known) << r.explain.ToJson();
  EXPECT_FALSE(r.stats.used_treewidth);
  EXPECT_FALSE(r.stats.used_search);
  bool mentioned = false;
  for (const auto& f : r.explain.fallbacks) {
    if (f.find("exhausted") != std::string::npos) mentioned = true;
  }
  EXPECT_TRUE(mentioned) << r.explain.ToJson();

  // The trip cached no decomposition: an ungoverned re-run builds it,
  // routes on it, and matches the oracle.
  EngineResult ok = MustRun(HomEngine(), p, HomTask::kDecide);
  EXPECT_FALSE(ok.stats.governor.enabled);
  EXPECT_TRUE(ok.explain.profile.width_known);
  EXPECT_EQ(ok.decided, OracleDecide(a, b));
  EXPECT_TRUE(p.SourceDecomposition().ValidateFor(a).ok());
}

// ---- Deadlines and budgets end to end. ------------------------------------

TEST(GovernorEngineTest, DeadlineStopsAnUnfinishableCount) {
  // Counting hom(P20 -> K5) enumerates ~5 * 4^19 solutions: unfinishable.
  // A governed run must come back promptly with limit_hit, not hang.
  auto vocab = MakeGraphVocabulary();
  Structure a = PathStructure(vocab, 20);
  Structure b = CliqueStructure(vocab, 5);
  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));

  EngineOptions options;
  options.backend = Backend::kUniform;
  options.deadline_ms = 50;
  HomEngine engine(options);
  EngineResult r = MustRun(engine, p, HomTask::kCount);
  EXPECT_TRUE(r.stats.governor.tripped);
  EXPECT_EQ(r.stats.governor.cause, TripCause::kDeadline);
  EXPECT_TRUE(r.stats.search.limit_hit);
  // Overshoot is bounded by the poll stride: generous slack for CI noise,
  // but far below the hours the full count would take.
  EXPECT_LT(r.stats.governor.elapsed_ms, 5000u);

  auto count = engine.Count(p);
  EXPECT_EQ(count.status().code(), StatusCode::kResourceExhausted);
}

TEST(GovernorEngineTest, ParallelDeadlineOvershootBounded) {
  // Same guarantee with work-stealing workers: the shared trip flag stops
  // every worker within its poll stride.
  auto vocab = MakeGraphVocabulary();
  Structure a = PathStructure(vocab, 20);
  Structure b = CliqueStructure(vocab, 5);
  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));

  EngineOptions options;
  options.backend = Backend::kUniform;
  options.solve.num_threads = 4;
  options.deadline_ms = 50;
  HomEngine engine(options);
  EngineResult r = MustRun(engine, p, HomTask::kCount);
  EXPECT_TRUE(r.stats.governor.tripped);
  EXPECT_TRUE(r.stats.search.limit_hit);
  EXPECT_LT(r.stats.governor.elapsed_ms, 5000u);
}

TEST(GovernorEngineTest, MemoryBudgetTripsExplicitAcyclicEnumerate) {
  Rng rng(7005);
  auto vocab = MakeGraphVocabulary();
  Structure a = PathStructure(vocab, 12);
  Structure b = CliqueStructure(vocab, 6);
  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));

  EngineOptions options;
  options.backend = Backend::kAcyclic;  // explicit: no admission demotion
  options.memory_budget_bytes = 512;    // far below the atom tables
  HomEngine engine(options);
  EngineResult r = MustRun(engine, p, HomTask::kEnumerate);
  EXPECT_TRUE(r.stats.governor.tripped) << r.explain.ToJson();
  EXPECT_EQ(r.stats.governor.cause, TripCause::kMemory);
  EXPECT_TRUE(r.rows.empty());
  EXPECT_GT(r.stats.governor.peak_bytes, 512u);

  // Same problem, real budget: completes and the row count is the truth.
  EngineOptions roomy;
  roomy.backend = Backend::kAcyclic;
  roomy.memory_budget_bytes = 64u << 20;
  HomEngine ok_engine(roomy);
  EngineResult ok = MustRun(ok_engine, p, HomTask::kCount);
  EXPECT_FALSE(ok.stats.governor.tripped);
  EXPECT_EQ(ok.count, 6u * 5u * 5u * 5u * 5u * 5u * 5u * 5u * 5u * 5u * 5u *
                          5u);  // 6 * 5^11 homs P12 -> K6
}

TEST(GovernorEngineTest, AutoAdmissionDemotesToSearchBeforeBuilding) {
  Rng rng(7006);
  auto vocab = MakeGraphVocabulary();
  Structure a = PathStructure(vocab, 10);
  Structure b = RandomGraphStructure(vocab, 8, 0.5, rng, true);
  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));

  EngineOptions options;  // kAuto
  options.memory_budget_bytes = 256;  // admits nothing the DP would build
  HomEngine engine(options);
  EngineResult r = MustRun(engine, p, HomTask::kDecide);
  EXPECT_EQ(r.explain.chosen, Backend::kUniform) << r.explain.ToJson();
  bool admission_note = false;
  for (const auto& f : r.explain.fallbacks) {
    if (f.find("admission refused") != std::string::npos) {
      admission_note = true;
    }
  }
  EXPECT_TRUE(admission_note) << r.explain.ToJson();
  // The search streams: it decides correctly inside the same tiny budget.
  EXPECT_EQ(r.decided, OracleDecide(a, b));
  EXPECT_FALSE(r.stats.governor.tripped);
}

TEST(GovernorEngineTest, PreCancelledRunReturnsImmediately) {
  Rng rng(7007);
  auto vocab = MakeGraphVocabulary();
  Structure a = PathStructure(vocab, 8);
  Structure b = RandomGraphStructure(vocab, 4, 0.6, rng, true);
  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));

  std::atomic<bool> cancel{true};
  EngineOptions options;
  options.backend = Backend::kAcyclic;
  options.cancel = &cancel;
  HomEngine engine(options);
  EngineResult r = MustRun(engine, p, HomTask::kDecide);
  EXPECT_TRUE(r.stats.governor.tripped);
  EXPECT_EQ(r.stats.governor.cause, TripCause::kCancelled);
  EXPECT_FALSE(r.decided);
}

TEST(GovernorEngineTest, GovernedRunThatFitsBudgetMatchesUngoverned) {
  // A budget generous enough to never trip must not change any answer.
  Rng rng(7008);
  auto vocab = MakeGraphVocabulary();
  for (int trial = 0; trial < 8; ++trial) {
    Structure a = StructureFromGraph(vocab, RandomTree(6 + rng.Below(5), rng));
    Structure b = RandomGraphStructure(vocab, 3 + rng.Below(3), 0.5, rng, true);
    HomProblem p = MustProblem(HomProblem::FromStructures(a, b));

    EngineOptions governed;
    governed.deadline_ms = 60'000;
    governed.memory_budget_bytes = 256u << 20;
    HomEngine engine(governed);
    EngineResult r = MustRun(engine, p, HomTask::kWitness);
    EXPECT_TRUE(r.stats.governor.enabled);
    EXPECT_FALSE(r.stats.governor.tripped) << r.explain.ToJson();
    EXPECT_EQ(r.decided, OracleDecide(a, b)) << "trial " << trial;
    if (r.decided) {
      ASSERT_TRUE(r.witness.has_value());
      EXPECT_TRUE(IsHomomorphism(a, b, *r.witness));
    }
    EXPECT_NE(r.stats.ToJson().find("\"governor\":{"), std::string::npos);
  }
}

// The acyclic count and project runs on a churn-shaped instance (a tree
// query into G(64, deg 6)), with a trip injected at every poll and at every
// charge in turn. Each trip must surface as kResourceExhausted with no
// count or rows, every charged byte must be released, and the next
// ungoverned run must still give the ungoverned answer.
TEST(GovernorEngineTest, AcyclicCountAndProjectTripAtEveryCheckAndCharge) {
  Rng rng(7020);
  auto vocab = MakeGraphVocabulary();
  Structure a = StructureFromGraph(vocab, RandomTree(6, rng));
  Structure b = RandomGraphStructure(vocab, 64, 6.0 / 63, rng,
                                     /*symmetric=*/true);
  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
  const ConjunctiveQuery& q = p.SourceCanonicalQuery();
  const std::vector<VarId> proj = {0, static_cast<VarId>(q.var_count() - 1)};
  constexpr size_t kLimit = 1000;

  // One run of the task; the answer folds a count or rows into rows.
  auto run = [&](bool project, ResourceGovernor* gov,
                 std::vector<std::vector<Element>>* answer) -> Status {
    if (project) {
      auto rows = AcyclicProject(q, b, proj, SIZE_MAX, nullptr, gov);
      if (rows.ok()) *answer = *std::move(rows);
      return rows.status();
    }
    auto count = AcyclicCount(q, b, kLimit, nullptr, gov);
    if (count.ok()) *answer = {{static_cast<Element>(*count)}};
    return count.status();
  };

  for (bool project : {false, true}) {
    SCOPED_TRACE(project ? "project" : "count");
    std::vector<std::vector<Element>> want;
    ASSERT_TRUE(run(project, nullptr, &want).ok());
    ASSERT_FALSE(want.empty());

    // A governed run that fits its budget: same answer, nothing left
    // charged, and the number of polls to sweep.
    uint64_t checks = 0;
    {
      ResourceGovernor fits(/*deadline_ms=*/60'000, /*memory=*/256u << 20);
      std::vector<std::vector<Element>> got;
      ASSERT_TRUE(run(project, &fits, &got).ok());
      EXPECT_EQ(got, want);
      EXPECT_GT(fits.peak_bytes(), 0u);
      EXPECT_EQ(fits.bytes_in_use(), 0u);
      checks = fits.checks();
      ASSERT_GT(checks, 0u);
    }

    // Runs under `fp`; true when the run tripped (and did so cleanly).
    auto run_tripping = [&](const GovernorFailpoints& fp) {
      ResourceGovernor gov;
      gov.set_failpoints(fp);
      std::vector<std::vector<Element>> got;
      Status s = run(project, &gov, &got);
      EXPECT_EQ(gov.bytes_in_use(), 0u);
      if (s.ok()) {
        EXPECT_FALSE(gov.tripped());
        EXPECT_EQ(got, want);
        return false;
      }
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
      EXPECT_EQ(gov.trip_cause(), TripCause::kFailpoint);
      EXPECT_TRUE(got.empty());
      std::vector<std::vector<Element>> again;
      EXPECT_TRUE(run(project, nullptr, &again).ok());
      EXPECT_EQ(again, want);
      return true;
    };
    for (uint64_t k = 1; k <= checks; ++k) {
      SCOPED_TRACE(testing::Message() << "trip_after_checks=" << k);
      GovernorFailpoints fp;
      fp.trip_after_checks = k;
      EXPECT_TRUE(run_tripping(fp));
    }
    // Charges have no counter to read: sweep until a run gets through.
    uint64_t k = 1;
    for (;; ++k) {
      SCOPED_TRACE(testing::Message() << "trip_after_charges=" << k);
      ASSERT_LT(k, 10'000u);
      GovernorFailpoints fp;
      fp.trip_after_charges = k;
      if (!run_tripping(fp)) break;
    }
    EXPECT_GT(k, 1u);
  }
}

TEST(GovernorEngineTest, TreewidthTasksTripAtEveryCheckAndCharge) {
  // The bag joins and the program over them poll and charge: a failpoint at
  // any check or any charge unwinds every task on the treewidth route to a
  // clean "unknown" — no decision, no witness, count 0, no rows.
  Rng rng(7021);
  auto vocab = MakeGraphVocabulary();
  Structure a = StructureFromGraph(vocab, RandomPartialKTree(9, 2, 0.9, rng));
  Structure b = RandomGraphStructure(vocab, 12, 0.5, rng, /*symmetric=*/true);
  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
  ASSERT_TRUE(p.SetProjection({0, 8}).ok());
  // Cached up front, so every run below starts at the bag joins.
  ASSERT_GT(p.SourceDecomposition().node_count(), 0u);
  EngineOptions base;
  base.backend = Backend::kTreewidth;
  base.max_results = 300;

  for (HomTask task : {HomTask::kDecide, HomTask::kWitness, HomTask::kCount,
                       HomTask::kEnumerate, HomTask::kProject}) {
    SCOPED_TRACE(HomTaskName(task));
    const EngineResult want = MustRun(HomEngine(base), p, task);
    ASSERT_TRUE(want.stats.used_treewidth);
    EngineOptions fits = base;
    fits.deadline_ms = 60'000;
    const uint64_t checks =
        MustRun(HomEngine(fits), p, task).stats.governor.checks;
    ASSERT_GT(checks, 0u);

    // Runs under `fp`; true when the run tripped (and did so cleanly).
    auto run_tripping = [&](const GovernorFailpoints& fp) {
      EngineOptions options = base;
      options.failpoints = fp;
      const EngineResult r = MustRun(HomEngine(options), p, task);
      if (!r.stats.governor.tripped) {
        EXPECT_EQ(r.decided, want.decided);
        EXPECT_EQ(r.witness, want.witness);
        EXPECT_EQ(r.count, want.count);
        EXPECT_EQ(r.rows, want.rows);
        return false;
      }
      ExpectCleanTrip(r, task);
      EXPECT_EQ(r.count, 0u);
      EXPECT_TRUE(r.rows.empty());
      return true;
    };
    for (uint64_t k = 1; k <= checks; ++k) {
      SCOPED_TRACE(testing::Message() << "trip_after_checks=" << k);
      GovernorFailpoints fp;
      fp.trip_after_checks = k;
      EXPECT_TRUE(run_tripping(fp));
    }
    // Charges have no counter to read: sweep until a run gets through.
    uint64_t k = 1;
    for (;; ++k) {
      SCOPED_TRACE(testing::Message() << "trip_after_charges=" << k);
      ASSERT_LT(k, 10'000u);
      GovernorFailpoints fp;
      fp.trip_after_charges = k;
      if (!run_tripping(fp)) break;
    }
    EXPECT_GT(k, 1u);
  }
}

TEST(GovernorEngineTest, UniformTripKeepsVerifiedPrefix) {
  // The search's enumeration keeps solutions verified before the trip —
  // each is a real homomorphism — marked incomplete via limit_hit.
  auto vocab = MakeGraphVocabulary();
  Structure a = PathStructure(vocab, 16);
  Structure b = CliqueStructure(vocab, 4);
  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));

  EngineOptions options;
  options.backend = Backend::kUniform;
  options.deadline_ms = 30;
  HomEngine engine(options);
  EngineResult r = MustRun(engine, p, HomTask::kEnumerate);
  EXPECT_TRUE(r.stats.search.limit_hit);
  for (const auto& row : r.rows) {
    EXPECT_TRUE(IsHomomorphism(a, b, row));
  }
}

TEST(GovernorEngineTest, TripDuringRootPropagationIsUnknownNotNo) {
  // A governed fixpoint polls the trip flag, so a governor tripped before
  // the root fixpoint cancels it. That cancelled fixpoint refutes nothing:
  // P6 -> K3 has homomorphisms, and the answer must be "unknown".
  auto vocab = MakeGraphVocabulary();
  Structure a = PathStructure(vocab, 6);
  Structure b = CliqueStructure(vocab, 3);
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    ResourceGovernor gov;
    gov.Cancel();
    SolveOptions options;
    options.num_threads = threads;
    options.governor = &gov;
    BacktrackingSolver solver(a, b, options);
    SolveStats stats;
    EXPECT_FALSE(solver.Solve(&stats).has_value());
    EXPECT_TRUE(stats.limit_hit);
  }
}

// ---- The caller's governor: SolveOptions::governor governs the run. -------

ConjunctiveQuery MustParseQuery(std::string_view text,
                                const VocabularyPtr& vocab) {
  auto q = ParseQuery(text, vocab);
  CQCS_CHECK_MSG(q.ok(), q.status().ToString());
  return *std::move(q);
}

/// The backend kAuto picks for Q1 ⊆ Q2 when nothing governs the run.
Backend UngovernedContainmentRoute(const ConjunctiveQuery& q1,
                                   const ConjunctiveQuery& q2) {
  HomProblem p = MustProblem(HomProblem::FromContainment(q1, q2));
  return MustRun(HomEngine(), p, HomTask::kDecide).explain.chosen;
}

void ExpectExhausted(const Status& status) {
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
      << status.ToString();
}

TEST(GovernorEngineTest, ConveniencesHonorTheCallersGovernor) {
  auto vocab = MakeGraphVocabulary();
  ResourceGovernor cancelled;
  cancelled.Cancel();
  SolveOptions options;
  options.governor = &cancelled;

  // An acyclic Q2: the Yannakakis route.
  const ConjunctiveQuery cycle4 = MustParseQuery(
      "Q(X) :- E(X, Y), E(Y, Z), E(Z, W), E(W, X).", vocab);
  const ConjunctiveQuery path = MustParseQuery("Q(X) :- E(X, Y), E(Y, Z).",
                                               vocab);
  ASSERT_EQ(UngovernedContainmentRoute(cycle4, path), Backend::kAcyclic);
  ASSERT_TRUE(*IsContained(cycle4, path));
  ExpectExhausted(Contains(cycle4, path, options).status());
  ExpectExhausted(IsContained(cycle4, path, options).status());
  ExpectExhausted(AreEquivalent(cycle4, path, options).status());
  Rng rng(7030);
  const Structure db = RandomGraphStructure(vocab, 12, 0.3, rng, true);
  ExpectExhausted(Evaluate(path, db, options).status());
  const ConjunctiveQuery boolean_path =
      MustParseQuery("Q() :- E(X, Y), E(Y, Z).", vocab);
  ExpectExhausted(EvaluateBoolean(boolean_path, db, options).status());
  ExpectExhausted(
      Minimize(MustParseQuery("Q(X) :- E(X, Y), E(X, Z).", vocab), options)
          .status());

  // A cyclic Q2 of width 4: the uniform search (the router's capped
  // min-fill is governed too, so a pre-cancelled governor stops it there).
  const ConjunctiveQuery k5 = MustParseQuery(
      "Q() :- E(A, B), E(A, C), E(A, D), E(A, F), E(B, C), E(B, D), "
      "E(B, F), E(C, D), E(C, F), E(D, F).",
      vocab);
  ASSERT_EQ(UngovernedContainmentRoute(k5, k5), Backend::kUniform);
  ASSERT_TRUE(*IsContained(k5, k5));
  ExpectExhausted(Contains(k5, k5, options).status());
  ExpectExhausted(IsContained(k5, k5, options).status());
  ExpectExhausted(EvaluateBoolean(k5, CliqueStructure(vocab, 5), options)
                      .status());
}

TEST(GovernorEngineTest, CallersGovernorGovernsTheSearch) {
  auto vocab = MakeGraphVocabulary();
  HomProblem p = MustProblem(HomProblem::FromStructures(
      CliqueStructure(vocab, 5), CliqueStructure(vocab, 5)));
  ResourceGovernor cancelled;
  cancelled.Cancel();
  EngineOptions options;
  options.backend = Backend::kUniform;
  options.solve.governor = &cancelled;
  EngineResult r = MustRun(HomEngine(options), p, HomTask::kDecide);
  EXPECT_TRUE(r.stats.used_search);
  EXPECT_TRUE(r.stats.search.limit_hit);
  EXPECT_FALSE(r.decided);
  EXPECT_TRUE(r.stats.governor.enabled);
  EXPECT_TRUE(r.stats.governor.tripped);
  EXPECT_EQ(r.stats.governor.cause, TripCause::kCancelled);

  // A governor with room: the run answers, and the snapshot is the
  // caller's governor's own record.
  ResourceGovernor roomy(/*deadline_ms=*/60'000, /*memory=*/64u << 20);
  options.solve.governor = &roomy;
  r = MustRun(HomEngine(options), p, HomTask::kDecide);
  EXPECT_TRUE(r.decided);
  EXPECT_TRUE(r.stats.governor.enabled);
  EXPECT_FALSE(r.stats.governor.tripped);
  EXPECT_EQ(r.stats.governor.checks, roomy.checks());
}

TEST(GovernorEngineTest, CallersGovernorWithABudgetFieldIsInvalid) {
  auto vocab = MakeGraphVocabulary();
  HomProblem p = MustProblem(HomProblem::FromStructures(
      PathStructure(vocab, 4), CliqueStructure(vocab, 3)));
  ResourceGovernor gov;
  std::atomic<bool> cancel{false};
  std::vector<EngineOptions> budgets(5);
  budgets[0].deadline_ms = 1000;
  budgets[1].memory_budget_bytes = 1u << 20;
  budgets[2].cancel = &cancel;
  budgets[3].failpoints.trip_after_checks = 5;
  budgets[4].failpoints.trip_after_charges = 5;
  for (EngineOptions& options : budgets) {
    options.solve.governor = &gov;
    auto r = HomEngine(options).Run(p, HomTask::kDecide);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(gov.checks(), 0u);
}

// ---- The pebble preflight is governed. ------------------------------------

TEST(GovernorEngineTest, PebblePreflightStopsBeforeTheGameCompletes) {
  // The 2-pebble game on G(60, 0.3) -> G(8, 0.6) enumerates ~10^5
  // positions. A cancelled run must stop at the game's first poll: no
  // game, no search after it, an "unknown" answer.
  Rng rng(7040);
  auto vocab = MakeGraphVocabulary();
  Structure a = RandomGraphStructure(vocab, 60, 0.3, rng, true);
  Structure b = RandomGraphStructure(vocab, 8, 0.6, rng, true);
  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
  std::atomic<bool> cancel{true};
  EngineOptions options;
  options.backend = Backend::kUniform;
  options.pebble_preflight_k = 2;
  options.cancel = &cancel;
  EngineResult r = MustRun(HomEngine(options), p, HomTask::kDecide);
  EXPECT_TRUE(r.stats.governor.tripped);
  EXPECT_EQ(r.stats.governor.cause, TripCause::kCancelled);
  EXPECT_FALSE(r.stats.used_pebble);
  EXPECT_EQ(r.stats.pebble.total_positions, 0u);
  EXPECT_FALSE(r.stats.used_search);
  EXPECT_FALSE(r.decided);
}

TEST(GovernorEngineTest, PebblePreflightTripsCleanlyAndReleasesItsCharge) {
  // G(12, 0.5) -> K3 with 2 pebbles: a trip at every poll in turn, then at
  // a spread of charges. Each trip is "unknown" and leaves no byte charged;
  // the run that fits answers like the ungoverned one.
  Rng rng(7041);
  auto vocab = MakeGraphVocabulary();
  Structure a = RandomGraphStructure(vocab, 12, 0.5, rng, true);
  Structure b = CliqueStructure(vocab, 3);
  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
  EngineOptions options;
  options.backend = Backend::kUniform;
  options.pebble_preflight_k = 2;
  const bool expected = MustRun(HomEngine(options), p, HomTask::kDecide).decided;

  // Runs once under `fp`; true when the run tripped.
  auto run_tripping = [&](const GovernorFailpoints& fp) {
    ResourceGovernor gov;
    gov.set_failpoints(fp);
    options.solve.governor = &gov;
    EngineResult r = MustRun(HomEngine(options), p, HomTask::kDecide);
    EXPECT_EQ(gov.bytes_in_use(), 0u);
    if (!r.stats.governor.tripped) {
      EXPECT_EQ(r.decided, expected);
      EXPECT_TRUE(r.stats.used_pebble);
      EXPECT_GT(gov.peak_bytes(), 0u);
      return false;
    }
    EXPECT_FALSE(r.decided);
    if (!r.stats.used_pebble) EXPECT_FALSE(r.stats.used_search);
    return true;
  };
  uint64_t k = 1;
  for (;; ++k) {
    SCOPED_TRACE(testing::Message() << "trip_after_checks=" << k);
    ASSERT_LT(k, 10'000u);
    GovernorFailpoints fp;
    fp.trip_after_checks = k;
    if (!run_tripping(fp)) break;
  }
  EXPECT_GT(k, 2u);  // the game polls more than once
  for (uint64_t charges : {1, 2, 10, 100, 400}) {
    SCOPED_TRACE(testing::Message() << "trip_after_charges=" << charges);
    GovernorFailpoints fp;
    fp.trip_after_charges = charges;
    EXPECT_TRUE(run_tripping(fp));
  }
}

// ---- Input-reachable aborts converted to structured errors. ---------------

TEST(RobustInputTest, UniverseOverflowIsAParseError) {
  auto r = ParseStructure("universe 4294967296\nE/2: 0 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("universe"), std::string::npos);
  // The boundary itself is fine.
  EXPECT_TRUE(ParseStructure("universe 4294967295\nE/2:").ok());
}

TEST(RobustInputTest, CqParserRejectsArityMismatchWithoutAborting) {
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("E", 2);
  auto q = ParseQuery("q(X) :- E(X, Y, Z).", vocab);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
  auto unknown = ParseQuery("q(X) :- F(X, Y).", vocab);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

TEST(RobustInputTest, WideBooleanRelationClassifiesAsNonSchaefer) {
  // Arity 64 exceeds the BooleanRelation bitmask; classification must
  // degrade to "not Schaefer" (0) instead of CHECK-failing, and
  // SolveSchaefer must surface the dichotomy's Unsupported.
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("W", 64);
  Structure b(vocab, 2);
  std::vector<Element> tuple(64, 0);
  b.AddTuple(0, tuple);
  EXPECT_EQ(ClassifyBooleanStructure(b), 0u);

  Structure a(vocab, 3);
  a.AddTuple(0, std::vector<Element>(64, 1));
  auto solved = SolveSchaefer(a, b);
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kUnsupported);
}

TEST(RobustInputTest, SetProjectionRejectsOutOfRangeElements) {
  auto vocab = MakeGraphVocabulary();
  Structure a = PathStructure(vocab, 4);
  Structure b = PathStructure(vocab, 4);
  HomProblem p = MustProblem(HomProblem::FromStructures(a, b));
  Status s = p.SetProjection({0, 99});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(p.projection().empty());  // unchanged on failure
  EXPECT_TRUE(p.SetProjection({0, 3}).ok());
}

TEST(RobustInputTest, DatalogDefaultGoalStillResolves) {
  // The default-goal lookup (last rule's head) is now a structured error
  // path; the happy path must keep working.
  auto program = ParseDatalogProgram(
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
}

}  // namespace
}  // namespace cqcs
