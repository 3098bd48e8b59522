// Durability net: CRC32C vectors, catalog round-trips, WAL recovery,
// torn-tail truncation at every byte offset, FaultyFs failpoint matrices
// (fail / short-write the Nth write, fsync, rename), snapshot generations,
// and the ServingEngine's degraded mode + poison-query quarantine.
//
// The invariant every matrix asserts: the recovered catalog equals the
// ACKNOWLEDGED catalog exactly — an update whose append failed must never
// resurrect, an update that was acknowledged must never vanish (under
// FsyncPolicy::kAlways), and recovery itself must never crash, whatever
// the bytes on disk.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <unistd.h>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/fs.h"
#include "core/io.h"
#include "serve/durability.h"
#include "serve/serving.h"

namespace cqcs {
namespace {

using serve::DurabilityManager;
using serve::DurabilityOptions;
using serve::FsyncPolicy;
using serve::RecoveryInfo;

// ---------------------------------------------------------------- helpers ---

/// A fresh scratch directory under the test temp root, removed on exit.
/// The pid keeps concurrently running test processes (ctest -j) from
/// sharing a path: the per-process counter and gtest's random_seed are
/// identical across processes, and two tests deleting each other's WAL
/// mid-matrix shows up as phantom "resurrected" catalog entries.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("cqcs_durability_" + tag + "_" + std::to_string(::getpid()) +
              "_" + std::to_string(counter_++)))
                .string();
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

Structure MakeDb(uint32_t universe, const std::string& tuples) {
  auto parsed = ParseStructure("universe " + std::to_string(universe) +
                               "\nE/2:" + tuples + "\n");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *std::move(parsed);
}

DurabilityOptions Opts(const std::string& dir, FileSystem* fs = nullptr,
                       Clock* clock = nullptr) {
  DurabilityOptions o;
  o.data_dir = dir;
  o.fsync = FsyncPolicy::kAlways;
  o.snapshot_every_records = 0;  // tests trigger snapshots explicitly
  o.fs = fs;
  o.clock = clock;
  return o;
}

/// Names of the entries a recovery produced, sorted.
std::vector<std::string> Names(const std::vector<CatalogEntry>& entries) {
  std::vector<std::string> names;
  for (const auto& e : entries) names.push_back(e.name);
  std::sort(names.begin(), names.end());
  return names;
}

// ----------------------------------------------------------------- crc32c ---

TEST(Crc32c, KnownVectors) {
  // The Castagnoli check value (RFC 3720 appendix B.4 et al.).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0x00000000u);
  // 32 zero bytes — the iSCSI test vector.
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32c, SeedChainsIncrementally) {
  const std::string data = "the quick brown fox";
  const uint32_t whole = Crc32c(data.data(), data.size());
  const uint32_t first = Crc32c(data.data(), 7);
  const uint32_t chained = Crc32c(data.data() + 7, data.size() - 7, first);
  EXPECT_EQ(whole, chained);
}

/// The textbook one-byte-at-a-time CRC32C, with no table: the reference
/// the word-at-a-time implementation must agree with on every length and
/// alignment.
uint32_t BitwiseCrc32c(const unsigned char* p, size_t n, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

/// 100 bytes from a fixed LCG, so every byte value shows up in the sweep.
std::vector<unsigned char> SeededBytes() {
  std::vector<unsigned char> bytes(100);
  uint32_t state = 12345;
  for (unsigned char& b : bytes) {
    state = state * 1103515245u + 12345u;
    b = static_cast<unsigned char>(state >> 16);
  }
  return bytes;
}

TEST(Crc32c, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<unsigned char> bytes = SeededBytes();
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 80; ++len) {
      const unsigned char* p = bytes.data() + offset;
      EXPECT_EQ(Crc32c(p, len), BitwiseCrc32c(p, len, 0))
          << "offset " << offset << " length " << len;
      EXPECT_EQ(Crc32c(p, len, 0xDEADBEEFu),
                BitwiseCrc32c(p, len, 0xDEADBEEFu))
          << "seeded, offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32c, SeedChainsAtEverySplitPoint) {
  const std::vector<unsigned char> bytes = SeededBytes();
  const uint32_t whole = Crc32c(bytes.data(), bytes.size());
  EXPECT_EQ(whole, BitwiseCrc32c(bytes.data(), bytes.size(), 0));
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t first = Crc32c(bytes.data(), split);
    EXPECT_EQ(Crc32c(bytes.data() + split, bytes.size() - split, first), whole)
        << "split " << split;
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::string data = "framing test payload";
  const uint32_t good = Crc32c(data.data(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x01;
    EXPECT_NE(Crc32c(data.data(), data.size()), good) << "offset " << i;
    data[i] ^= 0x01;
  }
}

// ---------------------------------------------------------------- catalog ---

TEST(Catalog, RoundTripsExactly) {
  std::vector<CatalogEntry> entries;
  entries.push_back(CatalogEntry{"alpha", 3, MakeDb(3, " 0 1, 1 2")});
  entries.push_back(CatalogEntry{"beta", 1, MakeDb(2, " 0 0")});
  const std::string text = PrintCatalog(entries);
  auto parsed = ParseCatalog(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].name, "alpha");
  EXPECT_EQ((*parsed)[0].version, 3u);
  EXPECT_EQ((*parsed)[1].name, "beta");
  EXPECT_EQ((*parsed)[1].version, 1u);
  // Byte-exact second round trip.
  EXPECT_EQ(PrintCatalog(*parsed), text);
}

TEST(Catalog, EmptyCatalogRoundTrips) {
  auto parsed = ParseCatalog(PrintCatalog({}));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

// --------------------------------------------------------- golden bytes ---
//
// Logs and snapshots written by earlier builds must keep recovering, and
// files written now must read the same under an earlier build: the encoder
// may get faster but must not change a byte. These literals were captured
// from the ostringstream encoder the formats were first written with.

/// P/1 with a 6-digit element, Z/2 declared but empty, T/3.
Structure GoldenDb() {
  auto vocab = std::make_shared<Vocabulary>();
  const RelId p = vocab->AddRelation("P", 1);
  vocab->AddRelation("Z", 2);
  const RelId t = vocab->AddRelation("T", 3);
  Structure db(vocab, 123457);
  const Element p0[] = {0};
  const Element p1[] = {123456};
  const Element t0[] = {1, 2, 3};
  const Element t1[] = {123456, 0, 99999};
  db.AddTuple(p, p0);
  db.AddTuple(p, p1);
  db.AddTuple(t, t0);
  db.AddTuple(t, t1);
  return db;
}

/// Two entries: GoldenDb at version UINT64_MAX, and a structure with an
/// empty universe and no relation at all. (A relation of arity 0 cannot
/// be built: Vocabulary::TryAddRelation refuses it.)
std::vector<CatalogEntry> GoldenCatalog() {
  std::vector<CatalogEntry> entries;
  entries.push_back(CatalogEntry{"alpha", UINT64_MAX, GoldenDb()});
  entries.push_back(
      CatalogEntry{"void", 0, Structure(std::make_shared<Vocabulary>(), 0)});
  return entries;
}

constexpr const char* kGoldenStructure =
    "universe 123457\n"
    "P/1: 0, 123456\n"
    "Z/2:\n"
    "T/3: 1 2 3, 123456 0 99999\n";

constexpr const char* kGoldenCatalog =
    "cqcs-catalog 1\n"
    "db alpha 18446744073709551615\n"
    "universe 123457\n"
    "P/1: 0, 123456\n"
    "Z/2:\n"
    "T/3: 1 2 3, 123456 0 99999\n"
    "end\n"
    "db void 0\n"
    "universe 0\n"
    "end\n";

TEST(GoldenBytes, PrintStructure) {
  EXPECT_EQ(PrintStructure(GoldenDb()), kGoldenStructure);
  EXPECT_EQ(PrintStructure(Structure(std::make_shared<Vocabulary>(), 0)),
            "universe 0\n");
}

TEST(GoldenBytes, PrintCatalog) {
  EXPECT_EQ(PrintCatalog(GoldenCatalog()), kGoldenCatalog);
  EXPECT_EQ(PrintCatalog({}), "cqcs-catalog 1\n");
}

/// The ostringstream printer the WAL and snapshot formats were first
/// written with, kept as the byte-for-byte reference.
std::string StreamPrintStructure(const Structure& s) {
  std::ostringstream out;
  out << "universe " << s.universe_size() << "\n";
  const Vocabulary& vocab = *s.vocabulary();
  for (RelId id = 0; id < vocab.size(); ++id) {
    const Relation& r = s.relation(id);
    out << vocab.name(id) << "/" << r.arity() << ":";
    for (uint32_t t = 0; t < r.tuple_count(); ++t) {
      out << (t == 0 ? " " : ", ");
      std::span<const Element> tup = r.tuple(t);
      for (uint32_t p = 0; p < r.arity(); ++p) {
        if (p > 0) out << " ";
        out << tup[p];
      }
    }
    out << "\n";
  }
  return out.str();
}

TEST(GoldenBytes, PrintStructureMatchesStreamReferenceOnLargeInputs) {
  // Long relations of widest-possible elements cross the printer's
  // internal block boundary at every offset within a piece.
  auto vocab = std::make_shared<Vocabulary>();
  const RelId wide = vocab->AddRelation("W", 1);
  const RelId tri = vocab->AddRelation("T", 3);
  const RelId big = vocab->AddRelation("B", 97);
  Structure db(vocab, UINT32_MAX);
  uint32_t state = 99;
  auto next = [&state] {
    state = state * 1103515245u + 12345u;
    return state >> (state % 29);  // 1 to 10 digits
  };
  for (int t = 0; t < 700; ++t) {
    const Element w[] = {next()};
    db.AddTuple(wide, w);
    const Element tr[] = {next(), next(), UINT32_MAX - 1};
    db.AddTuple(tri, tr);
  }
  std::vector<Element> row(97);
  for (int t = 0; t < 5; ++t) {
    for (Element& e : row) e = next();
    db.AddTuple(big, row);
  }
  const std::string text = PrintStructure(db);
  EXPECT_EQ(text, StreamPrintStructure(db));
  EXPECT_LE(text.size(), StructureTextHint(db));
  EXPECT_EQ(PrintStructure(GoldenDb()), StreamPrintStructure(GoldenDb()));
}

TEST(GoldenBytes, FramedUpsertRecord) {
  ScratchDir dir("golden_wal");
  FaultyFs faulty(RealFileSystem());  // counts the Append calls
  std::vector<CatalogEntry> recovered;
  auto mgr =
      DurabilityManager::Open(Opts(dir.path(), &faulty), &recovered, nullptr);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  ASSERT_TRUE((*mgr)->AppendUpsert("alpha", UINT64_MAX, GoldenDb()).ok());
  EXPECT_EQ(faulty.writes(), 1u) << "a record is one Append";

  auto log = RealFileSystem()->ReadFile(dir.path() + "/wal-0");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  const std::string payload =
      std::string("U alpha 18446744073709551615\n") + kGoldenStructure;
  // Length 92 = 0x5c and CRC32C 0xf5534e90, both little-endian.
  const std::string header("\x5c\x00\x00\x00\x90\x4e\x53\xf5", 8);
  EXPECT_EQ(payload.size(), 92u);
  EXPECT_EQ(*log, header + payload);
}

TEST(GoldenBytes, SnapshotFile) {
  ScratchDir dir("golden_snapshot");
  std::vector<CatalogEntry> recovered;
  auto mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, nullptr);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  ASSERT_TRUE((*mgr)->Snapshot(GoldenCatalog()).ok());
  auto snapshot = RealFileSystem()->ReadFile(dir.path() + "/snapshot-1");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(*snapshot, std::string(kGoldenCatalog) + "crc 9fe08934\n");
}

TEST(GoldenBytes, SeedWrittenLogAndSnapshotRecover) {
  // Files laid down byte for byte as the ostringstream encoder wrote them
  // must recover to the same catalog.
  ScratchDir dir("golden_recover");
  ASSERT_TRUE(RealFileSystem()->CreateDir(dir.path()).ok());
  auto write = [](const std::string& path, const std::string& bytes) {
    auto file = RealFileSystem()->OpenTrunc(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(bytes).ok());
    ASSERT_TRUE((*file)->Close().ok());
  };
  write(dir.path() + "/snapshot-1",
        std::string(kGoldenCatalog) + "crc 9fe08934\n");
  write(dir.path() + "/wal-1",
        std::string("\x5c\x00\x00\x00\x90\x4e\x53\xf5", 8) +
            "U alpha 18446744073709551615\n" + kGoldenStructure);
  std::vector<CatalogEntry> recovered;
  RecoveryInfo info;
  auto mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, &info);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  EXPECT_TRUE(info.snapshot_loaded);
  EXPECT_EQ(info.records_replayed, 1u);
  EXPECT_FALSE(info.tail_truncated);
  EXPECT_EQ(PrintCatalog(recovered), kGoldenCatalog);
}

TEST(Catalog, RejectsCorruptInputsWithoutAborting) {
  // Every deviation is a ParseError, never a crash: these bytes arrive
  // from disk after a kill -9.
  const char* bad[] = {
      "",                                          // no header
      "cqcs-catalog 2\n",                          // wrong version
      "cqcs-catalog 1\nfoo bar\n",                 // not a db line
      "cqcs-catalog 1\ndb\n",                      // truncated db line
      "cqcs-catalog 1\ndb a\n",                    // missing version
      "cqcs-catalog 1\ndb a x\n",                  // bad version
      "cqcs-catalog 1\ndb a 1\nuniverse 1\n",      // missing 'end'
      "cqcs-catalog 1\ndb a 1\nnot a structure\nend\n",  // bad structure
      "cqcs-catalog 1\ndb a 1\nuniverse 1\nend\n"
      "db a 2\nuniverse 1\nend\n",                 // duplicate name
  };
  for (const char* text : bad) {
    auto parsed = ParseCatalog(text);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << text;
  }
}

TEST(Catalog, ZeroArityRelationIsParseErrorNotAbort) {
  // The io Result<> sweep: a zero-arity declaration used to reach the
  // CHECK-failing vocabulary AddRelation via the inference path.
  auto parsed = ParseCatalog("cqcs-catalog 1\ndb a 1\nuniverse 1\nE/0:\nend\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  auto direct = ParseStructure("universe 1\nE/0:\n");
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kParseError);
}

// ----------------------------------------------------------- wal recovery ---

TEST(Durability, OpenOnEmptyDirIsCleanSlate) {
  ScratchDir dir("empty");
  std::vector<CatalogEntry> recovered;
  RecoveryInfo info;
  auto mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, &info);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  EXPECT_TRUE(recovered.empty());
  EXPECT_FALSE(info.snapshot_loaded);
  EXPECT_EQ(info.records_replayed, 0u);
  EXPECT_TRUE(info.warnings.empty());
}

TEST(Durability, AppendsRecoverAcrossReopen) {
  ScratchDir dir("reopen");
  std::vector<CatalogEntry> recovered;
  {
    auto mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, nullptr);
    ASSERT_TRUE(mgr.ok());
    ASSERT_TRUE((*mgr)->AppendUpsert("a", 1, MakeDb(2, " 0 1")).ok());
    ASSERT_TRUE((*mgr)->AppendUpsert("b", 1, MakeDb(3, " 1 2")).ok());
    ASSERT_TRUE((*mgr)->AppendUpsert("a", 2, MakeDb(2, " 1 0")).ok());
    ASSERT_TRUE((*mgr)->AppendDrop("b").ok());
  }
  RecoveryInfo info;
  auto mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, &info);
  ASSERT_TRUE(mgr.ok());
  EXPECT_EQ(info.records_replayed, 4u);
  EXPECT_FALSE(info.tail_truncated);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].name, "a");
  EXPECT_EQ(recovered[0].version, 2u);
  EXPECT_EQ(PrintStructure(recovered[0].db),
            PrintStructure(MakeDb(2, " 1 0")));
}

TEST(Durability, SnapshotSwitchesGenerationAndPrunesOldFiles) {
  ScratchDir dir("snapshot");
  std::vector<CatalogEntry> recovered;
  {
    auto mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, nullptr);
    ASSERT_TRUE(mgr.ok());
    ASSERT_TRUE((*mgr)->AppendUpsert("a", 1, MakeDb(2, " 0 1")).ok());
    std::vector<CatalogEntry> catalog;
    catalog.push_back(CatalogEntry{"a", 1, MakeDb(2, " 0 1")});
    ASSERT_TRUE((*mgr)->Snapshot(catalog).ok());
    EXPECT_EQ((*mgr)->generation(), 1u);
    // Post-snapshot appends land in the new generation's log.
    ASSERT_TRUE((*mgr)->AppendUpsert("b", 1, MakeDb(2, " 1 1")).ok());
  }
  EXPECT_FALSE(RealFileSystem()->Exists(dir.path() + "/wal-0"));
  EXPECT_TRUE(RealFileSystem()->Exists(dir.path() + "/snapshot-1"));
  EXPECT_TRUE(RealFileSystem()->Exists(dir.path() + "/wal-1"));
  RecoveryInfo info;
  auto mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, &info);
  ASSERT_TRUE(mgr.ok());
  EXPECT_TRUE(info.snapshot_loaded);
  EXPECT_EQ(info.generation, 1u);
  EXPECT_EQ(info.records_replayed, 1u);  // only "b", "a" came from the snapshot
  EXPECT_EQ(Names(recovered), (std::vector<std::string>{"a", "b"}));
}

TEST(Durability, SnapshotDueHonorsThreshold) {
  ScratchDir dir("due");
  DurabilityOptions options = Opts(dir.path());
  options.snapshot_every_records = 2;
  std::vector<CatalogEntry> recovered;
  auto mgr = DurabilityManager::Open(options, &recovered, nullptr);
  ASSERT_TRUE(mgr.ok());
  EXPECT_FALSE((*mgr)->SnapshotDue());
  ASSERT_TRUE((*mgr)->AppendUpsert("a", 1, MakeDb(2, " 0 1")).ok());
  EXPECT_FALSE((*mgr)->SnapshotDue());
  ASSERT_TRUE((*mgr)->AppendUpsert("b", 1, MakeDb(2, " 0 1")).ok());
  EXPECT_TRUE((*mgr)->SnapshotDue());
  ASSERT_TRUE((*mgr)->Snapshot({}).ok());
  EXPECT_FALSE((*mgr)->SnapshotDue());
}

TEST(Durability, AllSnapshotsCorruptRefusesToOpen) {
  ScratchDir dir("badsnap");
  std::vector<CatalogEntry> recovered;
  {
    auto mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, nullptr);
    ASSERT_TRUE(mgr.ok());
    ASSERT_TRUE((*mgr)->Snapshot({}).ok());
  }
  // Corrupt the only snapshot: recovery must refuse, not guess.
  auto trunc = RealFileSystem()->Truncate(dir.path() + "/snapshot-1", 4);
  ASSERT_TRUE(trunc.ok());
  auto mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, nullptr);
  EXPECT_FALSE(mgr.ok());
}

TEST(Durability, OlderValidSnapshotCoversACorruptNewerOne) {
  ScratchDir dir("fallback");
  std::vector<CatalogEntry> recovered;
  {
    auto mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, nullptr);
    ASSERT_TRUE(mgr.ok());
    std::vector<CatalogEntry> catalog;
    catalog.push_back(CatalogEntry{"a", 1, MakeDb(2, " 0 1")});
    ASSERT_TRUE((*mgr)->Snapshot(catalog).ok());          // snapshot-1
    catalog.push_back(CatalogEntry{"b", 1, MakeDb(2, "")});
    ASSERT_TRUE((*mgr)->Snapshot(catalog).ok());          // snapshot-2
  }
  // snapshot-2 corrupt, snapshot-1 gone (pruned) — recreate the layered
  // case by hand: write a valid older snapshot next to the corrupt newer.
  {
    auto mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, nullptr);
    ASSERT_TRUE(mgr.ok());  // sanity: snapshot-2 currently valid
    EXPECT_EQ(Names(recovered), (std::vector<std::string>{"a", "b"}));
  }
  // Make a fake older snapshot that is VALID by copying snapshot-2's bytes
  // to snapshot-1... instead simply corrupt snapshot-2 after planting a
  // valid snapshot-1 via a fresh manager in a sibling dir.
  auto bytes = RealFileSystem()->ReadFile(dir.path() + "/snapshot-2");
  ASSERT_TRUE(bytes.ok());
  {
    std::ofstream out(dir.path() + "/snapshot-1", std::ios::binary);
    out << *bytes;
  }
  ASSERT_TRUE(RealFileSystem()->Truncate(dir.path() + "/snapshot-2", 7).ok());
  RecoveryInfo info;
  auto mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, &info);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  EXPECT_EQ(Names(recovered), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(info.generation, 1u);
  EXPECT_FALSE(info.warnings.empty());  // the invalid newer one was reported
  // The fallback serves snapshot-1's state, but wal-2 holds records from
  // AFTER the (unreadable) snapshot-2 — appending at generation 1 and then
  // replaying wal-2 on a later recovery would reorder history, so the log
  // is poisoned: reads serve, updates refuse.
  EXPECT_TRUE((*mgr)->stats().poisoned);
  EXPECT_FALSE((*mgr)->AppendUpsert("c", 1, MakeDb(2, " 0 0")).ok());
}

// ------------------------------------------------------------- torn tails ---

TEST(Durability, TornTailIsTruncatedAndReopenIsIdempotent) {
  ScratchDir dir("torn");
  std::vector<CatalogEntry> recovered;
  {
    auto mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, nullptr);
    ASSERT_TRUE(mgr.ok());
    ASSERT_TRUE((*mgr)->AppendUpsert("a", 1, MakeDb(2, " 0 1")).ok());
    ASSERT_TRUE((*mgr)->AppendUpsert("b", 1, MakeDb(2, " 1 0")).ok());
  }
  auto good = RealFileSystem()->ReadFile(dir.path() + "/wal-0");
  ASSERT_TRUE(good.ok());
  // Simulate dying mid-append: half a record's worth of garbage.
  {
    std::ofstream out(dir.path() + "/wal-0",
                      std::ios::binary | std::ios::app);
    out << "\x13\x00\x00\x00garbage";
  }
  RecoveryInfo info;
  auto mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, &info);
  ASSERT_TRUE(mgr.ok());
  EXPECT_TRUE(info.tail_truncated);
  EXPECT_GT(info.tail_bytes_dropped, 0u);
  EXPECT_FALSE(info.warnings.empty());
  EXPECT_EQ(Names(recovered), (std::vector<std::string>{"a", "b"}));
  // The repair was physical: the file is byte-identical to the good log,
  // and a second open sees nothing wrong.
  auto repaired = RealFileSystem()->ReadFile(dir.path() + "/wal-0");
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, *good);
  mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, &info);
  ASSERT_TRUE(mgr.ok());
  EXPECT_FALSE(info.tail_truncated);
  EXPECT_TRUE(info.warnings.empty());
}

TEST(Durability, CorruptByteAtEveryOffsetNeverCrashesRecovery) {
  // Build a small WAL of three records, then for EVERY byte offset flip
  // that byte and recover. The recovered catalog must always be a prefix
  // of the applied sequence, and recovery must never fail or crash.
  ScratchDir dir("flip");
  std::vector<CatalogEntry> recovered;
  {
    auto mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, nullptr);
    ASSERT_TRUE(mgr.ok());
    ASSERT_TRUE((*mgr)->AppendUpsert("a", 1, MakeDb(2, " 0 1")).ok());
    ASSERT_TRUE((*mgr)->AppendUpsert("b", 1, MakeDb(2, " 1 0")).ok());
    ASSERT_TRUE((*mgr)->AppendUpsert("c", 1, MakeDb(2, " 1 1")).ok());
  }
  const std::string wal_path = dir.path() + "/wal-0";
  auto pristine = RealFileSystem()->ReadFile(wal_path);
  ASSERT_TRUE(pristine.ok());
  const std::vector<std::vector<std::string>> prefixes = {
      {}, {"a"}, {"a", "b"}, {"a", "b", "c"}};
  for (size_t offset = 0; offset < pristine->size(); ++offset) {
    std::string mutated = *pristine;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0xFF);
    {
      std::ofstream out(wal_path, std::ios::binary | std::ios::trunc);
      out << mutated;
    }
    RecoveryInfo info;
    auto mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, &info);
    ASSERT_TRUE(mgr.ok()) << "offset " << offset << ": "
                          << mgr.status().ToString();
    mgr->reset();  // release the append handle before the next iteration
    const std::vector<std::string> names = Names(recovered);
    EXPECT_NE(std::find(prefixes.begin(), prefixes.end(), names),
              prefixes.end())
        << "offset " << offset << " recovered a non-prefix catalog";
    // A flip always damages some record, so some tail must have dropped.
    EXPECT_TRUE(info.tail_truncated) << "offset " << offset;
  }
}

// ------------------------------------------------------ faultyfs matrices ---

/// Drives `appends` upserts through a manager on a FaultyFs, returning the
/// set of acknowledged names; then recovers with a clean filesystem and
/// asserts recovered == acknowledged exactly.
void RunWriteFaultMatrix(const FsFailpoints& failpoints,
                         FsyncPolicy policy) {
  ScratchDir dir("faulty");
  FaultyFs faulty(RealFileSystem(), failpoints);
  ManualClock clock;
  std::vector<std::string> acked;
  {
    DurabilityOptions options = Opts(dir.path(), &faulty, &clock);
    options.fsync = policy;
    std::vector<CatalogEntry> recovered;
    auto mgr = DurabilityManager::Open(options, &recovered, nullptr);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    const char* names[] = {"a", "b", "c", "d", "e"};
    for (const char* name : names) {
      Status s = (*mgr)->AppendUpsert(name, 1, MakeDb(2, " 0 1"));
      if (s.ok()) acked.push_back(name);
    }
  }
  std::vector<CatalogEntry> recovered;
  RecoveryInfo info;
  auto mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, &info);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  std::sort(acked.begin(), acked.end());
  EXPECT_EQ(Names(recovered), acked)
      << "fail_write_n=" << failpoints.fail_write_n
      << " short=" << failpoints.short_write_bytes
      << " fail_sync_n=" << failpoints.fail_sync_n;
  // The failed append rewound the log, so recovery sees a CLEAN file: no
  // torn tail to truncate.
  EXPECT_FALSE(info.tail_truncated);
}

TEST(DurabilityFaults, NthWriteFailsNeverResurrects) {
  for (uint64_t n = 1; n <= 6; ++n) {
    FsFailpoints fp;
    fp.fail_write_n = n;
    RunWriteFaultMatrix(fp, FsyncPolicy::kAlways);
  }
}

TEST(DurabilityFaults, ShortWritesLandGarbageButNeverResurrect) {
  // The failing write lands a PREFIX of the frame — the torn-record
  // signature — and the rewind must scrub it before the next append.
  for (uint64_t n = 1; n <= 4; ++n) {
    for (size_t short_bytes : {size_t{1}, size_t{4}, size_t{9}, size_t{17}}) {
      FsFailpoints fp;
      fp.fail_write_n = n;
      fp.short_write_bytes = short_bytes;
      RunWriteFaultMatrix(fp, FsyncPolicy::kAlways);
    }
  }
}

TEST(DurabilityFaults, NthFsyncFailsNeverResurrects) {
  for (uint64_t n = 1; n <= 6; ++n) {
    FsFailpoints fp;
    fp.fail_sync_n = n;
    RunWriteFaultMatrix(fp, FsyncPolicy::kAlways);
  }
}

TEST(DurabilityFaults, RenameFailureFailsSnapshotButLosesNothing) {
  // Snapshots are rotate-then-write: the rotation (cheap) succeeds and
  // switches appends to wal-1; only the snapshot WRITE fails. Recovery
  // then replays the whole chain wal-0 + wal-1 — nothing acknowledged is
  // lost, and nothing retries per update.
  ScratchDir dir("rename");
  FsFailpoints fp;
  fp.fail_rename_n = 1;
  FaultyFs faulty(RealFileSystem(), fp);
  std::vector<CatalogEntry> recovered;
  DurabilityOptions options = Opts(dir.path(), &faulty);
  auto mgr = DurabilityManager::Open(options, &recovered, nullptr);
  ASSERT_TRUE(mgr.ok());
  ASSERT_TRUE((*mgr)->AppendUpsert("a", 1, MakeDb(2, " 0 1")).ok());
  std::vector<CatalogEntry> catalog;
  catalog.push_back(CatalogEntry{"a", 1, MakeDb(2, " 0 1")});
  EXPECT_FALSE((*mgr)->Snapshot(catalog).ok());  // rename injected to fail
  EXPECT_EQ((*mgr)->generation(), 1u);           // rotation still happened
  EXPECT_EQ((*mgr)->stats().snapshot_failures, 1u);
  EXPECT_FALSE((*mgr)->stats().poisoned);
  // The un-snapshotted wal-0 must survive for recovery to replay.
  EXPECT_TRUE(RealFileSystem()->Exists(dir.path() + "/wal-0"));
  // Appends keep working (into wal-1) and recovery sees everything.
  ASSERT_TRUE((*mgr)->AppendUpsert("b", 1, MakeDb(2, " 1 0")).ok());
  mgr->reset();
  RecoveryInfo info;
  auto reopened = DurabilityManager::Open(Opts(dir.path()), &recovered,
                                          &info);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Names(recovered), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(info.records_replayed, 2u);
  EXPECT_EQ((*reopened)->generation(), 1u);
}

TEST(DurabilityFaults, RepeatedSnapshotFailuresGrowAChainThatReplays) {
  // Two failed snapshot writes leave three log generations; every
  // acknowledged record recovers, in order, across all of them.
  ScratchDir dir("chain");
  FsFailpoints fp;
  fp.fail_rename_n = 1;
  FaultyFs faulty(RealFileSystem(), fp);
  std::vector<CatalogEntry> recovered;
  auto mgr = DurabilityManager::Open(Opts(dir.path(), &faulty), &recovered,
                                     nullptr);
  ASSERT_TRUE(mgr.ok());
  ASSERT_TRUE((*mgr)->AppendUpsert("a", 1, MakeDb(2, " 0 1")).ok());
  EXPECT_FALSE((*mgr)->Snapshot({}).ok());  // wal-0 -> wal-1, write fails
  ASSERT_TRUE((*mgr)->AppendUpsert("b", 1, MakeDb(2, " 1 0")).ok());
  fp.fail_rename_n = 2;  // the shared rename counter already consumed #1
  faulty.set_failpoints(fp);
  EXPECT_FALSE((*mgr)->Snapshot({}).ok());  // wal-1 -> wal-2, write fails
  ASSERT_TRUE((*mgr)->AppendUpsert("a", 2, MakeDb(2, " 1 1")).ok());
  EXPECT_EQ((*mgr)->generation(), 2u);
  mgr->reset();
  RecoveryInfo info;
  auto reopened = DurabilityManager::Open(Opts(dir.path()), &recovered,
                                          &info);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(info.records_replayed, 3u);
  EXPECT_EQ(Names(recovered), (std::vector<std::string>{"a", "b"}));
  for (const CatalogEntry& e : recovered) {
    if (e.name == "a") EXPECT_EQ(e.version, 2u);  // the wal-2 record won
  }
  // A later successful snapshot collapses the chain.
  std::vector<CatalogEntry> catalog;
  catalog.push_back(CatalogEntry{"a", 2, MakeDb(2, " 1 1")});
  catalog.push_back(CatalogEntry{"b", 1, MakeDb(2, " 1 0")});
  ASSERT_TRUE((*reopened)->Snapshot(catalog).ok());
  EXPECT_FALSE(RealFileSystem()->Exists(dir.path() + "/wal-0"));
  EXPECT_FALSE(RealFileSystem()->Exists(dir.path() + "/wal-1"));
  EXPECT_FALSE(RealFileSystem()->Exists(dir.path() + "/wal-2"));
  EXPECT_TRUE(RealFileSystem()->Exists(dir.path() + "/snapshot-3"));
}

TEST(Durability, MidChainCorruptionStopsReplayAndPoisons) {
  // Damage in a NON-final log of the chain is external corruption, not a
  // kill -9 signature: recovery serves the prefix up to the damage,
  // refuses updates, and leaves the bytes (and later logs) on disk so a
  // rerun reaches the same state.
  ScratchDir dir("midchain");
  FsFailpoints fp;
  fp.fail_rename_n = 1;
  FaultyFs faulty(RealFileSystem(), fp);
  std::vector<CatalogEntry> recovered;
  {
    auto mgr = DurabilityManager::Open(Opts(dir.path(), &faulty), &recovered,
                                       nullptr);
    ASSERT_TRUE(mgr.ok());
    ASSERT_TRUE((*mgr)->AppendUpsert("a", 1, MakeDb(2, " 0 1")).ok());
    EXPECT_FALSE((*mgr)->Snapshot({}).ok());  // chain: wal-0, wal-1
    ASSERT_TRUE((*mgr)->AppendUpsert("b", 1, MakeDb(2, " 1 0")).ok());
  }
  {
    std::ofstream out(dir.path() + "/wal-0",
                      std::ios::binary | std::ios::app);
    out << "garbage-tail";
  }
  auto damaged = RealFileSystem()->ReadFile(dir.path() + "/wal-0");
  ASSERT_TRUE(damaged.ok());
  RecoveryInfo info;
  auto mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, &info);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  EXPECT_EQ(Names(recovered), (std::vector<std::string>{"a"}));  // prefix only
  EXPECT_TRUE((*mgr)->stats().poisoned);
  EXPECT_FALSE(info.warnings.empty());
  EXPECT_FALSE((*mgr)->AppendUpsert("c", 1, MakeDb(2, " 0 0")).ok());
  // Forensics preserved: the damaged log was NOT truncated.
  auto after = RealFileSystem()->ReadFile(dir.path() + "/wal-0");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *damaged);
  EXPECT_TRUE(RealFileSystem()->Exists(dir.path() + "/wal-1"));
}

// ------------------------------------------------- acknowledgment guards ---

TEST(Durability, NamesRecoveryWouldRejectAreRefusedAtAppendTime) {
  // The durable-name rule is enforced when a record is ACKNOWLEDGED, not
  // discovered when it fails to replay: a name IsCatalogName rejects must
  // never reach the log, where it would read as a corrupt tail and drag
  // every later acknowledged record down with it.
  ScratchDir dir("badname");
  std::vector<CatalogEntry> recovered;
  auto mgr = DurabilityManager::Open(Opts(dir.path()), &recovered, nullptr);
  ASSERT_TRUE(mgr.ok());
  const std::string bad_names[] = {
      std::string("a\x01" "b"), std::string("a b"), std::string("a\nb"),
      std::string("\x7f"),   std::string(),      std::string("a\tb")};
  for (const std::string& bad : bad_names) {
    Status up = (*mgr)->AppendUpsert(bad, 1, MakeDb(2, " 0 1"));
    EXPECT_EQ(up.code(), StatusCode::kInvalidArgument) << "name " << bad;
    Status drop = (*mgr)->AppendDrop(bad);
    EXPECT_EQ(drop.code(), StatusCode::kInvalidArgument) << "name " << bad;
  }
  // The refusals were caller errors: the log is healthy, not poisoned, and
  // a valid append both works and is the only thing recovery sees.
  EXPECT_EQ((*mgr)->stats().wal_appends, 0u);
  EXPECT_FALSE((*mgr)->stats().poisoned);
  ASSERT_TRUE((*mgr)->AppendUpsert("good", 1, MakeDb(2, " 0 1")).ok());
  mgr->reset();
  RecoveryInfo info;
  auto reopened = DurabilityManager::Open(Opts(dir.path()), &recovered,
                                          &info);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Names(recovered), (std::vector<std::string>{"good"}));
  EXPECT_FALSE(info.tail_truncated);
}

TEST(Durability, OversizedRecordIsRefusedBeforeAnyByteIsWritten) {
  // A record recovery would treat as framing corruption (len past the
  // ceiling) must be refused at acknowledgment time. The ceiling is 1 GiB
  // in production; the writer-side option lowers it so the guard is
  // testable without a 1 GiB allocation.
  ScratchDir dir("oversize");
  DurabilityOptions options = Opts(dir.path());
  options.max_record_bytes = 32;
  std::vector<CatalogEntry> recovered;
  auto mgr = DurabilityManager::Open(options, &recovered, nullptr);
  ASSERT_TRUE(mgr.ok());
  // "U big 1\n" + a multi-tuple structure text comfortably exceeds 32B.
  Status refused =
      (*mgr)->AppendUpsert("big", 1, MakeDb(6, " 0 1, 1 2, 2 3, 3 4, 4 5"));
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*mgr)->stats().wal_appends, 0u);
  EXPECT_EQ((*mgr)->stats().wal_bytes, 0u);  // nothing was framed or written
  EXPECT_FALSE((*mgr)->stats().poisoned);
  // A record under the bound still appends, and recovery replays exactly it.
  ASSERT_TRUE((*mgr)->AppendDrop("big").ok());
  mgr->reset();
  RecoveryInfo info;
  auto reopened = DurabilityManager::Open(Opts(dir.path()), &recovered,
                                          &info);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(info.records_replayed, 1u);
  EXPECT_FALSE(info.tail_truncated);
  EXPECT_TRUE(recovered.empty());
}

TEST(Durability, CleanShutdownSyncsTheIntervalTail) {
  // FsyncPolicy::kInterval has no timer: an idle writer's dirty tail waits
  // for the next append, a rotation, or shutdown. The destructor is the
  // shutdown half of that promise.
  ScratchDir dir("intervalclose");
  ManualClock clock;
  FaultyFs faulty(RealFileSystem());  // counters only, no faults
  DurabilityOptions options = Opts(dir.path(), &faulty, &clock);
  options.fsync = FsyncPolicy::kInterval;
  options.fsync_interval_ms = 100;
  std::vector<CatalogEntry> recovered;
  {
    auto mgr = DurabilityManager::Open(options, &recovered, nullptr);
    ASSERT_TRUE(mgr.ok());
    ASSERT_TRUE((*mgr)->AppendUpsert("a", 1, MakeDb(2, " 0 1")).ok());
    EXPECT_EQ(faulty.syncs(), 0u);  // interval not elapsed: still dirty
  }
  EXPECT_EQ(faulty.syncs(), 1u);  // the destructor flushed the tail
}

TEST(Durability, RotationSyncsADirtyIntervalTailBeforeSwitching) {
  // The old log is never written again after rotation; leaving its
  // acknowledged tail unsynced until the snapshot lands would stretch the
  // interval policy's loss window indefinitely when the snapshot fails.
  ScratchDir dir("rotatesync");
  ManualClock clock;
  FaultyFs faulty(RealFileSystem());
  DurabilityOptions options = Opts(dir.path(), &faulty, &clock);
  options.fsync = FsyncPolicy::kInterval;
  options.fsync_interval_ms = 100;
  std::vector<CatalogEntry> recovered;
  auto mgr = DurabilityManager::Open(options, &recovered, nullptr);
  ASSERT_TRUE(mgr.ok());
  ASSERT_TRUE((*mgr)->AppendUpsert("a", 1, MakeDb(2, " 0 1")).ok());
  EXPECT_EQ(faulty.syncs(), 0u);
  uint64_t gen = 0;
  ASSERT_TRUE((*mgr)->RotateLog(&gen).ok());
  EXPECT_EQ(gen, 1u);
  EXPECT_EQ(faulty.syncs(), 1u);  // wal-0's tail synced before abandonment
}

TEST(DurabilityFaults, IntervalPolicySyncsOnTheClock) {
  ScratchDir dir("interval");
  ManualClock clock;
  FaultyFs faulty(RealFileSystem());  // counters only, no faults
  DurabilityOptions options = Opts(dir.path(), &faulty, &clock);
  options.fsync = FsyncPolicy::kInterval;
  options.fsync_interval_ms = 100;
  std::vector<CatalogEntry> recovered;
  auto mgr = DurabilityManager::Open(options, &recovered, nullptr);
  ASSERT_TRUE(mgr.ok());
  ASSERT_TRUE((*mgr)->AppendUpsert("a", 1, MakeDb(2, " 0 1")).ok());
  EXPECT_EQ((*mgr)->stats().wal_syncs, 0u);  // interval not yet elapsed
  clock.Advance(99);
  ASSERT_TRUE((*mgr)->AppendUpsert("b", 1, MakeDb(2, " 0 1")).ok());
  EXPECT_EQ((*mgr)->stats().wal_syncs, 0u);
  clock.Advance(1);
  ASSERT_TRUE((*mgr)->AppendUpsert("c", 1, MakeDb(2, " 0 1")).ok());
  EXPECT_EQ((*mgr)->stats().wal_syncs, 1u);  // 100ms elapsed: sync fired
}

// ------------------------------------------------- serving engine durable ---

serve::ServeOptions DurableServeOptions(const std::string& dir,
                                        FileSystem* fs = nullptr) {
  serve::ServeOptions o;
  o.durability.data_dir = dir;
  o.durability.fsync = FsyncPolicy::kAlways;
  o.durability.snapshot_every_records = 0;
  o.durability.fs = fs;
  return o;
}

TEST(ServingDurable, RegistryRecoversWithVersions) {
  ScratchDir dir("serve");
  {
    serve::ServingEngine engine(DurableServeOptions(dir.path()));
    ASSERT_TRUE(engine.Open(nullptr).ok());
    ASSERT_TRUE(engine.UpsertDatabase("g", MakeDb(3, " 0 1, 1 2")).ok());
    ASSERT_TRUE(engine.UpsertDatabase("g", MakeDb(3, " 0 1")).ok());
    ASSERT_TRUE(engine.UpsertDatabase("h", MakeDb(2, " 0 0")).ok());
    ASSERT_TRUE(engine.DropDatabase("h").ok());
  }
  serve::ServingEngine engine(DurableServeOptions(dir.path()));
  RecoveryInfo info;
  ASSERT_TRUE(engine.Open(&info).ok());
  EXPECT_EQ(info.records_replayed, 4u);
  const auto dbs = engine.ListDatabases();
  ASSERT_EQ(dbs.size(), 1u);
  EXPECT_EQ(dbs[0].first, "g");
  EXPECT_EQ(dbs[0].second, 2u);  // versions survive restarts
  // And the recovered database actually serves.
  serve::ServeRequest request;
  request.query = "Q() :- E(X, Y).";
  request.database = "g";
  request.task = HomTask::kDecide;
  auto result = engine.Serve(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->decided);
}

TEST(ServingDurable, WalFailureEntersStickyDegradedModeReadsKeepServing) {
  ScratchDir dir("degraded");
  FsFailpoints fp;
  fp.fail_write_n = 2;  // the second update's append fails
  FaultyFs faulty(RealFileSystem(), fp);
  serve::ServingEngine engine(DurableServeOptions(dir.path(), &faulty));
  ASSERT_TRUE(engine.Open(nullptr).ok());
  ASSERT_TRUE(engine.UpsertDatabase("g", MakeDb(3, " 0 1, 1 2")).ok());
  Status refused = engine.UpsertDatabase("g", MakeDb(3, " 0 1"));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  // Sticky: even though the failpoint has passed, updates stay refused.
  Status again = engine.UpsertDatabase("h", MakeDb(2, " 0 0"));
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(engine.degraded());
  EXPECT_TRUE(engine.stats().degraded);
  EXPECT_EQ(engine.stats().update_refusals, 2u);
  // Reads keep serving the last acknowledged state.
  serve::ServeRequest request;
  request.query = "Q() :- E(X, Y).";
  request.database = "g";
  request.task = HomTask::kCount;
  auto result = engine.Serve(request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 2u);  // the v1 contents, not the refused v2
  // The refused update never resurrects across a restart either.
  serve::ServingEngine reopened(DurableServeOptions(dir.path()));
  ASSERT_TRUE(reopened.Open(nullptr).ok());
  const auto dbs = reopened.ListDatabases();
  ASSERT_EQ(dbs.size(), 1u);
  EXPECT_EQ(dbs[0].second, 1u);
}

TEST(ServingDurable, ControlByteNamesAreRefusedAtAckTimeNotOnRecovery) {
  // The reviewer scenario: a name like "a\x01b" passes a loose ack-time
  // check, is WAL-logged, and recovery then truncates it — plus every
  // later acknowledged record — as a corrupt tail. The ack-time rule now
  // mirrors the recovery parsers exactly, so the record never exists.
  ScratchDir dir("ctrlname");
  {
    serve::ServingEngine engine(DurableServeOptions(dir.path()));
    ASSERT_TRUE(engine.Open(nullptr).ok());
    Status refused = engine.UpsertDatabase("a\x01" "b", MakeDb(2, " 0 1"));
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(engine.UpsertDatabase("del\x7f", MakeDb(2, " 0 1")).code(),
              StatusCode::kInvalidArgument);
    // The refusal is a caller error, not a log failure: not degraded, and
    // later updates are acknowledged and survive.
    EXPECT_FALSE(engine.degraded());
    ASSERT_TRUE(engine.UpsertDatabase("good", MakeDb(2, " 0 1")).ok());
    ASSERT_TRUE(engine.UpsertDatabase("also-good", MakeDb(2, " 1 0")).ok());
  }
  serve::ServingEngine engine(DurableServeOptions(dir.path()));
  RecoveryInfo info;
  ASSERT_TRUE(engine.Open(&info).ok());
  EXPECT_EQ(info.records_replayed, 2u);
  EXPECT_FALSE(info.tail_truncated);
  const auto dbs = engine.ListDatabases();
  ASSERT_EQ(dbs.size(), 2u);
  EXPECT_EQ(dbs[0].first, "also-good");
  EXPECT_EQ(dbs[1].first, "good");
}

TEST(ServingDurable, OversizedUpdateRefusedWithoutDegrading) {
  ScratchDir dir("oversizeserve");
  serve::ServeOptions options = DurableServeOptions(dir.path());
  options.durability.max_record_bytes = 32;
  serve::ServingEngine engine(options);
  ASSERT_TRUE(engine.Open(nullptr).ok());
  Status refused = engine.UpsertDatabase(
      "big", MakeDb(6, " 0 1, 1 2, 2 3, 3 4, 4 5"));
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  // One bad update refuses; the engine keeps acknowledging good ones.
  EXPECT_FALSE(engine.degraded());
  ASSERT_TRUE(engine.UpsertDatabase("ok", MakeDb(2, " 0 1")).ok());
  EXPECT_TRUE(engine.ListDatabases().size() == 1);
}

TEST(ServingDurable, SnapshotThresholdRotatesAndCatalogRecovers) {
  // End-to-end over the rotate-then-write path the engine now uses: with a
  // small snapshot threshold, a burst of updates crosses it repeatedly and
  // the final on-disk state (snapshot + log chain) reproduces the catalog.
  ScratchDir dir("serverotate");
  serve::ServeOptions options = DurableServeOptions(dir.path());
  options.durability.snapshot_every_records = 3;
  {
    serve::ServingEngine engine(options);
    ASSERT_TRUE(engine.Open(nullptr).ok());
    for (int i = 0; i < 10; ++i) {
      const std::string name = "db" + std::to_string(i % 4);
      ASSERT_TRUE(engine.UpsertDatabase(name, MakeDb(3, " 0 1, 1 2")).ok())
          << i;
    }
    ASSERT_TRUE(engine.DropDatabase("db0").ok());
  }
  serve::ServingEngine engine(DurableServeOptions(dir.path()));
  ASSERT_TRUE(engine.Open(nullptr).ok());
  const auto dbs = engine.ListDatabases();
  ASSERT_EQ(dbs.size(), 3u);
  EXPECT_EQ(dbs[0].first, "db1");
  EXPECT_EQ(dbs[1].first, "db2");
  EXPECT_EQ(dbs[2].first, "db3");
  // 10 upserts over 4 names, round-robin: db1/db2 hit version 3.
  EXPECT_EQ(dbs[0].second, 3u);
}

TEST(ServingDurable, VersionsStayMonotoneAcrossRestarts) {
  // An upsert after recovery must continue the version sequence, not
  // restart it — otherwise result-cache keys from before the crash could
  // collide with different content after it.
  ScratchDir dir("monotone");
  {
    serve::ServingEngine engine(DurableServeOptions(dir.path()));
    ASSERT_TRUE(engine.Open(nullptr).ok());
    ASSERT_TRUE(engine.UpsertDatabase("g", MakeDb(2, " 0 1")).ok());
    ASSERT_TRUE(engine.UpsertDatabase("g", MakeDb(2, " 1 0")).ok());
  }
  serve::ServingEngine engine(DurableServeOptions(dir.path()));
  ASSERT_TRUE(engine.Open(nullptr).ok());
  ASSERT_TRUE(engine.UpsertDatabase("g", MakeDb(2, " 1 1")).ok());
  EXPECT_EQ(engine.ListDatabases()[0].second, 3u);
}

// -------------------------------------------------------------- quarantine ---

TEST(Quarantine, RepeatedBudgetTripsQuarantineTheQueryText) {
  serve::ServeOptions options;
  options.poison_strikes = 2;
  // Failpoint: every run trips the governor on its first poll.
  options.engine.failpoints.trip_after_checks = 1;
  serve::ServingEngine engine(options);
  ASSERT_TRUE(engine.UpsertDatabase("g", MakeDb(3, " 0 1, 1 2")).ok());
  serve::ServeRequest request;
  request.query = "Q() :- E(X, Y), E(Y, Z).";
  request.database = "g";
  request.task = HomTask::kDecide;
  // Two strikes run (and trip); the third is refused up front.
  for (int i = 0; i < 2; ++i) {
    auto result = engine.Serve(request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->stats.governor.tripped);
  }
  auto refused = engine.Serve(request);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.stats().quarantined, 1u);
  EXPECT_EQ(engine.stats().poisoned_queries, 1u);
  // A different query text is unaffected.
  serve::ServeRequest other = request;
  other.query = "Q() :- E(X, X).";
  auto ok_result = engine.Serve(other);
  ASSERT_TRUE(ok_result.ok());
}

TEST(Quarantine, DatabaseUpdateClearsTheQuarantine) {
  serve::ServeOptions options;
  options.poison_strikes = 1;
  options.engine.failpoints.trip_after_checks = 1;
  serve::ServingEngine engine(options);
  ASSERT_TRUE(engine.UpsertDatabase("g", MakeDb(3, " 0 1")).ok());
  serve::ServeRequest request;
  request.query = "Q() :- E(X, Y).";
  request.database = "g";
  request.task = HomTask::kDecide;
  ASSERT_TRUE(engine.Serve(request).ok());        // strike 1 (tripped)
  ASSERT_FALSE(engine.Serve(request).ok());       // quarantined
  ASSERT_TRUE(engine.UpsertDatabase("g", MakeDb(3, " 0 1, 1 2")).ok());
  // The update cleared the quarantine: the query runs again (and trips
  // again, but it RUNS — fresh evidence against fresh data).
  auto retried = engine.Serve(request);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
}

TEST(Quarantine, CleanRunResetsTheStrikeCount) {
  serve::ServeOptions options;
  options.poison_strikes = 2;
  serve::ServingEngine engine(options);
  ASSERT_TRUE(engine.UpsertDatabase("g", MakeDb(3, " 0 1, 1 2")).ok());
  serve::ServeRequest request;
  request.query = "Q() :- E(X, Y).";
  request.database = "g";
  request.task = HomTask::kDecide;
  // No failpoints: runs are clean, strikes never accumulate.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.Serve(request).ok());
  }
  EXPECT_EQ(engine.stats().quarantined, 0u);
  EXPECT_EQ(engine.stats().poisoned_queries, 0u);
}

TEST(ServingDurable, StatsJsonCarriesDurabilityFields) {
  ScratchDir dir("statsjson");
  serve::ServingEngine engine(DurableServeOptions(dir.path()));
  ASSERT_TRUE(engine.Open(nullptr).ok());
  ASSERT_TRUE(engine.UpsertDatabase("g", MakeDb(2, " 0 1")).ok());
  const std::string json = engine.stats().ToJson();
  EXPECT_NE(json.find("\"degraded\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"wal_appends\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"quarantined\":0"), std::string::npos) << json;
}

// --------------------------------------------------------- fsync policies ---

TEST(Durability, FsyncPolicyNamesRoundTrip) {
  for (FsyncPolicy policy : {FsyncPolicy::kAlways, FsyncPolicy::kInterval,
                             FsyncPolicy::kNever}) {
    auto parsed = serve::ParseFsyncPolicyName(serve::FsyncPolicyName(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(serve::ParseFsyncPolicyName("sometimes").has_value());
}

}  // namespace
}  // namespace cqcs
