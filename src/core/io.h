// Text format for structures, for examples, tests, and tooling.
//
// Grammar (line oriented; '#' starts a comment):
//
//   universe 5
//   E/2: 0 1, 1 2, 2 3
//   P/1: 0
//
// The first non-comment line must declare the universe size. Each following
// line declares one relation: "name/arity:" then comma-separated tuples of
// whitespace-separated element indices. A relation may be declared on
// multiple lines; tuples accumulate. Relations never mentioned are empty
// only if they are present in the supplied vocabulary; when parsing without
// a vocabulary the vocabulary is inferred from the declarations.

// A catalog — the serving layer's full database registry — serializes as a
// framed sequence of structures (the snapshot payload of
// serve/durability.h):
//
//   cqcs-catalog 1
//   db <name> <version>
//   <structure text>
//   end
//   db ...
//
// Every parse path returns Result<>: catalog bytes come from disk after a
// crash and may be arbitrarily corrupt, so nothing in here may abort.

#ifndef CQCS_CORE_IO_H_
#define CQCS_CORE_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/structure.h"

namespace cqcs {

/// Parses a structure, inferring its vocabulary from the text.
Result<Structure> ParseStructure(std::string_view text);

/// Parses a structure against a fixed vocabulary; relations absent from the
/// text are empty; unknown relation names are an error.
Result<Structure> ParseStructure(std::string_view text, VocabularyPtr vocab);

/// Prints a structure in the format ParseStructure accepts.
std::string PrintStructure(const Structure& s);

/// Appends PrintStructure(s) to `*out`, so a writer can encode a structure
/// straight into a larger buffer (a WAL frame, a snapshot).
void AppendStructure(const Structure& s, std::string* out);

/// A bound on PrintStructure(s).size() for reserve(): it holds whenever
/// every element lies below the universe size, as Validate() requires.
size_t StructureTextHint(const Structure& s);

/// One named, versioned database in a serialized catalog. The structure is
/// shared and immutable, so a catalog can hold the very structures a live
/// registry serves (a snapshot prints them with no copy).
struct CatalogEntry {
  std::string name;
  uint64_t version = 0;
  std::shared_ptr<const Structure> db;
};

/// The durable-name rule: catalog names travel on single header lines in
/// snapshots and WAL records, so a valid name is nonempty and contains no
/// byte <= 0x20 (space and all controls) and no 0x7F (DEL). Everything
/// that acknowledges a name as durable must enforce exactly this predicate
/// — a name the recovery parsers would reject must never reach disk.
bool IsCatalogName(std::string_view name);

/// Serializes a catalog in the format ParseCatalog accepts. Entry order is
/// preserved (PrintCatalog -> ParseCatalog round-trips exactly).
std::string PrintCatalog(const std::vector<CatalogEntry>& entries);

/// Parses a catalog. ParseError on any deviation — bad magic, a name with
/// whitespace or control bytes, a duplicate name, a truncated entry, or a
/// structure block ParseStructure rejects.
Result<std::vector<CatalogEntry>> ParseCatalog(std::string_view text);

}  // namespace cqcs

#endif  // CQCS_CORE_IO_H_
