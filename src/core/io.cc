#include "core/io.h"

#include <charconv>
#include <limits>

#include "common/strings.h"

namespace cqcs {

namespace {

struct ParsedLine {
  std::string name;
  uint32_t arity = 0;
  std::vector<std::vector<Element>> tuples;
};

Status ParseRelationLine(std::string_view line, size_t line_no,
                         ParsedLine* out) {
  auto fail = [line_no](const std::string& what) {
    return Status::ParseError("line " + std::to_string(line_no) + ": " + what);
  };
  size_t colon = line.find(':');
  if (colon == std::string_view::npos) {
    return fail("expected 'name/arity: tuples'");
  }
  std::string_view head = StripAsciiWhitespace(line.substr(0, colon));
  size_t slash = head.find('/');
  if (slash == std::string_view::npos) {
    return fail("relation header must be 'name/arity'");
  }
  std::string_view name = StripAsciiWhitespace(head.substr(0, slash));
  if (!IsIdentifier(name)) {
    return fail("bad relation name '" + std::string(name) + "'");
  }
  uint64_t arity = 0;
  if (!ParseUint64(StripAsciiWhitespace(head.substr(slash + 1)), &arity) ||
      arity == 0 || arity > UINT32_MAX) {
    return fail("bad arity in '" + std::string(head) + "'");
  }
  out->name = std::string(name);
  out->arity = static_cast<uint32_t>(arity);

  std::string_view body = StripAsciiWhitespace(line.substr(colon + 1));
  if (body.empty()) return Status::OK();  // declared empty relation
  for (std::string_view piece : SplitString(body, ',')) {
    piece = StripAsciiWhitespace(piece);
    if (piece.empty()) return fail("empty tuple");
    std::vector<Element> tuple;
    for (std::string_view token : SplitWhitespace(piece)) {
      uint64_t e = 0;
      if (!ParseUint64(token, &e) || e > UINT32_MAX) {
        return fail("bad element '" + std::string(token) + "'");
      }
      tuple.push_back(static_cast<Element>(e));
    }
    if (tuple.size() != out->arity) {
      return fail("tuple of length " + std::to_string(tuple.size()) +
                  " in relation of arity " + std::to_string(out->arity));
    }
    out->tuples.push_back(std::move(tuple));
  }
  return Status::OK();
}

Result<Structure> ParseImpl(std::string_view text, VocabularyPtr fixed_vocab) {
  std::vector<ParsedLine> lines;
  bool saw_universe = false;
  uint64_t universe = 0;
  size_t line_no = 0;
  for (std::string_view raw : SplitString(text, '\n')) {
    ++line_no;
    size_t hash = raw.find('#');
    if (hash != std::string_view::npos) raw = raw.substr(0, hash);
    std::string_view line = StripAsciiWhitespace(raw);
    if (line.empty()) continue;
    if (!saw_universe) {
      auto tokens = SplitWhitespace(line);
      if (tokens.size() != 2 || tokens[0] != "universe" ||
          !ParseUint64(tokens[1], &universe)) {
        return Status::ParseError("line " + std::to_string(line_no) +
                                  ": expected 'universe <n>' first");
      }
      if (universe > UINT32_MAX) {
        return Status::ParseError(
            "line " + std::to_string(line_no) + ": universe size " +
            std::to_string(universe) + " exceeds the element limit " +
            std::to_string(UINT32_MAX));
      }
      saw_universe = true;
      continue;
    }
    ParsedLine parsed;
    Status s = ParseRelationLine(line, line_no, &parsed);
    if (!s.ok()) return s;
    lines.push_back(std::move(parsed));
  }
  if (!saw_universe) {
    return Status::ParseError("missing 'universe <n>' declaration");
  }

  VocabularyPtr vocab;
  if (fixed_vocab != nullptr) {
    vocab = std::move(fixed_vocab);
  } else {
    auto inferred = std::make_shared<Vocabulary>();
    for (const ParsedLine& line : lines) {
      if (auto existing = inferred->FindRelation(line.name)) {
        if (inferred->arity(*existing) != line.arity) {
          return Status::ParseError("relation '" + line.name +
                                    "' declared with two different arities");
        }
      } else {
        // TryAddRelation, not AddRelation: the abort-on-error variant would
        // make any duplicate/zero-arity slip in the guards above fatal on
        // user input (the PR 6 Result<> sweep, continued here because
        // catalog bytes arrive from disk after a crash).
        auto added = inferred->TryAddRelation(line.name, line.arity);
        if (!added.ok()) return added.status();
      }
    }
    vocab = inferred;
  }

  Structure out(vocab, universe);
  for (const ParsedLine& line : lines) {
    auto id = vocab->FindRelation(line.name);
    if (!id.has_value()) {
      return Status::ParseError("unknown relation '" + line.name + "'");
    }
    if (vocab->arity(*id) != line.arity) {
      return Status::ParseError("relation '" + line.name + "' has arity " +
                                std::to_string(vocab->arity(*id)) +
                                " in the vocabulary");
    }
    for (const auto& tuple : line.tuples) {
      Status s = out.TryAddTuple(*id, tuple);
      if (!s.ok()) return s;
    }
  }
  return out;
}

}  // namespace

Result<Structure> ParseStructure(std::string_view text) {
  return ParseImpl(text, nullptr);
}

Result<Structure> ParseStructure(std::string_view text, VocabularyPtr vocab) {
  return ParseImpl(text, std::move(vocab));
}

// Catalog names travel on single header lines and become file-key
// segments downstream; whitespace and control bytes would corrupt both.
bool IsCatalogName(std::string_view name) {
  if (name.empty()) return false;
  for (unsigned char c : name) {
    if (c <= ' ' || c == 0x7F) return false;
  }
  return true;
}

std::string PrintCatalog(const std::vector<CatalogEntry>& entries) {
  std::string out = "cqcs-catalog 1\n";
  size_t bytes = out.size();
  for (const CatalogEntry& entry : entries) {
    bytes += entry.name.size() + 32 + StructureTextHint(entry.db);
  }
  out.reserve(bytes);
  for (const CatalogEntry& entry : entries) {
    out += "db ";
    out += entry.name;
    out += ' ';
    AppendUint64(entry.version, &out);
    out += '\n';
    AppendStructure(entry.db, &out);
    out += "end\n";
  }
  return out;
}

Result<std::vector<CatalogEntry>> ParseCatalog(std::string_view text) {
  std::vector<CatalogEntry> entries;
  std::vector<std::string_view> lines = SplitString(text, '\n');
  size_t i = 0;
  auto fail = [](size_t line_no, const std::string& what) {
    return Status::ParseError("catalog line " + std::to_string(line_no + 1) +
                              ": " + what);
  };
  if (lines.empty() ||
      StripAsciiWhitespace(lines[0]) != "cqcs-catalog 1") {
    return fail(0, "expected 'cqcs-catalog 1' header");
  }
  ++i;
  while (i < lines.size()) {
    std::string_view line = StripAsciiWhitespace(lines[i]);
    if (line.empty()) {
      ++i;
      continue;
    }
    auto tokens = SplitWhitespace(line);
    if (tokens.size() != 3 || tokens[0] != "db") {
      return fail(i, "expected 'db <name> <version>'");
    }
    std::string name(tokens[1]);
    if (!IsCatalogName(name)) {
      return fail(i, "bad database name");
    }
    for (const CatalogEntry& prev : entries) {
      if (prev.name == name) {
        return fail(i, "duplicate database '" + name + "'");
      }
    }
    uint64_t version = 0;
    if (!ParseUint64(tokens[2], &version)) {
      return fail(i, "bad version '" + std::string(tokens[2]) + "'");
    }
    const size_t block_start = ++i;
    while (i < lines.size() && StripAsciiWhitespace(lines[i]) != "end") {
      ++i;
    }
    if (i == lines.size()) {
      return fail(block_start - 1,
                  "unterminated 'db " + name + "' block (missing 'end')");
    }
    // Re-slice the original text so the structure parser sees the exact
    // bytes (line numbers in its errors are relative to the block).
    const char* begin = lines[block_start - 1].data() +
                        lines[block_start - 1].size() + 1;
    const char* stop = lines[i].data();
    auto db = ParseStructure(std::string_view(
        begin, static_cast<size_t>(stop - begin)));
    if (!db.ok()) {
      return Status::ParseError("catalog database '" + name +
                                "': " + db.status().ToString());
    }
    Status valid = db->Validate();
    if (!valid.ok()) {
      return Status::ParseError("catalog database '" + name +
                                "': " + valid.ToString());
    }
    entries.push_back(CatalogEntry{std::move(name), version, *std::move(db)});
    ++i;  // past 'end'
  }
  return entries;
}

size_t StructureTextHint(const Structure& s) {
  // Each element takes its digits plus one separator; an element below the
  // universe size has at most as many digits as the size itself. A
  // structure with an out-of-range element only makes the string grow.
  size_t digits = 1;
  for (size_t n = s.universe_size(); n >= 10; n /= 10) ++digits;
  size_t bytes = 32;
  const Vocabulary& vocab = *s.vocabulary();
  for (RelId id = 0; id < vocab.size(); ++id) {
    const Relation& r = s.relation(id);
    bytes += vocab.name(id).size() + 16 + r.tuple_count() +
             r.data().size() * (digits + 1);
  }
  return bytes;
}

void AppendStructure(const Structure& s, std::string* out) {
  *out += "universe ";
  AppendUint64(s.universe_size(), out);
  *out += '\n';
  const Vocabulary& vocab = *s.vocabulary();
  for (RelId id = 0; id < vocab.size(); ++id) {
    const Relation& r = s.relation(id);
    *out += vocab.name(id);
    *out += '/';
    AppendUint64(r.arity(), out);
    *out += ':';
    // The tuples lie end to end in r.data(): a tuple's first element is
    // preceded by " " (first tuple) or ", ", every other element by " ".
    // Elements are formatted into a stack block that is appended whole, so
    // the string checks its capacity once per block, not once per byte.
    char block[1024];
    // ", " and the digits of the widest element.
    constexpr size_t kMaxPiece =
        2 + std::numeric_limits<Element>::digits10 + 1;
    size_t used = 0;
    const std::vector<Element>& data = r.data();
    for (size_t i = 0, pos = 0; i < data.size(); ++i) {
      // >=, not >: one byte stays free after the last piece for the '\n'.
      if (used + kMaxPiece >= sizeof(block)) {
        out->append(block, used);
        used = 0;
      }
      if (pos == 0 && i > 0) block[used++] = ',';
      block[used++] = ' ';
      used = static_cast<size_t>(
          std::to_chars(block + used, block + sizeof(block), data[i]).ptr -
          block);
      if (++pos == r.arity()) pos = 0;
    }
    block[used++] = '\n';
    out->append(block, used);
  }
}

std::string PrintStructure(const Structure& s) {
  std::string out;
  out.reserve(StructureTextHint(s));
  AppendStructure(s, &out);
  return out;
}

}  // namespace cqcs
