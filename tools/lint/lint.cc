#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace cqcs::lint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// 1-based line number of byte offset `pos` in `s`.
int LineOf(const std::string& s, size_t pos) {
  return 1 + static_cast<int>(std::count(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(pos), '\n'));
}

std::string Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

/// True when a whole-word occurrence of `word` starts at `pos` in `mask`.
bool WordAt(std::string_view mask, size_t pos, std::string_view word) {
  if (pos + word.size() > mask.size()) return false;
  if (mask.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && IsIdentChar(mask[pos - 1])) return false;
  size_t end = pos + word.size();
  if (end < mask.size() && IsIdentChar(mask[end])) return false;
  return true;
}

/// Finds whole-word occurrences of `word` in `mask`; optionally requires a
/// '(' as the next non-space character (call-site matching).
std::vector<size_t> FindWord(const std::string& mask, std::string_view word,
                             bool require_call) {
  std::vector<size_t> hits;
  for (size_t pos = mask.find(word); pos != std::string::npos;
       pos = mask.find(word, pos + 1)) {
    if (!WordAt(mask, pos, word)) continue;
    if (require_call) {
      size_t after = pos + word.size();
      while (after < mask.size() && (mask[after] == ' ' || mask[after] == '\t'))
        ++after;
      if (after >= mask.size() || mask[after] != '(') continue;
    }
    hits.push_back(pos);
  }
  return hits;
}

/// Matches the bracket opened at `open` (mask[open] must be '(' or '{');
/// returns the offset one past the closer, or npos if unbalanced.
size_t MatchBracket(const std::string& mask, size_t open) {
  const char open_c = mask[open];
  const char close_c = open_c == '(' ? ')' : '}';
  int depth = 0;
  for (size_t i = open; i < mask.size(); ++i) {
    if (mask[i] == open_c) ++depth;
    else if (mask[i] == close_c && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

struct WaiverIndex {
  std::vector<Waiver> waivers;

  bool Waived(const std::string& rule, int line) const {
    for (const Waiver& w : waivers) {
      if (w.rule != rule) continue;
      if (w.file_scope) return true;
      // An inline waiver covers its own line and the next line, so it can
      // sit either at the end of the offending line or just above it.
      if (line == w.line || line == w.line + 1) return true;
    }
    return false;
  }
};

void Report(std::vector<Finding>* findings, const FileInput& input,
            const WaiverIndex& waivers, int line, const std::string& rule,
            std::string message) {
  if (waivers.Waived(rule, line)) return;
  findings->push_back(Finding{input.path, line, rule, std::move(message)});
}

// ----------------------------------------------------------------- rules ---

/// Files whose loops must stay governed (cooperative Poll/trip machinery).
bool IsGovernedHotPath(const std::string& path) {
  return path == "src/rel/ops.cc" || path == "src/treewidth/hom_dp.cc" ||
         path == "src/cq/acyclic.cc" || path == "src/common/work_pool.cc" ||
         path == "src/pebble/game.cc";
}

/// Input-reachable modules: arbitrarily corrupt bytes get here, so aborts
/// are banned (Result<> instead).
bool IsInputReachable(const std::string& path) {
  return StartsWith(path, "src/core/io") || StartsWith(path, "src/serve/");
}

bool IsLibraryCode(const std::string& path) {
  return StartsWith(path, "src/") || StartsWith(path, "tools/");
}

void CheckUnpolledLoops(const FileInput& input, const std::string& mask,
                        const WaiverIndex& waivers,
                        std::vector<Finding>* findings) {
  static const char* kGovernedTokens[] = {"Poll", "trip_flag", "governor",
                                          "SyncCharge", "cancel"};
  size_t outer_end = 0;  // end of the current outermost loop span
  for (size_t i = 0; i < mask.size(); ++i) {
    bool is_for = WordAt(mask, i, "for");
    bool is_while = WordAt(mask, i, "while");
    bool is_do = WordAt(mask, i, "do");
    if (!is_for && !is_while && !is_do) continue;
    if (i < outer_end) continue;  // nested in an already-checked loop
    size_t after_head;
    if (is_do) {
      // `do { body } while (cond);` — the braces are the span; the tail
      // `while` lands past outer_end but its head holds no nested loop, so
      // it can never re-fire.
      after_head = i + 2;
    } else {
      size_t open = mask.find_first_not_of(" \t\n", i + (is_for ? 3 : 5));
      if (open == std::string::npos || mask[open] != '(') continue;
      after_head = MatchBracket(mask, open);
      if (after_head == std::string::npos) continue;
    }
    size_t body = mask.find_first_not_of(" \t\n", after_head);
    if (body == std::string::npos) continue;
    size_t end;
    if (mask[body] == '{') {
      end = MatchBracket(mask, body);
      if (end == std::string::npos) continue;
    } else {
      end = mask.find(';', body);
      if (end == std::string::npos) continue;
      ++end;
    }
    outer_end = end;
    std::string_view span(mask.data() + i, end - i);
    // Only nested loop structures must poll: a flat loop in these files is
    // a single pass over an already-charged materialization, amortized by
    // the SyncCharge that built it. Superlinear work — the thing a budget
    // exists to interrupt — needs a loop inside the loop.
    std::string_view body_span(mask.data() + after_head, end - after_head);
    bool nested = false;
    for (size_t j = 0; j + 3 < body_span.size(); ++j) {
      if (WordAt(body_span, j, "for") || WordAt(body_span, j, "while")) {
        nested = true;
        break;
      }
    }
    if (!nested) continue;
    bool governed = false;
    for (const char* token : kGovernedTokens) {
      if (span.find(token) != std::string_view::npos) {
        governed = true;
        break;
      }
    }
    if (!governed) {
      Report(findings, input, waivers, LineOf(mask, i), "unpolled-loop",
             "nested outermost loop in a governed hot-path file never "
             "references the governor (Poll/trip_flag); add a poll or waive "
             "with the bound that makes it safe");
    }
  }
}

void CheckBannedAbort(const FileInput& input, const std::string& mask,
                      const WaiverIndex& waivers,
                      std::vector<Finding>* findings) {
  for (size_t pos : FindWord(mask, "CQCS_CHECK", false)) {
    // CQCS_CHECK also prefixes CQCS_CHECK_MSG; both abort.
    Report(findings, input, waivers, LineOf(mask, pos), "banned-abort",
           "CQCS_CHECK aborts the process; this module is input-reachable — "
           "return a Status instead (see PRs 6/8)");
  }
  for (size_t pos : FindWord(mask, "abort", true)) {
    Report(findings, input, waivers, LineOf(mask, pos), "banned-abort",
           "abort() in an input-reachable module; return a Status instead");
  }
}

void CheckBannedCalls(const FileInput& input, const std::string& mask,
                      const WaiverIndex& waivers,
                      std::vector<Finding>* findings) {
  for (std::string_view fn : {"rand", "srand"}) {
    // Matches qualified and unqualified spellings alike (std::rand, rand);
    // the repo owns no member named rand, so strict is safe.
    for (size_t pos : FindWord(mask, fn, true)) {
      Report(findings, input, waivers, LineOf(mask, pos), "banned-call",
             std::string(fn) +
                 "() is unseeded global state; use common/rng.h");
    }
  }
  for (size_t pos : FindWord(mask, "system", true)) {
    Report(findings, input, waivers, LineOf(mask, pos), "banned-call",
           "system() spawns a shell from library code");
  }
}

std::string ExpectedGuard(const std::string& path) {
  std::string body = StartsWith(path, "src/") ? path.substr(4) : path;
  std::string guard = "CQCS_";
  for (char c : body) {
    guard += IsIdentChar(c) && c != '_'
                 ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                 : '_';
  }
  guard += '_';
  // "foo.h" became "FOO_H"; the trailing '_' above finishes "FOO_H_".
  return guard;
}

void CheckHeaderGuard(const FileInput& input, const WaiverIndex& waivers,
                      std::vector<Finding>* findings) {
  const std::string guard = ExpectedGuard(input.path);
  const bool has_ifndef =
      input.content.find("#ifndef " + guard) != std::string::npos;
  const bool has_define =
      input.content.find("#define " + guard) != std::string::npos;
  if (!has_ifndef || !has_define) {
    Report(findings, input, waivers, 1, "header-guard",
           "missing canonical include guard " + guard);
  }
}

void CheckHeaderFirst(const FileInput& input, const std::string& mask,
                      const WaiverIndex& waivers,
                      std::vector<Finding>* findings) {
  // Expected first include: the file's own header, repo-include-relative
  // (src/api/problem.cc includes "api/problem.h").
  std::string own = input.path;
  own.replace(own.size() - 3, 3, ".h");
  if (StartsWith(own, "src/")) own = own.substr(4);
  else if (StartsWith(own, "tools/")) own = own.substr(6);
  size_t pos = mask.find("#include");
  if (pos == std::string::npos) {
    Report(findings, input, waivers, 1, "header-first",
           "has a sibling header but never includes it");
    return;
  }
  // The include path is a string literal, blanked in the mask — read it
  // from the original content.
  size_t open = input.content.find_first_of("\"<", pos);
  size_t close = open == std::string::npos
                     ? std::string::npos
                     : input.content.find_first_of("\">", open + 1);
  std::string first = close == std::string::npos
                          ? ""
                          : input.content.substr(open + 1, close - open - 1);
  if (first != own) {
    Report(findings, input, waivers, LineOf(mask, pos), "header-first",
           "first include must be the file's own header \"" + own +
               "\" (got \"" + first + "\"), proving it self-contained");
  }
}

}  // namespace

const std::vector<std::string>& RuleNames() {
  static const std::vector<std::string> kRules = {
      "unpolled-loop", "banned-abort", "banned-call",
      "header-guard",  "header-first", "waiver"};
  return kRules;
}

std::string MakeWaiverComment(const std::string& rule,
                              const std::string& reason) {
  return "// cqcs-lint: allow(" + rule + "): " + reason;
}

namespace {

/// One pass over the lexical structure: `code` is the content with comment
/// and string/char-literal bodies blanked; `comments` is the inverse — only
/// comment text survives. Newlines survive in both, so line numbers and
/// line-oriented parsing keep working.
void SplitMasks(const std::string& content, std::string* code,
                std::string* comments) {
  const size_t n = content.size();
  *code = content;
  comments->assign(n, ' ');
  for (size_t k = 0; k < n; ++k) {
    if (content[k] == '\n') (*comments)[k] = '\n';
  }
  auto blank_code = [&](size_t from, size_t to, bool is_comment) {
    for (size_t k = from; k < to && k < n; ++k) {
      if ((*code)[k] == '\n') continue;
      if (is_comment) (*comments)[k] = (*code)[k];
      (*code)[k] = ' ';
    }
  };
  size_t i = 0;
  while (i < n) {
    char c = content[i];
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      size_t end = content.find('\n', i);
      if (end == std::string::npos) end = n;
      blank_code(i, end, /*is_comment=*/true);
      i = end;
    } else if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      size_t end = content.find("*/", i + 2);
      end = end == std::string::npos ? n : end + 2;
      blank_code(i, end, /*is_comment=*/true);
      i = end;
    } else if (c == 'R' && i + 1 < n && content[i + 1] == '"' &&
               (i == 0 || !IsIdentChar(content[i - 1]))) {
      size_t paren = content.find('(', i + 2);
      if (paren == std::string::npos) break;
      // Built piecewise: GCC 12 mis-fires -Wrestrict on the equivalent
      // `")" + substr + "\""` chain at -O2.
      std::string delim(1, ')');
      delim.append(content, i + 2, paren - (i + 2));
      delim.push_back('"');
      size_t end = content.find(delim, paren + 1);
      end = end == std::string::npos ? n : end + delim.size();
      blank_code(i, end, /*is_comment=*/false);
      i = end;
    } else if (c == '"' || c == '\'') {
      size_t j = i + 1;
      while (j < n && content[j] != c) {
        j += content[j] == '\\' ? 2 : 1;
      }
      // Keep the quotes, blank the body.
      blank_code(i + 1, std::min(j, n), /*is_comment=*/false);
      i = std::min(j, n) + 1;
    } else {
      ++i;
    }
  }
}

}  // namespace

std::string StripCommentsAndStrings(const std::string& content) {
  std::string code, comments;
  SplitMasks(content, &code, &comments);
  return code;
}

std::vector<Waiver> ParseWaivers(const std::string& path,
                                 const std::string& content,
                                 std::vector<Finding>* findings) {
  std::vector<Waiver> waivers;
  static const std::string kTag = "cqcs-lint:";
  // Directives live in comments only: the marker inside a string literal
  // (this very file holds one) is data, not a waiver.
  std::string code, comments;
  SplitMasks(content, &code, &comments);
  size_t pos = 0;
  while ((pos = comments.find(kTag, pos)) != std::string::npos) {
    const int line = LineOf(comments, pos);
    size_t eol = comments.find('\n', pos);
    if (eol == std::string::npos) eol = comments.size();
    std::string rest = Trim(comments.substr(pos + kTag.size(),
                                            eol - pos - kTag.size()));
    pos = eol;
    auto bad = [&](const std::string& why) {
      findings->push_back(Finding{path, line, "waiver", why});
    };
    bool file_scope = false;
    std::string_view r(rest);
    if (StartsWith(r, "allow-file(")) {
      file_scope = true;
      r.remove_prefix(11);
    } else if (StartsWith(r, "allow(")) {
      r.remove_prefix(6);
    } else {
      bad("malformed waiver: expected 'allow(<rule>): <reason>' or "
          "'allow-file(<rule>): <reason>'");
      continue;
    }
    size_t close = r.find(')');
    if (close == std::string_view::npos) {
      bad("malformed waiver: missing ')'");
      continue;
    }
    std::string rule(r.substr(0, close));
    const auto& names = RuleNames();
    if (std::find(names.begin(), names.end(), rule) == names.end()) {
      bad("waiver names unknown rule '" + rule + "'");
      continue;
    }
    r.remove_prefix(close + 1);
    if (r.empty() || r[0] != ':') {
      bad("waiver for '" + rule + "' missing ': <reason>'");
      continue;
    }
    std::string reason = Trim(r.substr(1));
    if (reason.empty()) {
      bad("waiver for '" + rule + "' has an empty reason — say why the "
          "discard/exception is sound");
      continue;
    }
    waivers.push_back(Waiver{line, std::move(rule), std::move(reason),
                             file_scope});
  }
  return waivers;
}

std::vector<Finding> LintFile(const FileInput& input) {
  std::vector<Finding> findings;
  WaiverIndex waivers{ParseWaivers(input.path, input.content, &findings)};
  const std::string mask = StripCommentsAndStrings(input.content);

  if (IsGovernedHotPath(input.path)) {
    CheckUnpolledLoops(input, mask, waivers, &findings);
  }
  if (IsInputReachable(input.path)) {
    CheckBannedAbort(input, mask, waivers, &findings);
  }
  if (IsLibraryCode(input.path)) {
    CheckBannedCalls(input, mask, waivers, &findings);
    if (EndsWith(input.path, ".h")) {
      CheckHeaderGuard(input, waivers, &findings);
    }
    if (EndsWith(input.path, ".cc") && input.has_sibling_header) {
      CheckHeaderFirst(input, mask, waivers, &findings);
    }
  }
  return findings;
}

std::string FormatFinding(const Finding& f) {
  return f.path + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

}  // namespace cqcs::lint
