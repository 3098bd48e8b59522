// Tests for the repo-specific lint pass (tools/lint): each rule must fire
// on its violating fixture and stay quiet on the clean / waived twin, and
// the waiver comment syntax must round-trip through the parser.

#include "lint/lint.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace cqcs::lint {
namespace {

#ifndef CQCS_LINT_FIXTURE_DIR
#error "CQCS_LINT_FIXTURE_DIR must point at tests/lint_fixtures"
#endif

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(CQCS_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Lints fixture `name` under the fake repo path `as_path`.
std::vector<Finding> LintFixture(const std::string& name,
                                 const std::string& as_path,
                                 bool has_sibling_header = false) {
  FileInput input;
  input.path = as_path;
  input.content = ReadFixture(name);
  input.has_sibling_header = has_sibling_header;
  return LintFile(input);
}

std::vector<std::string> RulesFired(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

// ----------------------------------------------------------- unpolled-loop

TEST(UnpolledLoop, FiresOnUngovernedOuterLoop) {
  auto findings = LintFixture("unpolled_loop_bad.cc", "src/rel/ops.cc");
  ASSERT_EQ(findings.size(), 1u) << "inner loop must not double-report";
  EXPECT_EQ(findings[0].rule, "unpolled-loop");
  EXPECT_EQ(findings[0].line, 6);
}

TEST(UnpolledLoop, QuietWhenLoopPolls) {
  EXPECT_TRUE(
      LintFixture("unpolled_loop_ok.cc", "src/rel/ops.cc").empty());
}

TEST(UnpolledLoop, QuietWhenWaived) {
  EXPECT_TRUE(
      LintFixture("unpolled_loop_waived.cc", "src/treewidth/hom_dp.cc")
          .empty());
}

TEST(UnpolledLoop, FiresOnceOnDoWhile) {
  auto findings = LintFixture("unpolled_loop_do.cc", "src/rel/ops.cc");
  ASSERT_EQ(findings.size(), 1u) << "tail while must not double-report";
  EXPECT_EQ(findings[0].rule, "unpolled-loop");
  EXPECT_EQ(findings[0].line, 6);
}

TEST(UnpolledLoop, ScansWhileAfterClosingBrace) {
  auto findings =
      LintFixture("unpolled_loop_after_block.cc", "src/rel/ops.cc");
  ASSERT_EQ(findings.size(), 1u)
      << "the nested while must fire exactly once, at its own line";
  EXPECT_EQ(findings[0].line, 9);
}

TEST(UnpolledLoop, QuietOnFlatLoop) {
  // Only nested loop structures must poll; a flat pass over materialized
  // data is amortized by the charge that built it.
  EXPECT_TRUE(
      LintFixture("unpolled_loop_flat.cc", "src/rel/ops.cc").empty());
}

TEST(UnpolledLoop, RuleOnlyAppliesToGovernedFiles) {
  // The same ungoverned loop in a non-hot-path file is fine.
  EXPECT_TRUE(
      LintFixture("unpolled_loop_bad.cc", "src/core/graph.cc").empty());
}

TEST(UnpolledLoop, CoversMorselWorkerBodies) {
  // The morsel pool dispatches the governed bodies, so its own loops are
  // in the governed set too: an unpolled nested loop there would let a
  // stuck worker outlive every budget.
  auto findings =
      LintFixture("unpolled_loop_bad.cc", "src/common/work_pool.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unpolled-loop");
}

TEST(UnpolledLoop, CoversThePebbleGame) {
  // The pebble preflight runs inside governed engine runs and costs
  // Θ(n^{2k}), so its loops are in the governed set.
  auto findings = LintFixture("unpolled_loop_bad.cc", "src/pebble/game.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unpolled-loop");
}

// ------------------------------------------------------------ banned-abort

TEST(BannedAbort, FiresOnCheckAndAbortInInputReachableCode) {
  auto findings = LintFixture("banned_abort_bad.cc", "src/core/io.cc");
  EXPECT_EQ(RulesFired(findings),
            (std::vector<std::string>{"banned-abort", "banned-abort"}));
}

TEST(BannedAbort, AppliesUnderServe) {
  EXPECT_FALSE(
      LintFixture("banned_abort_bad.cc", "src/serve/serving.cc").empty());
}

TEST(BannedAbort, QuietWhenWaivedPerSite) {
  EXPECT_TRUE(
      LintFixture("banned_abort_waived.cc", "src/core/io.cc").empty());
}

TEST(BannedAbort, RuleOnlyAppliesToInputReachableModules) {
  // CQCS_CHECK remains the invariant idiom everywhere else (solver core).
  EXPECT_TRUE(
      LintFixture("banned_abort_bad.cc", "src/solver/propagator.cc")
          .empty());
}

// ------------------------------------------------------------- banned-call

TEST(BannedCall, FiresOnRandSrandSystem) {
  auto findings = LintFixture("banned_call_bad.cc", "src/gen/generators.cc");
  EXPECT_EQ(findings.size(), 3u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "banned-call");
}

TEST(BannedCall, QuietOnCommentsStringsAndSubstrings) {
  EXPECT_TRUE(
      LintFixture("banned_call_clean.cc", "src/gen/generators.cc").empty());
}

// ------------------------------------------------------------ header-guard

TEST(HeaderGuard, FiresOnWrongGuard) {
  auto findings = LintFixture("header_guard_bad.h", "src/common/fixture.h");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "header-guard");
  EXPECT_NE(findings[0].message.find("CQCS_COMMON_FIXTURE_H_"),
            std::string::npos);
}

TEST(HeaderGuard, QuietOnCanonicalGuard) {
  EXPECT_TRUE(
      LintFixture("header_guard_ok.h", "src/common/fixture.h").empty());
}

// ------------------------------------------------------------ header-first

TEST(HeaderFirst, FiresWhenOwnHeaderIsNotFirst) {
  auto findings = LintFixture("header_first_bad.cc", "src/common/fixture.cc",
                              /*has_sibling_header=*/true);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "header-first");
}

TEST(HeaderFirst, QuietWhenOwnHeaderLeads) {
  EXPECT_TRUE(LintFixture("header_first_ok.cc", "src/common/fixture.cc",
                          /*has_sibling_header=*/true)
                  .empty());
}

TEST(HeaderFirst, QuietWithoutSiblingHeader) {
  EXPECT_TRUE(LintFixture("header_first_bad.cc", "src/common/fixture.cc",
                          /*has_sibling_header=*/false)
                  .empty());
}

// ----------------------------------------------------------------- waivers

TEST(Waivers, MalformedWaiversFireMetaRuleAndDoNotWaive) {
  auto findings = LintFixture("waiver_malformed.cc", "src/serve/fixture.cc");
  // Three malformed directives plus the un-waived CQCS_CHECK.
  EXPECT_EQ(RulesFired(findings),
            (std::vector<std::string>{"waiver", "waiver", "waiver",
                                      "banned-abort"}));
}

TEST(Waivers, CanonicalCommentRoundTrips) {
  for (const std::string& rule : RuleNames()) {
    const std::string reason = "some documented reason for " + rule;
    const std::string comment = MakeWaiverComment(rule, reason);
    std::vector<Finding> findings;
    auto waivers = ParseWaivers("src/x.cc", comment + "\n", &findings);
    EXPECT_TRUE(findings.empty()) << comment;
    ASSERT_EQ(waivers.size(), 1u) << comment;
    EXPECT_EQ(waivers[0].rule, rule);
    EXPECT_EQ(waivers[0].reason, reason);
    EXPECT_FALSE(waivers[0].file_scope);
    EXPECT_EQ(waivers[0].line, 1);
  }
}

TEST(Waivers, FileScopeWaiverCoversEveryLine) {
  const std::string content =
      "// cqcs-lint: allow-file(banned-abort): fixture exercising aborts\n"
      "#include \"common/check.h\"\n"
      "void A(int n) { CQCS_CHECK(n); }\n"
      "void B(int n) { CQCS_CHECK(n); }\n";
  FileInput input{"src/serve/x.cc", content, false};
  EXPECT_TRUE(LintFile(input).empty());
}

TEST(Waivers, InlineWaiverDoesNotLeakPastNextLine) {
  const std::string content =
      "#include \"common/check.h\"\n"
      "// cqcs-lint: allow(banned-abort): only the next line is covered\n"
      "void A(int n) { CQCS_CHECK(n); }\n"
      "void B(int n) { CQCS_CHECK(n); }\n";
  FileInput input{"src/serve/x.cc", content, false};
  auto findings = LintFile(input);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
}

// ------------------------------------------------------- masking internals

TEST(Masking, StringsCommentsAndRawStringsAreBlanked) {
  const std::string content =
      "int x = 0; // system(\"rm\")\n"
      "const char* s = \"abort(\";\n"
      "const char* r = R\"(std::rand())\";\n";
  const std::string mask = StripCommentsAndStrings(content);
  EXPECT_EQ(mask.find("system"), std::string::npos);
  EXPECT_EQ(mask.find("abort"), std::string::npos);
  EXPECT_EQ(mask.find("rand"), std::string::npos);
  EXPECT_NE(mask.find("int x = 0;"), std::string::npos);
  // Line structure survives for diagnostics.
  EXPECT_EQ(std::count(mask.begin(), mask.end(), '\n'), 3);
}

}  // namespace
}  // namespace cqcs::lint
