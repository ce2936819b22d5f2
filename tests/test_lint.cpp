// Tests for mplint (tools/mplint) — the in-repo static analyzer.  Each
// checker gets positive and negative fixtures fed through lint_source with
// synthetic repo-relative paths (the path picks the policy), the
// suppression grammar is exercised corner by corner, and a meta-test lints
// the real tree at MPLINT_SOURCE_ROOT asserting it is finding-free.

#include "mplint/mplint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace {

using mp::lint::Finding;
using mp::lint::lint_source;
using mp::lint::lint_tree;
using mp::lint::Policy;
using mp::lint::policy_for;
using mp::lint::Token;
using mp::lint::tokenize;
using mp::lint::TokKind;

std::vector<std::string> checks_of(const std::vector<Finding>& findings) {
  std::vector<std::string> names;
  names.reserve(findings.size());
  for (const Finding& f : findings) names.push_back(f.check);
  return names;
}

bool has_check(const std::vector<Finding>& findings, const std::string& name) {
  const std::vector<std::string> names = checks_of(findings);
  return std::find(names.begin(), names.end(), name) != names.end();
}

// ---------------------------------------------------------------------------
// Tokenizer

TEST(LintLexer, ClassifiesBasicTokens) {
  const auto tokens = tokenize("int x = 42; // tail\n\"str\" 'c'");
  ASSERT_EQ(tokens.size(), 8u);
  EXPECT_EQ(tokens[0].kind, TokKind::kIdent);
  EXPECT_EQ(tokens[0].text, "int");
  EXPECT_EQ(tokens[3].kind, TokKind::kNumber);
  EXPECT_EQ(tokens[3].text, "42");
  EXPECT_EQ(tokens[5].kind, TokKind::kComment);
  EXPECT_EQ(tokens[5].text, "// tail");
  EXPECT_EQ(tokens[6].kind, TokKind::kString);
  EXPECT_EQ(tokens[6].line, 2);
  EXPECT_EQ(tokens[7].kind, TokKind::kChar);
}

TEST(LintLexer, PreprocessorDirectiveIsOneTokenWithContinuations) {
  const auto tokens = tokenize("#define FOO(a) \\\n  ((a) + 1)\nint y;");
  ASSERT_GE(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokKind::kPreproc);
  EXPECT_NE(tokens[0].text.find("FOO"), std::string::npos);
  EXPECT_NE(tokens[0].text.find("+ 1)"), std::string::npos);
  // The continuation consumed one newline, so `int` sits on line 3.
  EXPECT_EQ(tokens[1].text, "int");
  EXPECT_EQ(tokens[1].line, 3);
}

TEST(LintLexer, RawStringsSwallowFakeTokens) {
  const auto tokens =
      tokenize("auto s = R\"x(rand(); std::mutex m;)x\"; int z;");
  // Nothing inside the raw string may surface as an identifier.
  for (const Token& t : tokens) {
    if (t.kind == TokKind::kIdent) {
      EXPECT_NE(t.text, "rand");
      EXPECT_NE(t.text, "mutex");
    }
  }
  EXPECT_TRUE(std::any_of(tokens.begin(), tokens.end(), [](const Token& t) {
    return t.kind == TokKind::kString && t.text.rfind("R\"x(", 0) == 0;
  }));
}

TEST(LintLexer, BlockCommentTracksLines) {
  const auto tokens = tokenize("/* line1\nline2\n*/ int q;");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, TokKind::kComment);
  EXPECT_EQ(tokens[1].text, "int");
  EXPECT_EQ(tokens[1].line, 3);
}

// ---------------------------------------------------------------------------
// Policy table

TEST(LintPolicy, ResultAffectingDirsGetDeterminism) {
  for (const char* path :
       {"src/mcts/mcts.cpp", "src/rl/policy.hpp", "src/gp/wirelength.cpp",
        "src/qp/solver.cpp", "src/legal/legalize.cpp", "src/nn/net.cpp",
        "src/place/placer.cpp", "src/place/regulate_placer.cpp",
        "src/grid/grid.hpp", "src/netlist/design.cpp",
        "src/linalg/vec.hpp"}) {
    EXPECT_TRUE(policy_for(path).determinism) << path;
    EXPECT_TRUE(policy_for(path).lint) << path;
  }
}

TEST(LintPolicy, TimingLegitimateDirsAreExempt) {
  for (const char* path : {"src/obs/obs.cpp", "src/svc/scheduler.cpp",
                           "src/net/router.cpp", "src/bench/runner.cpp",
                           "src/util/timer.hpp"}) {
    const Policy p = policy_for(path);
    EXPECT_TRUE(p.lint) << path;
    EXPECT_FALSE(p.determinism) << path;
  }
}

TEST(LintPolicy, RngHomeAndScopeBoundaries) {
  EXPECT_TRUE(policy_for("src/util/rng.hpp").rng_home);
  EXPECT_TRUE(policy_for("src/util/rng.cpp").rng_home);
  EXPECT_FALSE(policy_for("src/util/log.cpp").rng_home);
  // Out of scope entirely: tests, tools, benches, non-C++ files.
  EXPECT_FALSE(policy_for("tests/test_lint.cpp").lint);
  EXPECT_FALSE(policy_for("tools/mplint/checks.cpp").lint);
  EXPECT_FALSE(policy_for("bench/bench_gp.cpp").lint);
  EXPECT_FALSE(policy_for("src/util/notes.md").lint);
  EXPECT_TRUE(policy_for("src/util/env.hpp").header);
  EXPECT_FALSE(policy_for("src/util/env.cpp").header);
}

// ---------------------------------------------------------------------------
// Determinism checkers

TEST(LintRand, FlagsRawRandOutsideRngHome) {
  const auto findings =
      lint_source("src/util/misc.cpp", "int r = rand() % 7;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "raw-rand");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LintRand, AllowsRawRandInRngHomeAndMembers) {
  EXPECT_TRUE(
      lint_source("src/util/rng.cpp", "unsigned s = rand_r(&state);\n")
          .empty());
  // `.rand` is a member of some unrelated type, not ::rand.
  EXPECT_TRUE(
      lint_source("src/util/misc.cpp", "double v = gen.rand();\n").empty());
}

TEST(LintRand, FlagsRandomDeviceEverywhereInScope) {
  const auto findings =
      lint_source("src/obs/sampler.cpp", "std::random_device rd;\n");
  EXPECT_TRUE(has_check(findings, "raw-rand"));
}

TEST(LintClock, FlagsChronoNowInResultDirs) {
  const auto findings = lint_source(
      "src/mcts/mcts.cpp",
      "auto t = std::chrono::steady_clock::now();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "wall-clock");
}

TEST(LintClock, AllowsClocksInTimingDirs) {
  EXPECT_TRUE(lint_source("src/obs/obs.cpp",
                          "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/util/timer.hpp",
                          "#pragma once\n"
                          "auto t = std::chrono::high_resolution_clock::now();\n")
                  .empty());
}

TEST(LintClock, FlagsCTimeCallsButNotMembers) {
  EXPECT_TRUE(has_check(
      lint_source("src/gp/anneal.cpp", "std::srand(time(nullptr));\n"),
      "wall-clock"));
  // `.time(` is a member call on some stats object, not ::time.
  EXPECT_FALSE(has_check(
      lint_source("src/gp/anneal.cpp", "double d = row.time(3);\n"),
      "wall-clock"));
}

TEST(LintClock, ResultDirTimerNeedsJustifiedAllow) {
  // src/mcts/ is result-affecting: a bare clock read is flagged, and only a
  // justified allow suppresses it.
  EXPECT_TRUE(has_check(
      lint_source("src/mcts/mcts.cpp",
                  "auto d = std::chrono::steady_clock::now();\n"),
      "wall-clock"));
  EXPECT_TRUE(
      lint_source("src/mcts/mcts.cpp",
                  "// mplint: allow(wall-clock): log-only search timer\n"
                  "auto d = std::chrono::steady_clock::now();\n")
          .empty());
}

TEST(LintUnordered, FlagsRangeForAndBeginInResultDirs) {
  const std::string decl =
      "std::unordered_map<int, double> weights;\n";
  EXPECT_TRUE(has_check(
      lint_source("src/netlist/design.cpp",
                  decl + "for (const auto& [k, v] : weights) use(k, v);\n"),
      "unordered-iter"));
  EXPECT_TRUE(has_check(
      lint_source("src/grid/grid.cpp",
                  decl + "auto it = weights.begin();\n"),
      "unordered-iter"));
}

TEST(LintUnordered, AllowsLookupsAndOrderedContainers) {
  EXPECT_TRUE(lint_source("src/netlist/design.cpp",
                          "std::unordered_map<int, double> w;\n"
                          "auto it = w.find(3); w.emplace(4, 1.0);\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/netlist/design.cpp",
                          "std::map<int, double> w;\n"
                          "for (const auto& kv : w) use(kv);\n")
                  .empty());
  // Outside the result-affecting dirs iteration order cannot leak into
  // placements; the ban does not apply.
  EXPECT_TRUE(lint_source("src/svc/cache.cpp",
                          "std::unordered_map<int, int> m;\n"
                          "for (const auto& kv : m) use(kv);\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// Lock discipline

TEST(LintMutex, FlagsUnannotatedMutexMembers) {
  const auto findings = lint_source(
      "src/svc/widget.cpp",
      "struct S {\n  std::mutex m_;\n  int guarded_ = 0;\n};\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "mutex-annotation");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintMutex, AcceptsAnnotatedDeclarations) {
  EXPECT_TRUE(lint_source("src/svc/widget.cpp",
                          "struct S {\n"
                          "  std::mutex m_ MP_GUARDS(guarded_);\n"
                          "  std::condition_variable cv_ MP_GUARDED_BY(m_);\n"
                          "  int guarded_ MP_GUARDED_BY(m_) = 0;\n"
                          "};\n")
                  .empty());
}

TEST(LintMutex, FlagsEveryLockLikeType) {
  for (const char* type :
       {"mutex", "shared_mutex", "recursive_mutex", "condition_variable"}) {
    const auto findings = lint_source(
        "src/obs/x.cpp", std::string("std::") + type + " thing;\n");
    EXPECT_TRUE(has_check(findings, "mutex-annotation")) << type;
  }
}

TEST(LintMutex, SkipsNonDeclarationUses) {
  EXPECT_TRUE(lint_source("src/svc/widget.cpp",
                          "std::lock_guard<std::mutex> lock(m());\n"
                          "void take(std::mutex& m, std::mutex* p);\n"
                          "std::unique_ptr<std::mutex> owned;\n")
                  .empty());
}

TEST(LintLocks, FlagsManualLockCallsOnDeclaredMutexes) {
  const auto findings = lint_source("src/svc/widget.cpp",
                                    "std::mutex m_ MP_GUARDS(x_);\n"
                                    "void f() { m_.lock(); m_.unlock(); }\n");
  const auto names = checks_of(findings);
  EXPECT_EQ(std::count(names.begin(), names.end(), "raii-lock"), 2);
}

TEST(LintLocks, FlagsGuardUnlockButNotRelock) {
  const std::string body =
      "void f(std::unique_lock<std::mutex>& lock) {\n"
      "  lock.unlock();\n"
      "  work();\n"
      "  lock.lock();\n"
      "}\n";
  const auto findings = lint_source("src/svc/widget.cpp", body);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "manual-unlock");
  EXPECT_EQ(findings[0].line, 2);
}

// ---------------------------------------------------------------------------
// Header hygiene

TEST(LintHeader, RequiresPragmaOnce) {
  const auto findings = lint_source("src/util/thing.hpp", "int f();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "pragma-once");
  EXPECT_TRUE(
      lint_source("src/util/thing.hpp", "#pragma once\nint f();\n").empty());
  // Implementation files carry no guard requirement.
  EXPECT_TRUE(lint_source("src/util/thing.cpp", "int f() { return 1; }\n")
                  .empty());
}

TEST(LintHeader, BansIostreamInLibraryCode) {
  EXPECT_TRUE(has_check(
      lint_source("src/util/thing.cpp", "#include <iostream>\n"),
      "iostream-include"));
  EXPECT_TRUE(
      lint_source("src/util/thing.cpp", "#include <ostream>\n").empty());
}

TEST(LintHeader, BansUsingNamespaceInHeadersOnly) {
  EXPECT_TRUE(has_check(
      lint_source("src/util/thing.hpp",
                  "#pragma once\nusing namespace std;\n"),
      "using-namespace-header"));
  EXPECT_TRUE(
      lint_source("src/util/thing.cpp", "using namespace std;\n").empty());
}

// ---------------------------------------------------------------------------
// Suppressions

TEST(LintSuppress, SameLineAndLineAboveBothWork) {
  EXPECT_TRUE(lint_source("src/util/misc.cpp",
                          "int r = rand();  "
                          "// mplint: allow(raw-rand): seeding test fixture\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/util/misc.cpp",
                          "// mplint: allow(raw-rand): seeding test fixture\n"
                          "int r = rand();\n")
                  .empty());
}

TEST(LintSuppress, CommentBlockPropagatesToLineBelow) {
  // Marker on the first line of a wrapped two-line justification still
  // covers the statement after the block.
  EXPECT_TRUE(lint_source("src/util/misc.cpp",
                          "// mplint: allow(raw-rand): the justification is\n"
                          "// long enough to wrap onto a second line.\n"
                          "int r = rand();\n")
                  .empty());
}

TEST(LintSuppress, JustificationIsMandatory) {
  const auto findings = lint_source(
      "src/util/misc.cpp", "int r = rand();  // mplint: allow(raw-rand)\n");
  // The bare allow() is itself a finding AND fails to suppress.
  EXPECT_TRUE(has_check(findings, "bad-suppression"));
  EXPECT_TRUE(has_check(findings, "raw-rand"));
}

TEST(LintSuppress, UnknownCheckNameIsReported) {
  const auto findings = lint_source(
      "src/util/misc.cpp",
      "int x = 0;  // mplint: allow(no-such-check): because\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "bad-suppression");
}

TEST(LintSuppress, ListSuppressesMultipleChecks) {
  EXPECT_TRUE(
      lint_source("src/mcts/mcts.cpp",
                  "// mplint: allow(raw-rand, wall-clock): fixture setup\n"
                  "auto x = rand() + time(nullptr);\n")
          .empty());
}

TEST(LintSuppress, OnlyNamedChecksAreSuppressed) {
  const auto findings = lint_source(
      "src/mcts/mcts.cpp",
      "// mplint: allow(raw-rand): fixture setup\n"
      "auto x = rand() + time(nullptr);\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "wall-clock");
}

// ---------------------------------------------------------------------------
// Output format + tree scan

TEST(LintFormat, FindingsAreEditorParseable) {
  const Finding f{"src/a/b.cpp", 12, "raw-rand", "msg"};
  EXPECT_EQ(mp::lint::format_finding(f), "src/a/b.cpp:12: raw-rand: msg");
}

TEST(LintFormat, FindingsSortedByLine) {
  const auto findings = lint_source("src/util/misc.cpp",
                                    "int a = rand();\n"
                                    "int b = rand();\n");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_LT(findings[0].line, findings[1].line);
}

// The tree itself must be clean: every mutex annotated, no raw randomness
// or wall-clock reads in result-affecting dirs, headers hygienic, and every
// suppression justified.  A regression anywhere in src/ fails here first.
TEST(LintMeta, RealSourceTreeIsFindingFree) {
  const auto findings = lint_tree(MPLINT_SOURCE_ROOT);
  for (const Finding& f : findings) {
    ADD_FAILURE() << mp::lint::format_finding(f);
  }
}

}  // namespace
