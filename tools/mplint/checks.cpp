// Checkers and policy table for mplint (tools/mplint/mplint.hpp).  Every
// checker walks the comment-free token stream of one file; suppressions are
// parsed from the comment tokens up front and applied when findings are
// collected, so a justified `// mplint: allow(check): why` on the finding's
// line or the line above wins over any checker.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "mplint/mplint.hpp"

namespace mp::lint {

namespace {

// ---------------------------------------------------------------------------
// Check names

const char kRawRand[] = "raw-rand";
const char kWallClock[] = "wall-clock";
const char kUnorderedIter[] = "unordered-iter";
const char kMutexAnnotation[] = "mutex-annotation";
const char kRaiiLock[] = "raii-lock";
const char kManualUnlock[] = "manual-unlock";
const char kPragmaOnce[] = "pragma-once";
const char kIostreamInclude[] = "iostream-include";
const char kUsingNamespaceHeader[] = "using-namespace-header";
const char kBadSuppression[] = "bad-suppression";
const char kIo[] = "io";

// ---------------------------------------------------------------------------
// Policy table

/// Result-affecting directories: wall-clock reads and unordered-container
/// iteration are banned here because both can leak into placements
/// (time-dependent control flow, hash-order-dependent visit order).
const char* const kResultDirs[] = {
    "src/mcts/",    "src/rl/",   "src/gp/",    "src/qp/",     "src/legal/",
    "src/nn/",      "src/place/", "src/grid/", "src/netlist/", "src/linalg/",
};

/// Timing-legitimate homes, listed explicitly even where disjoint from the
/// result dirs so the policy survives future directory moves: telemetry,
/// benches, the service layer, and the Timer abstraction itself.
const char* const kClockAllow[] = {
    "src/obs/", "src/svc/", "src/net/", "src/bench/", "src/util/timer",
};

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ---------------------------------------------------------------------------
// Suppressions

struct Suppression {
  std::set<std::string> checks;
  bool justified = false;
};

/// Per-line allow() sets parsed from comment tokens; a suppression on line L
/// covers findings on L and L + 1 (comment-above style).
struct SuppressionMap {
  std::map<int, Suppression> by_line;

  bool covers(int line, const std::string& check) const {
    for (const int probe : {line, line - 1}) {
      const auto it = by_line.find(probe);
      if (it != by_line.end() && it->second.justified &&
          it->second.checks.count(check) > 0) {
        return true;
      }
    }
    return false;
  }
};

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Parses "mplint: allow(check-a, check-b): justification" out of one
/// comment.  Malformed markers and unknown check names become
/// bad-suppression findings (never suppressible themselves).
void parse_suppression(const Token& comment, const std::string& path,
                       SuppressionMap* map, std::vector<Finding>* findings) {
  const std::string& text = comment.text;
  const std::size_t marker = text.find("mplint:");
  if (marker == std::string::npos) return;
  const std::size_t allow = text.find("allow", marker);
  const std::size_t open = text.find('(', marker);
  const std::size_t close = text.find(')', marker);
  if (allow == std::string::npos || open == std::string::npos ||
      close == std::string::npos || close < open) {
    findings->push_back({path, comment.line, kBadSuppression,
                         "malformed mplint marker (expected "
                         "\"mplint: allow(<check>): <justification>\")"});
    return;
  }
  Suppression sup;
  std::stringstream list(text.substr(open + 1, close - open - 1));
  std::string item;
  while (std::getline(list, item, ',')) {
    item = trim(item);
    if (item.empty()) continue;
    const auto& known = check_names();
    if (std::find(known.begin(), known.end(), item) == known.end()) {
      findings->push_back({path, comment.line, kBadSuppression,
                           "allow() names unknown check '" + item + "'"});
      continue;
    }
    sup.checks.insert(item);
  }
  std::string justification = text.substr(close + 1);
  // Strip trailing comment closers and leading separators before judging.
  if (ends_with(justification, "*/")) {
    justification.resize(justification.size() - 2);
  }
  justification = trim(justification);
  while (!justification.empty() &&
         (justification[0] == ':' || justification[0] == '-' ||
          justification[0] == ';')) {
    justification = trim(justification.substr(1));
  }
  sup.justified = !justification.empty();
  if (!sup.justified) {
    findings->push_back({path, comment.line, kBadSuppression,
                         "allow() without a justification (state why the "
                         "exception is sound)"});
  }
  if (!sup.checks.empty()) {
    Suppression& slot = map->by_line[comment.line];
    slot.checks.insert(sup.checks.begin(), sup.checks.end());
    // One unjustified marker must not ride on a justified one's line.
    slot.justified = sup.justified;
  }
}

// ---------------------------------------------------------------------------
// Token-stream helpers (code = comments and directives stripped)

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

bool is_punct(const Token& t, char c) {
  return t.kind == TokKind::kPunct && t.text.size() == 1 && t.text[0] == c;
}

/// True when code[i] is preceded by `std ::`.
bool std_qualified(const std::vector<Token>& code, std::size_t i) {
  return i >= 3 && is_ident(code[i - 3], "std") && is_punct(code[i - 2], ':') &&
         is_punct(code[i - 1], ':');
}

// ---------------------------------------------------------------------------
// Individual checkers

const std::set<std::string>& annotation_macros() {
  static const std::set<std::string> macros = {
      "MP_GUARDS",          "MP_GUARDED_BY",    "MP_PT_GUARDED_BY",
      "MP_CAPABILITY",      "MP_ACQUIRED_BEFORE", "MP_ACQUIRED_AFTER",
  };
  return macros;
}

const std::set<std::string>& mutex_types() {
  static const std::set<std::string> types = {
      "mutex",
      "shared_mutex",
      "timed_mutex",
      "recursive_mutex",
      "recursive_timed_mutex",
      "shared_timed_mutex",
      "condition_variable",
      "condition_variable_any",
  };
  return types;
}

/// Finds declarations `std::mutex NAME ...;` (and the other lock-like types),
/// records NAME into `lock_names`, and reports declarations that carry no
/// annotation-layer macro before the terminating ';'.
void check_mutex_annotations(const std::string& path,
                             const std::vector<Token>& code,
                             std::set<std::string>* lock_names,
                             std::vector<Finding>* findings) {
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if (code[i].kind != TokKind::kIdent ||
        mutex_types().count(code[i].text) == 0 || !std_qualified(code, i)) {
      continue;
    }
    const Token& next = code[i + 1];
    // References, pointers, template arguments, parameter types: not a
    // plain named declaration.
    if (next.kind != TokKind::kIdent) continue;
    if (i + 2 < code.size() && is_punct(code[i + 2], '(')) continue;
    lock_names->insert(next.text);
    bool annotated = false;
    int depth = 0;
    for (std::size_t j = i + 2; j < code.size(); ++j) {
      const Token& t = code[j];
      if (t.kind == TokKind::kPunct) {
        const char c = t.text[0];
        if (c == '(' || c == '{') ++depth;
        if (c == ')' || c == '}') --depth;
        if (c == ';' && depth <= 0) break;
      }
      if (t.kind == TokKind::kIdent && annotation_macros().count(t.text) > 0) {
        annotated = true;
        break;
      }
    }
    if (!annotated) {
      findings->push_back(
          {path, next.line, kMutexAnnotation,
           "std::" + code[i].text + " '" + next.text +
               "' lacks a thread-safety annotation (MP_GUARDS(...) naming "
               "what it protects; see src/check/annotations.hpp)"});
    }
  }
}

/// Manual lock-primitive calls: `.lock()/.unlock()/.try_lock()` on a name
/// declared as a mutex in this file is a raii-lock finding; `.unlock()` on
/// anything else (an RAII guard) needs a justified suppression.
void check_lock_calls(const std::string& path, const std::vector<Token>& code,
                      const std::set<std::string>& lock_names,
                      std::vector<Finding>* findings) {
  for (std::size_t i = 0; i + 3 < code.size(); ++i) {
    const Token& recv = code[i];
    if (recv.kind != TokKind::kIdent) continue;
    // Match `recv . verb (` and `recv -> verb (`.
    std::size_t verb_at = 0;
    if (is_punct(code[i + 1], '.')) {
      verb_at = i + 2;
    } else if (i + 4 < code.size() && is_punct(code[i + 1], '-') &&
               is_punct(code[i + 2], '>')) {
      verb_at = i + 3;
    } else {
      continue;
    }
    if (verb_at + 1 >= code.size() || !is_punct(code[verb_at + 1], '(')) {
      continue;
    }
    const std::string& verb = code[verb_at].text;
    const bool is_mutex = lock_names.count(recv.text) > 0;
    if (is_mutex &&
        (verb == "lock" || verb == "unlock" || verb == "try_lock")) {
      findings->push_back(
          {path, code[verb_at].line, kRaiiLock,
           "manual " + recv.text + "." + verb +
               "() on a mutex; hold it through std::lock_guard/"
               "std::unique_lock/std::scoped_lock instead"});
    } else if (!is_mutex && verb == "unlock") {
      findings->push_back(
          {path, code[verb_at].line, kManualUnlock,
           "manual " + recv.text +
               ".unlock() breaks the RAII critical section; justify it with "
               "// mplint: allow(manual-unlock): <why>"});
    }
  }
}

void check_raw_rand(const std::string& path, const std::vector<Token>& code,
                    std::vector<Finding>* findings) {
  static const std::set<std::string> banned = {
      "rand", "srand", "rand_r", "drand48", "random_device",
  };
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind != TokKind::kIdent || banned.count(t.text) == 0) continue;
    // Member access to an unrelated `rand` field would be `.rand`; skip.
    if (i > 0 && is_punct(code[i - 1], '.')) continue;
    findings->push_back(
        {path, t.line, kRawRand,
         "'" + t.text +
             "' is non-deterministic / globally seeded; thread randomness "
             "through util::Rng (src/util/rng.hpp) instead"});
  }
}

void check_wall_clock(const std::string& path, const std::vector<Token>& code,
                      std::vector<Finding>* findings) {
  static const std::set<std::string> call_banned = {
      "time", "clock", "gettimeofday", "clock_gettime", "localtime", "gmtime",
  };
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind != TokKind::kIdent) continue;
    // <chrono> clocks: `X::now(` where X ends in clock/Clock.
    if (i + 3 < code.size() &&
        (ends_with(t.text, "clock") || ends_with(t.text, "Clock")) &&
        is_punct(code[i + 1], ':') && is_punct(code[i + 2], ':') &&
        is_ident(code[i + 3], "now")) {
      findings->push_back(
          {path, code[i + 3].line, kWallClock,
           t.text + "::now() in a result-affecting directory; results must "
                    "not depend on wall time (keep timing in obs/ spans or "
                    "util::Timer at the call boundary)"});
      continue;
    }
    // C time calls: `time(`, `clock(`, ... — not member accesses.
    if (call_banned.count(t.text) > 0 && i + 1 < code.size() &&
        is_punct(code[i + 1], '(') &&
        !(i > 0 && is_punct(code[i - 1], '.'))) {
      findings->push_back(
          {path, t.line, kWallClock,
           "'" + t.text + "()' reads the wall clock in a result-affecting "
                          "directory; results must not depend on time"});
    }
  }
}

/// Names declared in this file with an unordered container type (members or
/// locals, values or references).
std::set<std::string> unordered_names(const std::vector<Token>& code) {
  static const std::set<std::string> types = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset",
  };
  std::set<std::string> names;
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if (code[i].kind != TokKind::kIdent || types.count(code[i].text) == 0 ||
        !is_punct(code[i + 1], '<')) {
      continue;
    }
    // Skip the balanced template argument list.
    std::size_t j = i + 1;
    int depth = 0;
    for (; j < code.size(); ++j) {
      if (is_punct(code[j], '<')) ++depth;
      if (is_punct(code[j], '>') && --depth == 0) break;
    }
    if (j >= code.size()) continue;
    ++j;
    while (j < code.size() &&
           (is_punct(code[j], '&') || is_punct(code[j], '*'))) {
      ++j;
    }
    if (j < code.size() && code[j].kind == TokKind::kIdent) {
      names.insert(code[j].text);
    }
  }
  return names;
}

void check_unordered_iter(const std::string& path,
                          const std::vector<Token>& code,
                          std::vector<Finding>* findings) {
  const std::set<std::string> names = unordered_names(code);
  if (names.empty()) return;
  for (std::size_t i = 0; i < code.size(); ++i) {
    // `NAME.begin()` family (explicit iterator loops, std:: algorithms).
    if (code[i].kind == TokKind::kIdent && names.count(code[i].text) > 0 &&
        i + 2 < code.size() && is_punct(code[i + 1], '.') &&
        (code[i + 2].text == "begin" || code[i + 2].text == "cbegin" ||
         code[i + 2].text == "end" || code[i + 2].text == "cend")) {
      findings->push_back(
          {path, code[i].line, kUnorderedIter,
           "iterating unordered container '" + code[i].text +
               "' in a result-affecting directory: visit order is hash-seed "
               "dependent and leaks into results; use std::map/std::set or "
               "sort the keys first"});
      continue;
    }
    // Range-for whose range expression mentions a known unordered name.
    if (!is_ident(code[i], "for") || i + 1 >= code.size() ||
        !is_punct(code[i + 1], '(')) {
      continue;
    }
    int depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (std::size_t j = i + 1; j < code.size(); ++j) {
      if (is_punct(code[j], '(')) ++depth;
      if (is_punct(code[j], ')') && --depth == 0) {
        close = j;
        break;
      }
      if (depth == 1 && is_punct(code[j], ':') && colon == 0 &&
          !is_punct(code[j - 1], ':') &&
          !(j + 1 < code.size() && is_punct(code[j + 1], ':'))) {
        colon = j;
      }
    }
    if (colon == 0 || close == 0) continue;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (code[j].kind == TokKind::kIdent && names.count(code[j].text) > 0) {
        findings->push_back(
            {path, code[j].line, kUnorderedIter,
             "range-for over unordered container '" + code[j].text +
                 "' in a result-affecting directory: visit order is "
                 "hash-seed dependent and leaks into results"});
        break;
      }
    }
  }
}

void check_preproc(const std::string& path, const Policy& policy,
                   const std::vector<Token>& tokens,
                   std::vector<Finding>* findings) {
  bool pragma_once = false;
  for (const Token& t : tokens) {
    if (t.kind != TokKind::kPreproc) continue;
    if (t.text.find("pragma") != std::string::npos &&
        t.text.find("once") != std::string::npos) {
      pragma_once = true;
    }
    if (t.text.find("include") != std::string::npos &&
        t.text.find("<iostream>") != std::string::npos) {
      findings->push_back(
          {path, t.line, kIostreamInclude,
           "<iostream> in library code (global stream objects + their "
           "static init); use util/log or <cstdio>"});
    }
  }
  if (policy.header && !pragma_once) {
    findings->push_back(
        {path, 1, kPragmaOnce, "header is missing #pragma once"});
  }
}

void check_using_namespace(const std::string& path,
                           const std::vector<Token>& code,
                           std::vector<Finding>* findings) {
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if (is_ident(code[i], "using") && is_ident(code[i + 1], "namespace")) {
      findings->push_back(
          {path, code[i].line, kUsingNamespaceHeader,
           "'using namespace' at header scope pollutes every includer; "
           "qualify names or use scoped aliases"});
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API

const std::vector<std::string>& check_names() {
  static const std::vector<std::string> names = {
      kRawRand,          kWallClock,  kUnorderedIter,
      kMutexAnnotation,  kRaiiLock,   kManualUnlock,
      kPragmaOnce,       kIostreamInclude, kUsingNamespaceHeader,
      kBadSuppression,
  };
  return names;
}

Policy policy_for(const std::string& path) {
  Policy policy;
  if (!starts_with(path, "src/")) return policy;
  if (!ends_with(path, ".hpp") && !ends_with(path, ".cpp")) return policy;
  policy.lint = true;
  policy.header = ends_with(path, ".hpp");
  policy.rng_home = starts_with(path, "src/util/rng");
  for (const char* dir : kResultDirs) {
    if (starts_with(path, dir)) policy.determinism = true;
  }
  for (const char* dir : kClockAllow) {
    if (starts_with(path, dir)) policy.determinism = false;
  }
  return policy;
}

std::string format_finding(const Finding& finding) {
  return finding.path + ":" + std::to_string(finding.line) + ": " +
         finding.check + ": " + finding.message;
}

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content) {
  const Policy policy = policy_for(path);
  if (!policy.lint) return {};

  const std::vector<Token> tokens = tokenize(content);
  std::vector<Token> code;
  code.reserve(tokens.size());
  for (const Token& t : tokens) {
    if (t.kind != TokKind::kComment && t.kind != TokKind::kPreproc) {
      code.push_back(t);
    }
  }

  std::vector<Finding> meta;  // bad-suppression: reported unconditionally
  SuppressionMap suppressions;
  std::set<int> comment_lines;
  for (const Token& t : tokens) {
    if (t.kind == TokKind::kComment) {
      parse_suppression(t, path, &suppressions, &meta);
      comment_lines.insert(t.line);
    }
  }
  // A marker on the first line of a comment block covers the whole block:
  // propagate each suppression down through contiguous comment lines so a
  // wrapped justification still reaches the line below the block.
  for (const int line : comment_lines) {
    const auto above = suppressions.by_line.find(line - 1);
    if (above != suppressions.by_line.end() &&
        suppressions.by_line.count(line) == 0) {
      suppressions.by_line[line] = above->second;
    }
  }

  std::vector<Finding> raw;
  std::set<std::string> lock_names;
  check_mutex_annotations(path, code, &lock_names, &raw);
  check_lock_calls(path, code, lock_names, &raw);
  check_preproc(path, policy, tokens, &raw);
  if (policy.header) check_using_namespace(path, code, &raw);
  if (!policy.rng_home) check_raw_rand(path, code, &raw);
  if (policy.determinism) {
    check_wall_clock(path, code, &raw);
    check_unordered_iter(path, code, &raw);
  }

  std::vector<Finding> findings = std::move(meta);
  for (Finding& f : raw) {
    if (!suppressions.covers(f.line, f.check)) {
      findings.push_back(std::move(f));
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.check) < std::tie(b.line, b.check);
            });
  return findings;
}

std::vector<Finding> lint_paths(const std::string& root,
                                const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<Finding> findings;
  for (const std::string& rel : paths) {
    const fs::path full = fs::path(root) / rel;
    std::ifstream in(full, std::ios::binary);
    if (!in) {
      findings.push_back({rel, 0, kIo, "cannot read file"});
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::vector<Finding> file_findings = lint_source(rel, buffer.str());
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  return findings;
}

std::vector<Finding> lint_tree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  const fs::path src = fs::path(root) / "src";
  if (fs::exists(src)) {
    for (const auto& entry : fs::recursive_directory_iterator(src)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".hpp" && ext != ".cpp") continue;
      paths.push_back(
          fs::relative(entry.path(), fs::path(root)).generic_string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return lint_paths(root, paths);
}

}  // namespace mp::lint
