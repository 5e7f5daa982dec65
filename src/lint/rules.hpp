#pragma once
// lint rule framework: the table of model-conformance rules that
// tools/ksa_analyze (the whole-program analyzer) runs.
//
// Two kinds of rule live here:
//
//   * kLine rules match one lexed code line at a time (lexer.hpp blanks
//     comments and literal bodies first, so patterns no longer fire
//     inside strings or comments);
//   * kWholeProgram rules need cross-file facts -- the include graph
//     (layering, include-cycle) or include reachability (float-in-
//     digest) -- and are executed by the analyzer (analyzer.hpp), not
//     by run_line_rules().
//
// Every rule has a stable name (the suppression key), a severity, and a
// one-line rationale; doc/analysis.md carries the same table and
// tests/test_lint.cpp fails when the two drift apart.

#include <cstddef>
#include <string>
#include <vector>

#include "lint/source_file.hpp"

namespace ksa::lint {

enum class Severity { kError, kWarning, kNote };

std::string to_string(Severity s);

enum class RuleKind { kLine, kWholeProgram };

struct Finding {
    std::string file;
    std::size_t line = 0;
    std::size_t column = 0;  ///< 1-based; 0 = unknown
    std::string rule;
    Severity severity = Severity::kError;
    std::string message;
};

struct RuleInfo {
    std::string name;
    RuleKind kind = RuleKind::kLine;
    Severity severity = Severity::kError;
    /// Human-readable scope ("src/sim, src/core, src/chaos", ...).
    std::string scope;
    /// The message attached to findings (also the table rationale).
    std::string message;
};

/// The full rule table, in stable order: the line rules first, then
/// the whole-program rules.
const std::vector<RuleInfo>& all_rules();

/// The table entry named `name`.  Callers name rules of the static
/// table; an unknown name yields a placeholder entry named "unknown".
const RuleInfo& rule_info(const std::string& name);

/// Machine-readable rule table (--list-rules --json): a JSON array of
/// {name, kind, severity, scope, summary}.
std::string rules_json();

/// Runs every LINE rule applicable to `file` and returns the
/// unsuppressed findings in line order.
std::vector<Finding> run_line_rules(const SourceFile& file);

/// Whether `rule` applies to `path` at all (exposed for tests).
bool rule_applies(const std::string& rule, const std::string& path);

}  // namespace ksa::lint
