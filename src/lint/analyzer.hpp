#pragma once
// lint::analyze -- the whole-program orchestration behind
// tools/ksa_analyze.
//
// A run scans a file set, executes the line rules (rules.hpp) on every
// file, builds the include graph once, and executes the whole-program
// passes on top of it:
//
//   layering        every quoted include checked against the DAG in
//                   src/lint/layers.def (longest-prefix layer
//                   assignment, private-layer importer lists);
//   include-cycle   Tarjan SCC over the include graph;
//   float-in-digest float/double tokens in any file that reaches
//                   sim/digest.hpp (direct includer, or transitive
//                   includer that names StateHasher/Digest128/
//                   fold_state in code).
//
// The library does no stream IO (rule stream-io-in-library): results
// come back as values, the CLI renders them.

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "lint/rules.hpp"
#include "lint/source_file.hpp"

namespace ksa::lint {

struct AnalyzerOptions {
    /// Repo root: scan roots and report paths are relative to it.
    std::filesystem::path root;
    /// Root-relative directories (or files) to scan.
    std::vector<std::string> roots = {"src", "tools", "tests", "bench",
                                      "examples"};
    /// Baseline for the ratchet; when unset the ratchet is skipped.
    std::optional<std::filesystem::path> baseline;
};

struct AnalysisResult {
    std::vector<Finding> findings;  ///< unsuppressed, deterministic order
    std::size_t files_scanned = 0;
    /// True when a baseline was loaded and the ratchet ran: findings
    /// are then grandfathered and only the ratchet verdicts gate.
    bool ratcheted = false;
    std::vector<std::string> ratchet_regressions;
    std::vector<std::string> ratchet_stale;
    /// IO/parse errors that should map to CLI exit code 2.
    std::vector<std::string> errors;

    /// Exit-code-1 conditions.  Without a baseline every finding is a
    /// violation; with one, only ratchet regressions/staleness are.
    bool has_violations() const {
        if (ratcheted)
            return !ratchet_regressions.empty() || !ratchet_stale.empty();
        return !findings.empty();
    }
};

/// Loads + lexes every C++ source under the option roots, skipping
/// directories named `lint_fixtures` (planted-violation corpora) and
/// hidden/build directories.  Report paths are root-relative with '/'
/// separators, sorted, so results are deterministic.  IO problems land
/// in `errors`.
std::vector<SourceFile> scan_tree(const AnalyzerOptions& options,
                                  std::vector<std::string>& errors);

/// Full analysis over the option roots.  With `baseline` set, findings
/// are additionally ratcheted; without it, any finding is a violation.
AnalysisResult analyze(const AnalyzerOptions& options);

/// Analysis over pre-scanned files (tests, scratch copies).
AnalysisResult analyze_files(const std::vector<SourceFile>& files);

/// Ratchets `result` against the baseline file: loads it, compares,
/// fills ratcheted/ratchet_regressions/ratchet_stale.  A missing or
/// unparseable baseline lands in `result.errors` (exit code 2 at the
/// CLI) -- bootstrapping is the CLI's explicit --init-baseline path,
/// never an implicit empty-baseline fallback.
void apply_baseline(AnalysisResult& result,
                    const std::filesystem::path& baseline);

/// The findings as the internal JSON model (--format=json at the
/// CLI): {version, files_scanned, findings: [{file, line, column,
/// rule, severity, message}], ratcheted, ratchet_regressions,
/// ratchet_stale, errors}.  Deterministic byte-for-byte for a given
/// result (json.hpp keeps object keys sorted).
std::string analysis_json(const AnalysisResult& result);

/// True for the extensions ksa_analyze scans (.cpp/.hpp/.cc/.h).
bool is_source_file(const std::filesystem::path& file);

}  // namespace ksa::lint
