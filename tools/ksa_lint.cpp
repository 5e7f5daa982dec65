// ksa_lint -- the project-specific model-conformance linter (classic
// rule set), now a thin CLI over the src/lint/ library.
//
// General-purpose static analysis (clang-tidy, sanitizers; see
// doc/analysis.md) cannot know the *model* rules this repository lives
// by: executions must be bit-identical across replays (sim/system.hpp),
// so any iteration-order, RNG or hidden-IO dependence in the engine is a
// proof-soundness bug even when it is perfectly well-defined C++.
//
// This tool runs exactly the six classic line rules (the `legacy` set in
// src/lint/rules.cpp): unordered-container, raw-random,
// missing-override, threading-outside-exec, stream-io-in-library,
// frontier-growth-outside-store.  The whole-program passes (layering,
// include cycles, float-in-digest) and the SARIF/ratchet machinery live
// in tools/ksa_analyze, built on the same library.
//
// What moved into the library (src/lint/):
//   * the lexer: rules no longer fire inside comments, string literals
//     or raw strings (lexer.hpp);
//   * suppressions: `// ksa-lint: allow(rule-a, rule-b)` may name
//     several rules, a standalone allow-comment covers the whole next
//     statement even when it wraps, and tags inside block comments or
//     strings are inert (source_file.hpp states the exact semantics);
//   * the rule table itself (rules.cpp), so ksa_lint and ksa_analyze
//     can never disagree about what a rule means.
//
// Ratchet: --baseline <file> grandfathers committed findings exactly
// like ksa_analyze does (same src/lint/ratchet.hpp machinery).  A
// missing or unreadable baseline is a hard error -- create one
// explicitly with --init-baseline.  --format json emits the findings
// as the internal JSON model instead of the text report.
//
// Exit codes: 0 clean (or ratchet satisfied), 1 findings/regressions,
// 2 usage/IO error (including a missing/unreadable baseline).

#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "lint/analyzer.hpp"
#include "lint/ratchet.hpp"
#include "lint/rules.hpp"
#include "lint/source_file.hpp"

namespace fs = std::filesystem;

namespace {

/// Directories the scan never descends into: planted-violation corpora
/// (tests/lint_fixtures/, scanned explicitly by their own tests), build
/// trees and VCS/housekeeping directories.  Mirrors
/// lint::scan_tree's policy so the two CLIs agree.
bool skip_directory(const fs::path& dir) {
    const std::string name = dir.filename().string();
    return name == "lint_fixtures" || name.rfind("build", 0) == 0 ||
           (!name.empty() && name[0] == '.');
}

int usage() {
    std::cerr
        << "usage: ksa_lint [options] <file-or-directory>...\n"
        << "Scans C++ sources for ksa model-conformance hazards.\n"
        << "\n"
        << "  --list-rules       print the classic rule set and exit\n"
        << "  --format <fmt>     report format: text (default) or json\n"
        << "  --baseline <file>  ratchet against a committed baseline\n"
        << "                     (missing/unreadable baseline = exit 2)\n"
        << "  --init-baseline    create the --baseline file and exit\n"
        << "\n"
        << "Suppress a finding with `// ksa-lint: allow(<rule>)` on the\n"
        << "offending line or the line above it.\n";
    return 2;
}

bool write_file(const fs::path& path, const std::string& text,
                std::string& error) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        error = "cannot write " + path.string();
        return false;
    }
    out << text;
    out.flush();
    if (!out) {
        error = "short write to " + path.string();
        return false;
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<fs::path> roots;
    std::optional<fs::path> baseline_path;
    bool init_baseline = false;
    std::string format = "text";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-rules") {
            for (const ksa::lint::RuleInfo& rule : ksa::lint::all_rules())
                if (rule.legacy)
                    std::cout << rule.name << ": " << rule.message << "\n";
            return 0;
        }
        if (arg == "--baseline") {
            if (i + 1 >= argc) {
                std::cerr << "ksa_lint: --baseline needs an argument\n";
                return 2;
            }
            baseline_path = fs::path(argv[++i]);
            continue;
        }
        if (arg == "--init-baseline") {
            init_baseline = true;
            continue;
        }
        if (arg == "--format") {
            if (i + 1 >= argc) {
                std::cerr << "ksa_lint: --format needs an argument\n";
                return 2;
            }
            format = argv[++i];
            continue;
        }
        if (arg.rfind("--format=", 0) == 0) {
            format = arg.substr(9);
            continue;
        }
        if (arg == "--help" || arg == "-h") return usage();
        if (!arg.empty() && arg[0] == '-') {
            std::cerr << "ksa_lint: unknown option " << arg << "\n";
            return usage();
        }
        roots.emplace_back(arg);
    }
    if (roots.empty()) return usage();
    if (init_baseline && !baseline_path.has_value()) {
        std::cerr << "ksa_lint: --init-baseline needs --baseline <file>\n";
        return 2;
    }
    if (format != "text" && format != "json") {
        std::cerr << "ksa_lint: unknown --format " << format
                  << " (expected text or json)\n";
        return 2;
    }
    // Same contract as ksa_analyze: a missing/unreadable baseline is a
    // hard error, never an implicit empty baseline.
    if (baseline_path.has_value() && !init_baseline) {
        std::error_code ec;
        if (!fs::is_regular_file(*baseline_path, ec)) {
            std::cerr << "ksa_lint: baseline " << baseline_path->string()
                      << " not found or unreadable; create it with "
                         "--init-baseline\n";
            return 2;
        }
    }
    if (init_baseline) {
        std::error_code ec;
        if (fs::is_regular_file(*baseline_path, ec)) {
            std::cerr << "ksa_lint: baseline " << baseline_path->string()
                      << " already exists; delete it first or refresh "
                         "with ksa_analyze --write-baseline\n";
            return 2;
        }
    }

    std::vector<ksa::lint::SourceFile> files;
    try {
        for (const fs::path& root : roots) {
            if (fs::is_regular_file(root)) {
                files.push_back(
                    ksa::lint::SourceFile::load(root, root.string()));
                continue;
            }
            if (!fs::is_directory(root)) {
                std::cerr << "ksa_lint: no such file or directory: " << root
                          << "\n";
                return 2;
            }
            for (fs::recursive_directory_iterator it(root), end; it != end;
                 ++it) {
                if (it->is_directory() && skip_directory(it->path())) {
                    it.disable_recursion_pending();
                    continue;
                }
                if (!it->is_regular_file() ||
                    !ksa::lint::is_source_file(it->path()))
                    continue;
                files.push_back(ksa::lint::SourceFile::load(
                    it->path(), it->path().string()));
            }
        }
    } catch (const std::exception& e) {
        std::cerr << "ksa_lint: " << e.what() << "\n";
        return 2;
    }

    ksa::lint::AnalysisResult result =
        ksa::lint::analyze_files(files, /*legacy_only=*/true);

    if (init_baseline) {
        std::string error;
        if (!write_file(*baseline_path,
                        ksa::lint::baseline_json(result.findings), error)) {
            std::cerr << "ksa_lint: " << error << "\n";
            return 2;
        }
        std::cout << "ksa_lint: wrote baseline (" << result.findings.size()
                  << " finding(s)) to " << baseline_path->string() << "\n";
        return 0;
    }
    if (baseline_path.has_value())
        ksa::lint::apply_baseline(result, *baseline_path);
    for (const std::string& error : result.errors)
        std::cerr << "ksa_lint: " << error << "\n";

    if (format == "json") {
        std::cout << ksa::lint::analysis_json(result);
        if (!result.errors.empty()) return 2;
        return result.has_violations() ? 1 : 0;
    }

    for (const ksa::lint::Finding& f : result.findings)
        std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message << "\n";
    if (result.ratcheted) {
        for (const std::string& line : result.ratchet_regressions)
            std::cout << "ratchet regression: " << line << "\n";
        for (const std::string& line : result.ratchet_stale)
            std::cout << "ratchet stale: " << line << "\n";
    }
    std::cout << "ksa_lint: " << result.files_scanned << " file(s), "
              << result.findings.size() << " finding(s)\n";
    if (!result.errors.empty()) return 2;
    return result.has_violations() ? 1 : 0;
}
