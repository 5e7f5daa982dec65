// ksa_analyze -- the whole-program architecture & determinism analyzer.
//
// Built on the src/lint/ library: the line rules of src/lint/rules.cpp,
// plus the passes that need cross-file facts:
//
//   layering          every quoted include is checked against the
//                     architecture DAG in src/lint/layers.def; private
//                     layers (core/reduction) admit only their listed
//                     importer TUs.
//   include-cycle     Tarjan SCC over the include graph: a cycle has no
//                     valid build order, so it is reported even when
//                     every edge individually is legal.
//   float-in-digest   float/double in any file that feeds the state
//                     digest (direct includer of sim/digest.hpp, or a
//                     transitive includer naming the hasher vocabulary).
//
// Reporting:
//   --sarif <file>      SARIF 2.1.0 for CI code-scanning upload;
//   --format json       findings as the internal JSON model (CI diffs
//                       and service integration read this, not SARIF);
//   --baseline <file>   ratchet mode -- grandfathered findings pass,
//                       NEW findings fail, and FIXED findings fail too
//                       until the baseline is refreshed (monotone
//                       burn-down; see src/lint/ratchet.hpp).  A
//                       missing or unreadable baseline is a hard error:
//                       silently treating it as empty would turn the
//                       ratchet off exactly when a typo'd path or a
//                       corrupted file made it matter;
//   --init-baseline     create the --baseline file from the current
//                       findings (errors if it already exists);
//   --write-baseline    refresh the existing baseline file in place.
//
// Exit codes: 0 clean (or ratchet satisfied), 1 findings/regressions,
// 2 usage/IO error (including a missing/unreadable baseline).

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lint/analyzer.hpp"
#include "lint/ratchet.hpp"
#include "lint/rules.hpp"
#include "lint/sarif.hpp"

namespace fs = std::filesystem;

namespace {

int usage() {
    std::cerr
        << "usage: ksa_analyze [options] [root-relative scan dirs...]\n"
        << "\n"
        << "Whole-program architecture & determinism analysis.\n"
        << "Default scan set: src tools tests bench examples.\n"
        << "\n"
        << "  --root <dir>       repo root (default: .)\n"
        << "  --sarif <file>     also write findings as SARIF 2.1.0\n"
        << "  --format <fmt>     report format: text (default) or json\n"
        << "  --baseline <file>  ratchet against a committed baseline\n"
        << "                     (missing/unreadable baseline = exit 2)\n"
        << "  --init-baseline    create the --baseline file and exit\n"
        << "  --write-baseline   refresh the --baseline file and exit\n"
        << "  --list-rules       print the rule table (name: message)\n"
        << "  --json             with --list-rules: machine-readable\n"
        << "\n"
        << "Suppress a finding with `// ksa-lint: allow(<rule>, ...)` on\n"
        << "the offending line, the line above it, or a comment line\n"
        << "above the (possibly wrapped) statement.\n";
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

std::string file_uri(const fs::path& root) {
    std::error_code ec;
    fs::path abs = fs::weakly_canonical(fs::absolute(root, ec), ec);
    if (ec) abs = root;
    std::string uri = "file://" + abs.generic_string();
    if (uri.empty() || uri.back() != '/') uri += '/';
    return uri;
}

}  // namespace

int main(int argc, char** argv) {
    ksa::lint::AnalyzerOptions options;
    options.root = ".";
    std::vector<std::string> scan_roots;
    std::optional<fs::path> sarif_path;
    std::optional<fs::path> baseline_path;
    bool write_baseline = false;
    bool init_baseline = false;
    bool list_rules = false;
    bool list_json = false;
    std::string format = "text";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "ksa_analyze: " << flag
                          << " needs an argument\n";
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--root") {
            const char* v = value("--root");
            if (v == nullptr) return 2;
            options.root = v;
        } else if (arg == "--sarif") {
            const char* v = value("--sarif");
            if (v == nullptr) return 2;
            sarif_path = fs::path(v);
        } else if (arg == "--baseline") {
            const char* v = value("--baseline");
            if (v == nullptr) return 2;
            baseline_path = fs::path(v);
        } else if (arg == "--write-baseline") {
            write_baseline = true;
        } else if (arg == "--init-baseline") {
            init_baseline = true;
        } else if (arg == "--format") {
            const char* v = value("--format");
            if (v == nullptr) return 2;
            format = v;
        } else if (arg.rfind("--format=", 0) == 0) {
            format = arg.substr(9);
        } else if (arg == "--list-rules") {
            list_rules = true;
        } else if (arg == "--json") {
            list_json = true;
        } else if (arg == "--help" || arg == "-h") {
            return usage();
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "ksa_analyze: unknown option " << arg << "\n";
            return usage();
        } else {
            scan_roots.push_back(arg);
        }
    }

    if (list_rules) {
        if (list_json) {
            std::cout << ksa::lint::rules_json();
        } else {
            for (const ksa::lint::RuleInfo& rule : ksa::lint::all_rules())
                std::cout << rule.name << ": " << rule.message << "\n";
        }
        return 0;
    }
    if (list_json) {
        std::cerr << "ksa_analyze: --json requires --list-rules\n";
        return 2;
    }
    if ((write_baseline || init_baseline) && !baseline_path.has_value()) {
        std::cerr << "ksa_analyze: "
                  << (write_baseline ? "--write-baseline"
                                     : "--init-baseline")
                  << " needs --baseline <file>\n";
        return 2;
    }
    if (format != "text" && format != "json") {
        std::cerr << "ksa_analyze: unknown --format " << format
                  << " (expected text or json)\n";
        return 2;
    }
    if (!scan_roots.empty()) options.roots = scan_roots;

    // Ratchet mode.  A missing or unreadable baseline is a HARD error:
    // treating it as empty would silently disable grandfathering on a
    // typo'd path.  Bootstrapping is the explicit --init-baseline path.
    if (baseline_path.has_value() && !write_baseline && !init_baseline) {
        std::error_code ec;
        if (!fs::is_regular_file(*baseline_path, ec)) {
            std::cerr << "ksa_analyze: baseline "
                      << baseline_path->string()
                      << " not found or unreadable; create it with "
                         "--init-baseline\n";
            return 2;
        }
        options.baseline = baseline_path;
    }
    if (init_baseline) {
        std::error_code ec;
        if (fs::is_regular_file(*baseline_path, ec)) {
            std::cerr << "ksa_analyze: baseline "
                      << baseline_path->string()
                      << " already exists; refresh it with "
                         "--write-baseline\n";
            return 2;
        }
    }

    const ksa::lint::AnalysisResult result = ksa::lint::analyze(options);

    for (const std::string& error : result.errors)
        std::cerr << "ksa_analyze: " << error << "\n";

    if (write_baseline || init_baseline) {
        std::string error;
        if (!write_file(*baseline_path,
                        ksa::lint::baseline_json(result.findings), error)) {
            std::cerr << "ksa_analyze: " << error << "\n";
            return 2;
        }
        std::cout << "ksa_analyze: wrote baseline ("
                  << result.findings.size() << " finding(s)) to "
                  << baseline_path->string() << "\n";
        return result.errors.empty() ? 0 : 2;
    }

    if (sarif_path.has_value()) {
        std::string error;
        if (!write_file(*sarif_path,
                        ksa::lint::to_sarif(result.findings,
                                            file_uri(options.root)),
                        error)) {
            std::cerr << "ksa_analyze: " << error << "\n";
            return 2;
        }
    }

    if (format == "json") {
        std::cout << ksa::lint::analysis_json(result);
        if (!result.errors.empty()) return 2;
        return result.has_violations() ? 1 : 0;
    }

    for (const ksa::lint::Finding& f : result.findings) {
        std::cout << f.file << ":" << f.line;
        if (f.column > 0) std::cout << ":" << f.column;
        std::cout << ": [" << f.rule << "] " << f.message << "\n";
    }
    if (result.ratcheted) {
        for (const std::string& line : result.ratchet_regressions)
            std::cout << "ratchet regression: " << line << "\n";
        for (const std::string& line : result.ratchet_stale)
            std::cout << "ratchet stale: " << line << "\n";
    }
    std::cout << "ksa_analyze: " << result.files_scanned << " file(s), "
              << result.findings.size() << " finding(s)";
    if (result.ratcheted)
        std::cout << ", ratchet "
                  << (result.ratchet_regressions.empty() &&
                              result.ratchet_stale.empty()
                          ? "ok"
                          : "FAILED");
    std::cout << "\n";

    if (!result.errors.empty()) return 2;
    return result.has_violations() ? 1 : 0;
}
