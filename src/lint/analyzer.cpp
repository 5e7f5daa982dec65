#include "lint/analyzer.hpp"

#include <algorithm>
#include <regex>

#include "lint/decls.hpp"
#include "lint/flow.hpp"
#include "lint/include_graph.hpp"
#include "lint/json.hpp"
#include "lint/layers.hpp"
#include "lint/ratchet.hpp"

namespace fs = std::filesystem;

namespace ksa::lint {

namespace {

bool skip_directory(const fs::path& dir) {
    const std::string name = dir.filename().string();
    // Planted-violation corpora (scanned explicitly by their tests),
    // build trees, VCS/houskeeping directories.
    return name == "lint_fixtures" || name.rfind("build", 0) == 0 ||
           (!name.empty() && name[0] == '.');
}

/// float-in-digest: files that feed the deterministic digest must not
/// traffic in floats (see the rule table entry for why).  "Feeds the
/// digest" = directly includes sim/digest.hpp, or transitively includes
/// it while naming the hasher vocabulary in code.
std::vector<Finding> check_float_in_digest(
    const std::vector<SourceFile>& files, const IncludeGraph& graph) {
    static const std::regex kFloat(R"(\b(float|double|long\s+double)\b)");
    const RuleInfo& rule = rule_info("float-in-digest");
    std::vector<Finding> findings;

    for (std::size_t i = 0; i < files.size(); ++i) {
        const SourceFile& file = files[i];
        if (!rule_applies(rule.name, file.path())) continue;
        const std::string norm = normalize_path(file.path());
        if (norm.size() >= 14 &&
            norm.compare(norm.size() - 14, 14, "sim/digest.hpp") == 0)
            continue;  // the hasher itself defines the vocabulary

        bool digest_aware = file.includes_path("sim/digest.hpp");
        if (!digest_aware &&
            (file.mentions_token("StateHasher") ||
             file.mentions_token("Digest128") ||
             file.mentions_token("fold_state")))
            digest_aware = graph.reaches_suffix(i, "sim/digest.hpp");
        if (!digest_aware) continue;

        for (std::size_t line = 1; line <= file.line_count(); ++line) {
            std::smatch match;
            const std::string& code = file.code(line);
            if (!std::regex_search(code, match, kFloat)) continue;
            if (file.suppressed(line, rule.name)) continue;
            findings.push_back(
                {file.path(), line,
                 static_cast<std::size_t>(match.position(0)) + 1, rule.name,
                 rule.severity, rule.message});
        }
    }
    return findings;
}

}  // namespace

bool is_source_file(const fs::path& file) {
    const std::string ext = file.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

std::vector<SourceFile> scan_tree(const AnalyzerOptions& options,
                                  std::vector<std::string>& errors) {
    std::vector<std::pair<std::string, fs::path>> targets;  // rel, disk
    for (const std::string& rel_root : options.roots) {
        const fs::path root = options.root / rel_root;
        std::error_code ec;
        if (fs::is_regular_file(root, ec)) {
            targets.emplace_back(normalize_path(rel_root), root);
            continue;
        }
        if (!fs::is_directory(root, ec)) {
            errors.push_back("no such file or directory: " + root.string());
            continue;
        }
        for (fs::recursive_directory_iterator it(root, ec), end;
             it != end && !ec; it.increment(ec)) {
            if (it->is_directory() && skip_directory(it->path())) {
                it.disable_recursion_pending();
                continue;
            }
            if (!it->is_regular_file() || !is_source_file(it->path()))
                continue;
            const std::string rel =
                normalize_path(fs::relative(it->path(), options.root,
                                            ec)
                                   .string());
            targets.emplace_back(rel, it->path());
        }
        if (ec) errors.push_back("walking " + root.string() + ": " +
                                 ec.message());
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());

    std::vector<SourceFile> files;
    files.reserve(targets.size());
    for (const auto& [rel, disk] : targets) {
        try {
            files.push_back(SourceFile::load(disk, rel));
        } catch (const std::exception& e) {
            errors.push_back(e.what());
        }
    }
    return files;
}

AnalysisResult analyze_files(const std::vector<SourceFile>& files) {
    AnalysisResult result;
    result.files_scanned = files.size();

    for (const SourceFile& file : files) {
        std::vector<Finding> f = run_line_rules(file);
        result.findings.insert(result.findings.end(),
                               std::make_move_iterator(f.begin()),
                               std::make_move_iterator(f.end()));
    }

    const IncludeGraph graph = IncludeGraph::build(files);
    const DeclModel decls = DeclModel::build(files);
    for (auto&& pass :
         {check_layering(graph), check_include_cycles(graph),
          check_float_in_digest(files, graph),
          run_flow_passes(files, decls)}) {
        result.findings.insert(result.findings.end(), pass.begin(),
                               pass.end());
    }

    std::sort(result.findings.begin(), result.findings.end(),
              [](const Finding& a, const Finding& b) {
                  return std::tie(a.file, a.line, a.rule) <
                         std::tie(b.file, b.line, b.rule);
              });
    return result;
}

void apply_baseline(AnalysisResult& result,
                    const std::filesystem::path& baseline) {
    std::string error;
    const auto loaded = load_baseline(baseline, &error);
    if (!loaded.has_value()) {
        result.errors.push_back(error);
        return;
    }
    RatchetResult ratchet = ratchet_compare(result.findings, *loaded);
    result.ratcheted = true;
    result.ratchet_regressions = std::move(ratchet.regressions);
    result.ratchet_stale = std::move(ratchet.stale);
}

std::string analysis_json(const AnalysisResult& result) {
    json::Object root;
    root.emplace("version", 1);
    root.emplace("files_scanned", result.files_scanned);
    json::Array findings;
    for (const Finding& f : result.findings) {
        json::Object o;
        o.emplace("file", f.file);
        o.emplace("line", f.line);
        o.emplace("column", f.column);
        o.emplace("rule", f.rule);
        o.emplace("severity", to_string(f.severity));
        o.emplace("message", f.message);
        findings.emplace_back(std::move(o));
    }
    root.emplace("findings", std::move(findings));
    root.emplace("ratcheted", result.ratcheted);
    json::Array regressions;
    for (const std::string& line : result.ratchet_regressions)
        regressions.emplace_back(line);
    root.emplace("ratchet_regressions", std::move(regressions));
    json::Array stale;
    for (const std::string& line : result.ratchet_stale)
        stale.emplace_back(line);
    root.emplace("ratchet_stale", std::move(stale));
    json::Array errors;
    for (const std::string& line : result.errors)
        errors.emplace_back(line);
    root.emplace("errors", std::move(errors));
    return json::serialize(json::Value(std::move(root)));
}

AnalysisResult analyze(const AnalyzerOptions& options) {
    std::vector<std::string> errors;
    const std::vector<SourceFile> files = scan_tree(options, errors);
    AnalysisResult result = analyze_files(files);
    result.errors = std::move(errors);

    if (options.baseline.has_value())
        apply_baseline(result, *options.baseline);
    return result;
}

}  // namespace ksa::lint
