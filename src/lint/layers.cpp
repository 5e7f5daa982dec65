#include "lint/layers.hpp"

#include <algorithm>

namespace ksa::lint {

namespace {

std::vector<Layer> parse_table() {
    std::vector<Layer> out;
    auto find = [&out](const char* name) -> Layer& {
        for (Layer& l : out)
            if (l.name == name) return l;
        out.push_back(Layer{name, "", {}, {}});
        return out.back();
    };

#define KSA_LAYER(id, prefix) out.push_back(Layer{#id, prefix, {}, {}});
#define KSA_ALLOW(from, to) find(#from).allowed.push_back(#to);
#define KSA_PRIVATE(id, importer) find(#id).private_importers.push_back(importer);
#include "lint/layers.def"  // IWYU pragma: keep
#undef KSA_LAYER
#undef KSA_ALLOW
#undef KSA_PRIVATE

    return out;
}

bool allows(const Layer& from, const std::string& to_name) {
    return std::find(from.allowed.begin(), from.allowed.end(), to_name) !=
           from.allowed.end();
}

}  // namespace

const std::vector<Layer>& layers() {
    static const std::vector<Layer> kLayers = parse_table();
    return kLayers;
}

const Layer* layer_for(const std::string& rel_path) {
    const std::string path = normalize_path(rel_path);
    const Layer* best = nullptr;
    for (const Layer& l : layers()) {
        if (path.compare(0, l.prefix.size(), l.prefix) != 0) continue;
        if (best == nullptr || l.prefix.size() > best->prefix.size())
            best = &l;
    }
    return best;
}

std::vector<Finding> check_layering(const IncludeGraph& graph) {
    const RuleInfo& rule = rule_info("layering");
    std::vector<Finding> findings;
    for (const IncludeEdge& e : graph.edges()) {
        const SourceFile& from = graph.file(e.from);
        const SourceFile& to = graph.file(e.to);
        const Layer* lf = layer_for(from.path());
        const Layer* lt = layer_for(to.path());
        if (lf == nullptr || lt == nullptr) continue;  // outside the DAG

        std::string why;
        if (lf != lt && !allows(*lf, lt->name)) {
            why = "layer '" + lf->name + "' may not include layer '" +
                  lt->name + "' (" + e.written +
                  "); the DAG in src/lint/layers.def has no such edge";
        } else if (lt->is_private() && lf != lt) {
            const std::string norm = normalize_path(from.path());
            const auto& ok = lt->private_importers;
            if (std::find(ok.begin(), ok.end(), norm) == ok.end())
                why = "layer '" + lt->name +
                      "' is private (reduction internals); only its "
                      "listed importers in src/lint/layers.def may "
                      "include " +
                      e.written;
        }
        if (why.empty()) continue;
        if (from.suppressed(e.line, rule.name)) continue;
        findings.push_back({from.path(), e.line, 0, rule.name, rule.severity,
                            why + " -- " + rule.message});
    }
    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                  return std::tie(a.file, a.line) < std::tie(b.file, b.line);
              });
    return findings;
}

std::vector<Finding> check_include_cycles(const IncludeGraph& graph) {
    const RuleInfo& rule = rule_info("include-cycle");
    std::vector<Finding> findings;
    for (const std::vector<std::size_t>& comp : graph.cycles()) {
        // Report at the first member's include of another member.
        const std::size_t head = comp[0];
        std::size_t line = 1;
        for (const IncludeEdge& e : graph.edges()) {
            if (e.from == head &&
                std::find(comp.begin(), comp.end(), e.to) != comp.end()) {
                line = e.line;
                break;
            }
        }
        std::string chain;
        for (std::size_t idx : comp) {
            if (!chain.empty()) chain += " -> ";
            chain += graph.file(idx).path();
        }
        const SourceFile& head_file = graph.file(head);
        if (head_file.suppressed(line, rule.name)) continue;
        findings.push_back({head_file.path(), line, 0, rule.name,
                            rule.severity,
                            "cycle: " + chain + " -- " + rule.message});
    }
    return findings;
}

}  // namespace ksa::lint
