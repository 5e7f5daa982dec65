// Tests for the src/lint/ analyzer library: lexer, suppression
// semantics, line rules, include graph + layering, the planted-violation
// fixtures under tests/lint_fixtures/, SARIF emission/validation, the
// ratchet, and the doc-drift check against doc/analysis.md.
//
// KSA_SOURCE_DIR (compile definition from tests/CMakeLists.txt) points
// at the repo root so fixture and doc paths resolve from any build dir.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/analyzer.hpp"
#include "lint/decls.hpp"
#include "lint/flow.hpp"
#include "lint/include_graph.hpp"
#include "lint/json.hpp"
#include "lint/layers.hpp"
#include "lint/lexer.hpp"
#include "lint/ratchet.hpp"
#include "lint/rules.hpp"
#include "lint/sarif.hpp"
#include "lint/source_file.hpp"

namespace fs = std::filesystem;
using namespace ksa::lint;

namespace {

const fs::path kRepoRoot = KSA_SOURCE_DIR;
const fs::path kFixtures = kRepoRoot / "tests" / "lint_fixtures";

SourceFile make(const std::string& path, const std::string& text) {
    return SourceFile::from_string(path, text);
}

std::vector<Finding> lines_of(const std::string& path,
                              const std::string& text) {
    return run_line_rules(make(path, text));
}

AnalysisResult analyze_fixture(const std::string& name) {
    AnalyzerOptions options;
    options.root = kFixtures / name;
    options.roots = {"src"};
    AnalysisResult result = analyze(options);
    EXPECT_TRUE(result.errors.empty())
        << name << ": " << (result.errors.empty() ? "" : result.errors[0]);
    return result;
}

std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

}  // namespace

// ---------------------------------------------------------------------
// Lexer.

TEST(Lexer, BlanksLineAndBlockComments) {
    const LexedFile lf = lex(
        "int a = 1;  // std::unordered_map in a comment\n"
        "/* std::unordered_map */ int b = 2;\n");
    EXPECT_EQ(lf.lines[0].code.find("unordered_map"), std::string::npos);
    EXPECT_NE(lf.lines[0].line_comment.find("unordered_map"),
              std::string::npos);
    EXPECT_EQ(lf.lines[1].code.find("unordered_map"), std::string::npos);
    EXPECT_NE(lf.lines[1].code.find("int b = 2;"), std::string::npos);
}

TEST(Lexer, BlanksStringBodiesButKeepsColumns) {
    const LexedFile lf =
        lex("auto s = \"std::unordered_map<int,int>\"; int x = 3;\n");
    const LexedLine& l = lf.lines[0];
    EXPECT_EQ(l.code.find("unordered_map"), std::string::npos);
    EXPECT_NE(l.code.find("int x = 3;"), std::string::npos);
    // Columns line up: code is the same length as raw.
    EXPECT_EQ(l.code.size(), l.raw.size());
    EXPECT_EQ(l.raw.find("int x"), l.code.find("int x"));
}

TEST(Lexer, RawStringsSpanLines) {
    const LexedFile lf = lex(
        "auto re = R\"(std::unordered_map\n"
        "std::random_device\n"
        ")\"; int after = 1;\n");
    EXPECT_EQ(lf.lines[0].code.find("unordered_map"), std::string::npos);
    EXPECT_TRUE(lf.lines[1].continues_multiline);
    EXPECT_EQ(lf.lines[1].code.find("random_device"), std::string::npos);
    EXPECT_NE(lf.lines[2].code.find("int after = 1;"), std::string::npos);
}

TEST(Lexer, DigitSeparatorIsNotACharLiteral) {
    const LexedFile lf = lex("int big = 1'000'000; int y = 2;\n");
    EXPECT_NE(lf.lines[0].code.find("int y = 2;"), std::string::npos);
}

TEST(Lexer, ContainsTokenMatchesWholeIdentifiersOnly) {
    EXPECT_TRUE(contains_token("void f() override;", "override"));
    EXPECT_FALSE(contains_token("decided_is_final()", "final"));
    EXPECT_TRUE(contains_token("bool x final;", "final"));
}

// ---------------------------------------------------------------------
// Suppressions (the fixed semantics; each case regresses a bug in the
// first, line-only linter).

TEST(Suppression, OneTagMayNameSeveralRules) {
    const SourceFile f = make(
        "src/sim/a.hpp",
        "// ksa-lint: allow(unordered-container, raw-random) -- why\n"
        "std::unordered_map<int, int> m{unsigned(std::random_device{}())};\n");
    EXPECT_TRUE(f.suppressed(2, "unordered-container"));
    EXPECT_TRUE(f.suppressed(2, "raw-random"));
    EXPECT_FALSE(f.suppressed(2, "stream-io-in-library"));
    EXPECT_TRUE(run_line_rules(f).empty());
}

TEST(Suppression, StandaloneCommentCoversWholeWrappedStatement) {
    // The declaration wraps: the tag sits 3 lines above the offending
    // token.  The original only looked one line up.
    const SourceFile f = make(
        "src/sim/a.hpp",
        "// ksa-lint: allow(unordered-container) -- lookup only\n"
        "static const std::map<int,\n"
        "                      int,\n"
        "                      std::less<>> lookup =\n"
        "    make_lookup(std::unordered_map<int, int>{});\n");
    EXPECT_TRUE(f.suppressed(5, "unordered-container"));
    EXPECT_TRUE(run_line_rules(f).empty());
}

TEST(Suppression, TagInsideBlockCommentIsInert) {
    const SourceFile f = make(
        "src/sim/a.hpp",
        "/* ksa-lint: allow(unordered-container) */\n"
        "std::unordered_map<int, int> m;\n");
    EXPECT_FALSE(f.suppressed(2, "unordered-container"));
    const std::vector<Finding> findings = run_line_rules(f);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "unordered-container");
    EXPECT_EQ(findings[0].line, 2u);
}

TEST(Suppression, TagInsideStringLiteralIsInert) {
    const SourceFile f = make(
        "src/sim/a.hpp",
        "const char* doc = \"ksa-lint: allow(unordered-container)\";\n"
        "std::unordered_map<int, int> m;\n");
    EXPECT_FALSE(f.suppressed(2, "unordered-container"));
    EXPECT_EQ(run_line_rules(f).size(), 1u);
}

TEST(Suppression, TrailingTagCoversLineAndNext) {
    const SourceFile f = make(
        "src/sim/a.hpp",
        "std::unordered_map<int, int> a;  // ksa-lint: allow(unordered-container)\n"
        "std::unordered_map<int, int> b;\n"
        "std::unordered_map<int, int> c;\n");
    EXPECT_TRUE(f.suppressed(1, "unordered-container"));
    EXPECT_TRUE(f.suppressed(2, "unordered-container"));
    EXPECT_FALSE(f.suppressed(3, "unordered-container"));
}

// ---------------------------------------------------------------------
// Line rules through the lexer.

TEST(LineRules, PatternInsideStringLiteralDoesNotFire) {
    EXPECT_TRUE(lines_of("src/sim/a.hpp",
                         "const char* s = \"std::unordered_map\";\n")
                    .empty());
    EXPECT_TRUE(
        lines_of("src/sim/a.hpp",
                 "// std::random_device is banned (see doc/analysis.md)\n")
            .empty());
}

TEST(LineRules, UnorderedContainerScopedToHotPath) {
    const std::string code = "std::unordered_set<int> s;\n";
    EXPECT_EQ(lines_of("src/sim/a.hpp", code).size(), 1u);
    EXPECT_EQ(lines_of("src/chaos/a.hpp", code).size(), 1u);
    EXPECT_TRUE(lines_of("src/graph/a.hpp", code).empty());
}

TEST(LineRules, PointerKeyedContainer) {
    const std::vector<Finding> f = lines_of(
        "src/core/a.hpp",
        "std::map<Proc*, int> bad;\n"
        "std::map<int, Proc*> good;\n"
        "std::set<const Proc *> also_bad;\n");
    ASSERT_EQ(f.size(), 2u);
    EXPECT_EQ(f[0].rule, "pointer-keyed-container");
    EXPECT_EQ(f[0].line, 1u);
    EXPECT_EQ(f[1].line, 3u);
}

TEST(LineRules, FrontierGrowthScopedToStore) {
    const std::string code =
        "std::vector<store::DeltaRecord> frontier;\n"
        "std::deque<DeltaRecord> layer_queue;\n"
        "DeltaRecord one;\n"  // a single record by value: fine
        "std::vector<int> counts;\n";
    const std::vector<Finding> f = lines_of("src/core/a.cpp", code);
    ASSERT_EQ(f.size(), 2u);
    EXPECT_EQ(f[0].rule, "frontier-growth-outside-store");
    EXPECT_EQ(f[0].line, 1u);
    EXPECT_EQ(f[1].rule, "frontier-growth-outside-store");
    EXPECT_EQ(f[1].line, 2u);
    // The store layer itself owns the frontier containers.
    EXPECT_TRUE(lines_of("src/store/delta_store.cpp", code).empty());
    // The sanctioned bounded-scratch annotation suppresses it.
    EXPECT_TRUE(lines_of("src/core/a.cpp",
                         "// ksa-lint: allow(frontier-growth-outside-store)\n"
                         "std::vector<DeltaRecord> block_scratch;\n")
                    .empty());
}

TEST(LineRules, WallClockScopedToBenchAndExec) {
    const std::string code =
        "auto t = std::chrono::steady_clock::now();\n";
    EXPECT_EQ(lines_of("src/sim/a.cpp", code).size(), 1u);
    EXPECT_EQ(lines_of("tools/a.cpp", code).size(), 1u);
    EXPECT_TRUE(lines_of("bench/a.cpp", code).empty());
    EXPECT_TRUE(lines_of("src/exec/pool.cpp", code).empty());
}

TEST(LineRules, FindingsCarryColumns) {
    const std::vector<Finding> f =
        lines_of("src/sim/a.hpp", "    std::unordered_map<int, int> m;\n");
    ASSERT_EQ(f.size(), 1u);
    EXPECT_EQ(f[0].column, 5u);
    EXPECT_EQ(f[0].severity, Severity::kError);
}

// ---------------------------------------------------------------------
// Include graph + layers.

TEST(Layers, LongestPrefixCarvesPseudoLayers) {
    ASSERT_NE(layer_for("src/sim/types.hpp"), nullptr);
    EXPECT_EQ(layer_for("src/sim/types.hpp")->name, "types");
    EXPECT_EQ(layer_for("src/sim/system.hpp")->name, "sim");
    EXPECT_EQ(layer_for("src/core/reduction.hpp")->name, "reduction");
    EXPECT_EQ(layer_for("src/core/reduction_options.hpp")->name,
              "reduction_options");
    EXPECT_EQ(layer_for("README.md"), nullptr);
}

TEST(Layers, TableIsADag) {
    // Kahn's algorithm over the KSA_ALLOW edges: the table itself must
    // be acyclic, else "layering" would be unsatisfiable.
    const std::vector<Layer>& table = layers();
    std::map<std::string, std::set<std::string>> deps;
    for (const Layer& l : table)
        for (const std::string& to : l.allowed)
            if (to != l.name) deps[l.name].insert(to);
    std::set<std::string> done;
    bool progress = true;
    while (progress) {
        progress = false;
        for (const Layer& l : table) {
            if (done.count(l.name) != 0) continue;
            bool ready = true;
            for (const std::string& d : deps[l.name])
                if (done.count(d) == 0) ready = false;
            if (ready) {
                done.insert(l.name);
                progress = true;
            }
        }
    }
    EXPECT_EQ(done.size(), table.size()) << "layers.def contains a cycle";
}

TEST(IncludeGraph, ResolvesLikeTheBuild) {
    std::vector<SourceFile> files;
    files.push_back(make("src/sim/a.hpp", "#include \"sim/b.hpp\"\n"));
    files.push_back(make("src/sim/b.hpp", "#pragma once\n"));
    files.push_back(make("tests/t.cpp",
                         "#include \"sim/a.hpp\"\n#include <vector>\n"));
    const IncludeGraph g = IncludeGraph::build(files);
    ASSERT_EQ(g.edges().size(), 2u);  // angled <vector> carries no edge
    EXPECT_TRUE(g.reaches_suffix(2, "sim/b.hpp"));
    EXPECT_FALSE(g.reaches_suffix(1, "sim/a.hpp"));
}

TEST(IncludeGraph, NormalizePath) {
    EXPECT_EQ(normalize_path("src\\sim\\a.hpp"), "src/sim/a.hpp");
    EXPECT_EQ(normalize_path("src/./core/../sim/a.hpp"), "src/sim/a.hpp");
}

// ---------------------------------------------------------------------
// DeclModel: the token-level function/lambda scanner under the flow
// passes.

namespace {

/// The recorded function whose name token sits on `line`, or nullptr.
const FunctionDecl* fn_at(const DeclModel& m, std::size_t line) {
    for (const FunctionDecl& f : m.functions())
        if (f.line == line) return &f;
    return nullptr;
}

}  // namespace

TEST(DeclModel, NestedLambdasGetExtentsAndParents) {
    const SourceFile f = make("src/core/n.cpp",
                              "void outer() {\n"
                              "    auto a = [&](int x) {\n"
                              "        auto b = [=](int y) { return y + 1; };\n"
                              "        return b(x);\n"
                              "    };\n"
                              "}\n");
    const DeclModel m = DeclModel::build({f});
    const FunctionDecl* outer = fn_at(m, 1);
    const FunctionDecl* a = fn_at(m, 2);
    const FunctionDecl* b = fn_at(m, 3);
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_FALSE(outer->is_lambda);
    EXPECT_EQ(outer->name, "outer");
    EXPECT_TRUE(a->is_lambda);
    EXPECT_EQ(a->default_capture, '&');
    ASSERT_EQ(a->params.size(), 1u);
    EXPECT_EQ(a->params[0], "x");
    EXPECT_TRUE(b->is_lambda);
    EXPECT_EQ(b->default_capture, '=');
    ASSERT_EQ(b->params.size(), 1u);
    EXPECT_EQ(b->params[0], "y");
    // Nesting: outer <- a <- b.
    EXPECT_EQ(&m.functions()[a->parent], outer);
    EXPECT_EQ(&m.functions()[b->parent], a);
    // a's OWN body lines exclude b's extent (line 3).
    const std::size_t a_idx =
        static_cast<std::size_t>(a - m.functions().data());
    const std::vector<std::size_t> own = m.own_body_lines(a_idx);
    EXPECT_EQ(std::count(own.begin(), own.end(), 3u), 0);
    EXPECT_EQ(std::count(own.begin(), own.end(), 4u), 1);
}

TEST(DeclModel, ExplicitAndInitCaptures) {
    const SourceFile f = make(
        "src/core/c.cpp",
        "void g() {\n"
        "    int total = 0;\n"
        "    auto h = [total, &ref, owned = total](std::size_t i) {\n"
        "        return total + i;\n"
        "    };\n"
        "}\n");
    const DeclModel m = DeclModel::build({f});
    const FunctionDecl* h = fn_at(m, 3);
    ASSERT_NE(h, nullptr);
    ASSERT_TRUE(h->is_lambda);
    EXPECT_EQ(h->default_capture, 0);
    ASSERT_EQ(h->captures.size(), 3u);
    EXPECT_EQ(h->captures[0].name, "total");
    EXPECT_FALSE(h->captures[0].by_ref);
    EXPECT_FALSE(h->captures[0].init);
    EXPECT_EQ(h->captures[1].name, "ref");
    EXPECT_TRUE(h->captures[1].by_ref);
    EXPECT_EQ(h->captures[2].name, "owned");
    EXPECT_TRUE(h->captures[2].init);  // [owned = total] owns a copy
}

TEST(DeclModel, TemplatedFunctionsAndDeclarations) {
    const SourceFile f = make("src/core/t.hpp",
                              "template <typename T>\n"
                              "T twice(T value) {\n"
                              "    return value + value;\n"
                              "}\n"
                              "\n"
                              "int declared_only(int count);\n");
    const DeclModel m = DeclModel::build({f});
    const FunctionDecl* twice = fn_at(m, 2);
    ASSERT_NE(twice, nullptr);
    EXPECT_FALSE(twice->is_lambda);
    EXPECT_EQ(twice->name, "twice");
    ASSERT_EQ(twice->params.size(), 1u);
    EXPECT_EQ(twice->params[0], "value");
    EXPECT_EQ(twice->body_begin, 2u);
    EXPECT_EQ(twice->body_end, 4u);
    const FunctionDecl* decl = fn_at(m, 6);
    ASSERT_NE(decl, nullptr);
    EXPECT_EQ(decl->name, "declared_only");
    EXPECT_EQ(decl->body_begin, 0u);  // declaration: no body extent
}

TEST(DeclModel, AnnotationsAttachTrailingAndAbove) {
    const SourceFile f = make(
        "src/exec/a.cpp",
        "// ksa: wait_free -- hot path\n"
        "int fast_path(int v) { return v; }\n"
        "\n"
        "std::mutex mu;\n"
        "int hits = 0;  // ksa: guarded_by(mu)\n"
        "\n"
        "void locked_path();  // ksa: thread_safe\n");
    const DeclModel m = DeclModel::build({f});
    const FunctionDecl* fast = fn_at(m, 2);
    ASSERT_NE(fast, nullptr);
    EXPECT_TRUE(fast->has_annotation(AnnotationKind::kWaitFree));
    const FunctionDecl* locked = fn_at(m, 7);
    ASSERT_NE(locked, nullptr);
    EXPECT_TRUE(locked->has_annotation(AnnotationKind::kThreadSafe));
    ASSERT_EQ(m.guarded_members().size(), 1u);
    EXPECT_EQ(m.guarded_members()[0].member, "hits");
    EXPECT_EQ(m.guarded_members()[0].mutex, "mu");
    EXPECT_EQ(m.guarded_members()[0].line, 5u);
}

TEST(DeclModel, CallGraphReachesTokensByName) {
    std::vector<SourceFile> files;
    files.push_back(make("src/core/a.cpp",
                         "int leaf() { return fold_bytes(1); }\n"
                         "int mid() { return leaf(); }\n"
                         "int top() { return mid(); }\n"
                         "int lonely() { return 7; }\n"));
    const DeclModel m = DeclModel::build(files);
    const std::vector<std::string> sinks = {"fold_bytes"};
    ASSERT_EQ(m.functions_named("top").size(), 1u);
    EXPECT_TRUE(m.reaches_token(files, m.functions_named("top")[0], sinks));
    ASSERT_EQ(m.functions_named("lonely").size(), 1u);
    EXPECT_FALSE(
        m.reaches_token(files, m.functions_named("lonely")[0], sinks));
}

// ---------------------------------------------------------------------
// Flow passes on scratch sources (SourceFile::from_string): the raced
// twin of a real explorer.cpp call site must be caught; the disciplined
// idioms must stay silent.

TEST(Flow, RacedScratchCopyOfExplorerCallSiteIsCaught) {
    // Shape copied from src/core/explorer.cpp's layer expansion, with
    // one planted line: a by-ref captured counter bumped in the lambda.
    std::vector<SourceFile> files;
    files.push_back(make(
        "src/core/explorer_scratch.cpp",
        "void step() {\n"
        "    std::vector<Expansion> expansions ="
        " exec::parallel_map_grained(\n"
        "            sched, layer.size(), /*grain=*/0,\n"
        "            [&](std::size_t i, int) {\n"
        "                ++result.schedules_expanded;\n"
        "                return expand_node(layer[i], cfg);\n"
        "            },\n"
        "            threshold);\n"
        "}\n"));
    const DeclModel decls = DeclModel::build(files);
    const std::vector<Finding> findings = run_flow_passes(files, decls);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "parallel-capture-mutation");
    EXPECT_EQ(findings[0].line, 5u);
    EXPECT_EQ(findings[0].column, 19u);  // the `result` token
}

TEST(Flow, PerIndexSlotAndAtomicAndLockStaySilent) {
    std::vector<SourceFile> files;
    files.push_back(make(
        "src/exec/fine.cpp",
        "std::atomic<std::size_t> done{0};\n"
        "void run() {\n"
        "    std::vector<int> out(n);\n"
        "    parallel_map_grained(sched, n, 0,\n"
        "        [&out, &fn](std::size_t i, int) { out[i] = fn(i); });\n"
        "    parallel_map_grained(sched, n, 0,\n"
        "        [&](std::size_t i, int) { done.fetch_add(1); });\n"
        "    parallel_map_grained(sched, n, 0, [&](std::size_t i, int) {\n"
        "        std::lock_guard<std::mutex> lock(mu);\n"
        "        shared += i;\n"
        "    });\n"
        "}\n"));
    const DeclModel decls = DeclModel::build(files);
    EXPECT_TRUE(run_flow_passes(files, decls).empty());
}

// ---------------------------------------------------------------------
// Planted-violation fixtures: each produces EXACTLY its expected
// finding at the expected location.

TEST(Fixtures, Layering) {
    const AnalysisResult r = analyze_fixture("layering");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "layering");
    EXPECT_EQ(r.findings[0].file, "src/sim/bad_include.hpp");
    EXPECT_EQ(r.findings[0].line, 5u);
}

TEST(Fixtures, IncludeCycle) {
    const AnalysisResult r = analyze_fixture("cycle");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "include-cycle");
    EXPECT_EQ(r.findings[0].file, "src/sim/cycle_a.hpp");
    EXPECT_EQ(r.findings[0].line, 6u);
    EXPECT_NE(r.findings[0].message.find("cycle_b.hpp"), std::string::npos);
}

TEST(Fixtures, PointerKeyedContainer) {
    const AnalysisResult r = analyze_fixture("pointer_key");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "pointer-keyed-container");
    EXPECT_EQ(r.findings[0].file, "src/core/ptr_key.hpp");
    EXPECT_EQ(r.findings[0].line, 10u);
}

TEST(Fixtures, FrontierGrowth) {
    const AnalysisResult r = analyze_fixture("frontier_growth");
    ASSERT_EQ(r.findings.size(), 2u);
    for (const Finding& f : r.findings) {
        EXPECT_EQ(f.rule, "frontier-growth-outside-store");
        EXPECT_EQ(f.file, "src/core/frontier_growth.hpp");
    }
    EXPECT_EQ(r.findings[0].line, 11u);
    EXPECT_EQ(r.findings[1].line, 14u);
}

TEST(Fixtures, FloatInDigest) {
    const AnalysisResult r = analyze_fixture("float_digest");
    ASSERT_EQ(r.findings.size(), 2u);  // direct + transitive includer
    for (const Finding& f : r.findings) {
        EXPECT_EQ(f.rule, "float-in-digest");
        EXPECT_EQ(f.line, 10u);
    }
    EXPECT_EQ(r.findings[0].file, "src/core/transitive.hpp");
    EXPECT_EQ(r.findings[1].file, "src/core/uses_digest.hpp");
}

TEST(Fixtures, WallClock) {
    const AnalysisResult r = analyze_fixture("wall_clock");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "wall-clock-outside-bench");
    EXPECT_EQ(r.findings[0].file, "src/sim/timer.hpp");
    EXPECT_EQ(r.findings[0].line, 9u);
}

TEST(Fixtures, FlowParallelCaptureMutation) {
    const AnalysisResult r = analyze_fixture("flow/capture");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "parallel-capture-mutation");
    EXPECT_EQ(r.findings[0].file, "src/core/racy.cpp");
    EXPECT_EQ(r.findings[0].line, 13u);
    EXPECT_EQ(r.findings[0].column, 9u);  // the `total` token
}

TEST(Fixtures, FlowNondetIterationReachesOutput) {
    // Two loops: one reaches the fold vocabulary directly, one through
    // a helper (the call-graph edge).
    const AnalysisResult r = analyze_fixture("flow/nondet_iter");
    ASSERT_EQ(r.findings.size(), 2u);
    for (const Finding& f : r.findings) {
        EXPECT_EQ(f.rule, "nondet-iteration-reaches-output");
        EXPECT_EQ(f.file, "src/graph/emit.cpp");
        EXPECT_EQ(f.column, 5u);  // the `for` keyword
    }
    EXPECT_EQ(r.findings[0].line, 23u);  // direct fold
    EXPECT_EQ(r.findings[1].line, 31u);  // via mix()
}

TEST(Fixtures, FlowLockDisciplineGuardedMember) {
    const AnalysisResult r = analyze_fixture("flow/lock");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "lock-discipline");
    EXPECT_EQ(r.findings[0].file, "src/exec/bad_lock.cpp");
    EXPECT_EQ(r.findings[0].line, 19u);
    EXPECT_EQ(r.findings[0].column, 16u);  // the `hits` read in peek()
    EXPECT_NE(r.findings[0].message.find("peek"), std::string::npos);
}

TEST(Fixtures, FlowLockDisciplineUnannotatedEntryPoint) {
    const AnalysisResult r = analyze_fixture("flow/lock_entry");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "lock-discipline");
    EXPECT_EQ(r.findings[0].file, "src/exec/api.hpp");
    EXPECT_EQ(r.findings[0].line, 11u);
    EXPECT_EQ(r.findings[0].column, 1u);
    EXPECT_NE(r.findings[0].message.find("submit_all"), std::string::npos);
}

TEST(Fixtures, FlowBlockingInTask) {
    const AnalysisResult r = analyze_fixture("flow/blocking");
    ASSERT_EQ(r.findings.size(), 2u);
    for (const Finding& f : r.findings) {
        EXPECT_EQ(f.rule, "blocking-in-task");
        EXPECT_EQ(f.file, "src/exec/task.cpp");
    }
    EXPECT_EQ(r.findings[0].line, 13u);    // std::lock_guard
    EXPECT_EQ(r.findings[0].column, 5u);
    EXPECT_EQ(r.findings[1].line, 14u);    // std::make_unique
    EXPECT_EQ(r.findings[1].column, 18u);
}

TEST(Fixtures, CleanScansSkipTheCorpora) {
    // lint_fixtures/ holds planted violations; the ordinary tree scan
    // must never descend into it (else the clean gates would fail).
    AnalyzerOptions options;
    options.root = kRepoRoot;
    options.roots = {"tests"};
    const AnalysisResult r = analyze(options);
    EXPECT_TRUE(r.errors.empty());
    for (const Finding& f : r.findings)
        EXPECT_EQ(f.file.find("lint_fixtures"), std::string::npos) << f.file;
}

// ---------------------------------------------------------------------
// SARIF.

TEST(Sarif, EmitsValid210Document) {
    std::vector<Finding> findings;
    findings.push_back({"src/sim/a.hpp", 12, 5, "unordered-container",
                        Severity::kError, "message text"});
    const std::string doc = to_sarif(findings, "file:///repo/");
    std::string error;
    const auto parsed = json::parse(doc, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_TRUE(validate_sarif(*parsed).empty());

    const json::Value* runs = parsed->find("runs");
    ASSERT_NE(runs, nullptr);
    const json::Value& run = runs->as_array()[0];
    const json::Value* results = run.find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->as_array().size(), 1u);
    const json::Value& res = results->as_array()[0];
    EXPECT_EQ(res.find("ruleId")->as_string(), "unordered-container");
    EXPECT_EQ(res.find("level")->as_string(), "error");
    const json::Value& loc = res.find("locations")->as_array()[0];
    const json::Value* phys = loc.find("physicalLocation");
    ASSERT_NE(phys, nullptr);
    EXPECT_EQ(phys->find("artifactLocation")->find("uri")->as_string(),
              "src/sim/a.hpp");
    EXPECT_EQ(phys->find("region")->find("startLine")->as_number(), 12.0);
    EXPECT_EQ(phys->find("region")->find("startColumn")->as_number(), 5.0);

    // ruleIndex must agree with tool.driver.rules.
    const double idx = res.find("ruleIndex")->as_number();
    const json::Value& rules =
        *run.find("tool")->find("driver")->find("rules");
    EXPECT_EQ(rules.as_array()[static_cast<std::size_t>(idx)]
                  .find("id")
                  ->as_string(),
              "unordered-container");
}

TEST(Sarif, FlowRulesAreDeclaredAndIndexed) {
    // The four flow rules ride the same writer: they must appear under
    // tool.driver.rules, and a flow finding's ruleIndex must resolve.
    std::vector<Finding> findings;
    findings.push_back({"src/exec/task.cpp", 13, 5, "blocking-in-task",
                        Severity::kError, "m"});
    auto doc = json::parse(to_sarif(findings, ""), nullptr);
    ASSERT_TRUE(doc.has_value());
    EXPECT_TRUE(validate_sarif(*doc).empty());
    const json::Value& run = doc->find("runs")->as_array()[0];
    const json::Value& rules =
        *run.find("tool")->find("driver")->find("rules");
    std::set<std::string> ids;
    for (const json::Value& r : rules.as_array())
        ids.insert(r.find("id")->as_string());
    for (const char* name :
         {"parallel-capture-mutation", "nondet-iteration-reaches-output",
          "lock-discipline", "blocking-in-task"})
        EXPECT_TRUE(ids.count(name) != 0) << name;
    const json::Value& res = run.find("results")->as_array()[0];
    const double idx = res.find("ruleIndex")->as_number();
    EXPECT_EQ(rules.as_array()[static_cast<std::size_t>(idx)]
                  .find("id")
                  ->as_string(),
              "blocking-in-task");
}

TEST(Sarif, EmptyFindingsStillValidates) {
    const std::string doc = to_sarif({}, "");
    const auto parsed = json::parse(doc, nullptr);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(validate_sarif(*parsed).empty());
}

TEST(Sarif, ValidatorCatchesBrokenDocuments) {
    const auto broken = json::parse(R"({"version": "1.0.0"})", nullptr);
    ASSERT_TRUE(broken.has_value());
    EXPECT_FALSE(validate_sarif(*broken).empty());

    // A result whose ruleId disagrees with its ruleIndex must fail.
    std::vector<Finding> findings;
    findings.push_back({"a.hpp", 1, 1, "raw-random", Severity::kError, "m"});
    auto doc = json::parse(to_sarif(findings, ""), nullptr);
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(validate_sarif(*doc).empty());
    json::Value& run = doc->as_object()["runs"].as_array()[0];
    json::Value& res = run.as_object()["results"].as_array()[0];
    res.as_object()["ruleId"] = json::Value(std::string("no-such-rule"));
    EXPECT_FALSE(validate_sarif(*doc).empty());
}

// ---------------------------------------------------------------------
// Ratchet.

namespace {

fs::path write_temp(const std::string& name, const std::string& text) {
    const fs::path path = fs::path(::testing::TempDir()) / name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    return path;
}

}  // namespace

TEST(Ratchet, NewFindingInScratchCopyFails) {
    // Scratch copy of a clean fixture tree + one planted violation: the
    // ratchet against the (empty) committed baseline must regress.
    const fs::path scratch =
        fs::path(::testing::TempDir()) / "ksa_ratchet_scratch";
    fs::remove_all(scratch);
    fs::create_directories(scratch / "src" / "sim");
    std::ofstream(scratch / "src" / "sim" / "clean.hpp")
        << "#pragma once\ninline int ok() { return 1; }\n";

    AnalyzerOptions options;
    options.root = scratch;
    options.roots = {"src"};
    options.baseline = kRepoRoot / "lint_baseline.json";
    AnalysisResult before = analyze(options);
    ASSERT_TRUE(before.errors.empty());
    EXPECT_TRUE(before.ratcheted);
    EXPECT_FALSE(before.has_violations());

    std::ofstream(scratch / "src" / "sim" / "planted.hpp")
        << "#pragma once\n#include <map>\nstd::map<int*, int> bad;\n";
    AnalysisResult after = analyze(options);
    ASSERT_TRUE(after.errors.empty());
    EXPECT_TRUE(after.ratcheted);
    EXPECT_TRUE(after.has_violations());
    ASSERT_EQ(after.ratchet_regressions.size(), 1u);
    EXPECT_NE(after.ratchet_regressions[0].find("pointer-keyed-container"),
              std::string::npos);
    fs::remove_all(scratch);
}

TEST(Ratchet, GrandfatheredCountPassesAndStaleFails) {
    std::vector<Finding> findings;
    findings.push_back({"src/a.hpp", 3, 1, "raw-random", Severity::kError,
                        "m"});
    const std::vector<BaselineEntry> exact = {{"raw-random", "src/a.hpp", 1}};
    EXPECT_TRUE(ratchet_compare(findings, exact).ok());

    // One more finding than baselined: regression.
    findings.push_back({"src/a.hpp", 9, 1, "raw-random", Severity::kError,
                        "m"});
    const RatchetResult grown = ratchet_compare(findings, exact);
    EXPECT_EQ(grown.regressions.size(), 1u);
    EXPECT_TRUE(grown.stale.empty());

    // Fewer findings than baselined: stale (burn-down is monotone).
    const RatchetResult shrunk = ratchet_compare({}, exact);
    EXPECT_TRUE(shrunk.regressions.empty());
    EXPECT_EQ(shrunk.stale.size(), 1u);
    EXPECT_NE(shrunk.stale[0].find("--write-baseline"), std::string::npos);
}

TEST(Ratchet, BaselineJsonRoundTrips) {
    std::vector<Finding> findings;
    findings.push_back({"src/a.hpp", 3, 1, "raw-random", Severity::kError,
                        "m"});
    findings.push_back({"src/a.hpp", 9, 1, "raw-random", Severity::kError,
                        "m"});
    findings.push_back({"src/b.hpp", 1, 1, "layering", Severity::kError,
                        "m"});
    const fs::path path =
        write_temp("ksa_baseline_roundtrip.json", baseline_json(findings));
    std::string error;
    const auto loaded = load_baseline(path, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_TRUE(ratchet_compare(findings, *loaded).ok());
    fs::remove(path);
}

TEST(Ratchet, RejectsMalformedBaselines) {
    std::string error;
    EXPECT_FALSE(
        load_baseline(write_temp("ksa_bad1.json", "not json"), &error)
            .has_value());
    EXPECT_FALSE(
        load_baseline(write_temp("ksa_bad2.json", "{\"version\": 1}"),
                      &error)
            .has_value());
    EXPECT_FALSE(load_baseline(
                     write_temp("ksa_bad3.json",
                                "{\"findings\": [{\"rule\": 7}]}"),
                     &error)
                     .has_value());
}

TEST(Ratchet, CommittedBaselineLoadsAndIsEmpty) {
    std::string error;
    const auto baseline =
        load_baseline(kRepoRoot / "lint_baseline.json", &error);
    ASSERT_TRUE(baseline.has_value()) << error;
    EXPECT_TRUE(baseline->empty())
        << "the committed ratchet baseline should stay empty: fix findings "
           "instead of grandfathering them";
}

// ---------------------------------------------------------------------
// Baseline hard-error semantics + the --format=json model.

TEST(Analyzer, MissingBaselineIsAHardError) {
    AnalysisResult r;
    r.findings.push_back({"src/a.hpp", 1, 1, "raw-random", Severity::kError,
                          "m"});
    apply_baseline(r, fs::path(::testing::TempDir()) /
                          "ksa_no_such_baseline.json");
    ASSERT_FALSE(r.errors.empty());
    EXPECT_FALSE(r.ratcheted) << "an unreadable baseline must never "
                                 "degrade into an implicit empty one";
}

TEST(Analyzer, AnalysisJsonCarriesTheFullModel) {
    AnalysisResult r;
    r.files_scanned = 3;
    r.findings.push_back({"src/exec/a.cpp", 13, 9,
                          "parallel-capture-mutation", Severity::kError,
                          "msg"});
    r.ratcheted = true;
    r.ratchet_regressions.push_back("src/exec/a.cpp: 1 new");
    std::string error;
    const auto parsed = json::parse(analysis_json(r), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->find("version")->as_number(), 1.0);
    EXPECT_EQ(parsed->find("files_scanned")->as_number(), 3.0);
    const json::Array& findings = parsed->find("findings")->as_array();
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].find("file")->as_string(), "src/exec/a.cpp");
    EXPECT_EQ(findings[0].find("line")->as_number(), 13.0);
    EXPECT_EQ(findings[0].find("column")->as_number(), 9.0);
    EXPECT_EQ(findings[0].find("rule")->as_string(),
              "parallel-capture-mutation");
    EXPECT_EQ(findings[0].find("severity")->as_string(), "error");
    EXPECT_TRUE(parsed->find("ratcheted")->as_bool());
    ASSERT_EQ(parsed->find("ratchet_regressions")->as_array().size(), 1u);
    EXPECT_TRUE(parsed->find("errors")->as_array().empty());
}

// ---------------------------------------------------------------------
// Rule table: machine-readable listing + doc drift.

TEST(Rules, JsonListingMatchesTable) {
    std::string error;
    const auto parsed = json::parse(rules_json(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    ASSERT_TRUE(parsed->is_array());
    const json::Array& arr = parsed->as_array();
    ASSERT_EQ(arr.size(), all_rules().size());
    for (std::size_t i = 0; i < arr.size(); ++i)
        EXPECT_EQ(arr[i].find("name")->as_string(), all_rules()[i].name);
}

TEST(Rules, DocTableMatchesRuleTable) {
    // doc/analysis.md section 2 carries the same rule table; both
    // directions must agree (every rule documented, nothing documented
    // that does not exist).
    const std::string doc = read_file(kRepoRoot / "doc" / "analysis.md");
    const std::size_t begin = doc.find("### The rule table");
    const std::size_t end = doc.find("### The architecture DAG");
    ASSERT_NE(begin, std::string::npos);
    ASSERT_NE(end, std::string::npos);
    const std::string section = doc.substr(begin, end - begin);

    std::set<std::string> documented;
    const std::regex row(R"(\| `([a-z0-9-]+)` \|)");
    for (std::sregex_iterator it(section.begin(), section.end(), row), last;
         it != last; ++it)
        documented.insert((*it)[1].str());

    std::set<std::string> implemented;
    for (const RuleInfo& r : all_rules()) implemented.insert(r.name);

    for (const std::string& name : implemented)
        EXPECT_TRUE(documented.count(name) != 0)
            << "rule `" << name << "` missing from doc/analysis.md";
    for (const std::string& name : documented)
        EXPECT_TRUE(implemented.count(name) != 0)
            << "doc/analysis.md documents unknown rule `" << name << "`";
}

// ---------------------------------------------------------------------
// Whole-tree gate (same check as ctest's ksa_analyze.layers_clean, but
// debuggable from the test binary).

TEST(WholeTree, AnalyzesClean) {
    AnalyzerOptions options;
    options.root = kRepoRoot;
    const AnalysisResult result = analyze(options);
    EXPECT_TRUE(result.errors.empty())
        << (result.errors.empty() ? "" : result.errors[0]);
    for (const Finding& f : result.findings)
        ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                      << f.message;
}
