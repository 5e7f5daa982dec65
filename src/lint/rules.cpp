#include "lint/rules.hpp"

#include <filesystem>
#include <regex>

#include "lint/json.hpp"

namespace fs = std::filesystem;

namespace ksa::lint {

namespace {

/// Path helpers (paths are judged as reported: root-relative) ---------

bool path_contains_dir(const fs::path& file, const std::string& dir) {
    for (const fs::path& part : file)
        if (part == dir) return true;
    return false;
}

bool in_deterministic_hot_path(const fs::path& file) {
    // The engine (sim/), the proof constructions (core/) and the
    // fault-injection adversary (chaos/) are the replay-critical
    // layers: chaos runs must replay bit-identically through the
    // determinism auditor, so the injector is held to the same
    // determinism bar as the engine it perturbs.
    return path_contains_dir(file, "sim") || path_contains_dir(file, "core") ||
           path_contains_dir(file, "chaos");
}

bool in_library_code(const fs::path& file) {
    // Library code lives under src/; examples/ and tools/ are entitled
    // to stream IO (it is their job).
    return path_contains_dir(file, "src");
}

bool in_library_code_outside_exec(const fs::path& file) {
    // src/exec/ is the ONE layer allowed to hold threading primitives
    // (task_scheduler.hpp states the determinism discipline).
    return path_contains_dir(file, "src") && !path_contains_dir(file, "exec");
}

bool is_interface_header(const fs::path& file) {
    // The headers that *introduce* the virtuals: declaring them there
    // without `override` is correct.
    const std::string name = file.filename().string();
    return name == "scheduler.hpp" || name == "behavior.hpp" ||
           name == "fd_oracle.hpp";
}

bool in_library_code_outside_store(const fs::path& file) {
    // src/store/ owns the frontier containers: it is the one layer
    // that enforces the RAM ceiling and the spill discipline, so
    // frontier-typed containers anywhere else in src/ re-introduce the
    // unbounded per-state resident growth the store exists to remove.
    return path_contains_dir(file, "src") && !path_contains_dir(file, "store");
}

bool outside_bench_and_exec(const fs::path& file) {
    // Wall clocks belong to measurement (bench/) and to the exec
    // layer's pool plumbing; everywhere else a timestamp read is a
    // replay hazard.
    if (path_contains_dir(file, "bench")) return false;
    if (path_contains_dir(file, "src") && path_contains_dir(file, "exec"))
        return false;
    return true;
}

/// Compiled line-rule patterns ---------------------------------------

struct LineRule {
    const RuleInfo* info;
    std::regex pattern;
    bool (*applies)(const fs::path&);
};

const std::vector<RuleInfo>& rule_table() {
    static const std::vector<RuleInfo> kRules = {
        // -- line rules (lexer-blanked code, one line at a time).
        {"unordered-container", RuleKind::kLine, Severity::kError,
         "src/sim, src/core, src/chaos",
         "hash-ordered container in a replay-critical layer; iteration "
         "order is not deterministic across builds -- use std::set/std::map "
         "or sort before iterating"},
        {"raw-random", RuleKind::kLine, Severity::kError, "all sources",
         "unseeded/global randomness; take an explicit seed and use "
         "std::mt19937_64 so runs stay replayable"},
        {"missing-override", RuleKind::kLine, Severity::kError,
         "everywhere except the interface headers",
         "re-declared engine virtual without `override`/`final`; interface "
         "drift would silently detach this subclass"},
        {"threading-outside-exec", RuleKind::kLine, Severity::kError,
         "src/ except src/exec",
         "threading primitive outside src/exec/; express parallelism "
         "through exec::parallel_map_grained (doc/performance.md) "
         "or, for genuinely thread-safe bookkeeping, annotate with "
         "ksa-lint: allow(threading-outside-exec)"},
        {"stream-io-in-library", RuleKind::kLine, Severity::kError, "src/",
         "process-global stream IO in library code; return a report/string "
         "and let examples/ or tools/ render it"},
        {"frontier-growth-outside-store", RuleKind::kLine, Severity::kError,
         "src/ except src/store",
         "frontier-typed container (vector/deque of DeltaRecord or "
         "frontier nodes) outside src/store/; such containers grow with "
         "the explored state count and bypass the store's RAM ceiling "
         "and spill discipline (doc/performance.md §6) -- route the "
         "records through store::DeltaStore or, for a bounded scratch "
         "buffer, annotate with "
         "ksa-lint: allow(frontier-growth-outside-store)"},
        {"pointer-keyed-container", RuleKind::kLine, Severity::kError, "src/",
         "map/set keyed on a raw pointer: iteration follows address order, "
         "which ASLR reshuffles on every execution -- key on a stable id "
         "(ProcessId, MessageId, an index) or on the pointee's canonical "
         "rendering instead"},
        {"wall-clock-outside-bench", RuleKind::kLine, Severity::kError,
         "everywhere except bench/ and src/exec",
         "wall-clock read outside bench//exec: timestamps differ on every "
         "execution, so any value derived from one poisons replays and "
         "digests -- measure in bench/, count steps in the engine"},
        // -- whole-program rules (include graph; analyzer.hpp).
        {"float-in-digest", RuleKind::kWholeProgram, Severity::kError,
         "src/ files that reach sim/digest.hpp",
         "float/double in a file that feeds the state digest: NaN "
         "payloads, signed zeros and x87 excess precision make float bit "
         "patterns environment-dependent, so hashing one breaks "
         "bit-identical replay -- store scaled integers or a rational pair "
         "instead"},
        {"layering", RuleKind::kWholeProgram, Severity::kError,
         "the whole tree (table: src/lint/layers.def)",
         "include crosses the architecture DAG (src/lint/layers.def): a "
         "lower layer must not reach into a higher one, and private "
         "layers (core/reduction) admit only their listed importers"},
        {"include-cycle", RuleKind::kWholeProgram, Severity::kError,
         "the whole tree",
         "include cycle: the headers in the cycle have no valid build "
         "order and the layer DAG cannot hold -- break the cycle with a "
         "forward declaration or by splitting the header"},
        // -- flow rules (decls.hpp/flow.hpp: function model + dataflow).
        {"parallel-capture-mutation", RuleKind::kWholeProgram,
         Severity::kError, "lambdas passed to parallel entry points",
         "lambda passed to a parallel entry point writes a by-reference "
         "capture that is not an atomic, not under a lock and not a "
         "per-index element slot -- a data race that desynchronizes "
         "replays; write to out[i] or aggregate after the join"},
        {"nondet-iteration-reaches-output", RuleKind::kWholeProgram,
         Severity::kError, "the whole tree",
         "iteration over an unordered container reaches digest folds / "
         "JSON emission / KSARUN trace writing: hash iteration order is "
         "not deterministic across builds, so the emitted bytes are not "
         "either -- sort the keys first or use std::map/std::set"},
        {"lock-discipline", RuleKind::kWholeProgram, Severity::kError,
         "annotated members; src/exec public headers",
         "lock discipline violated: a `ksa: guarded_by(mu)` member is "
         "touched without locking `mu`, or a src/exec entry point "
         "carries no ksa: thread_safe / guarded_by / wait_free "
         "annotation"},
        {"blocking-in-task", RuleKind::kWholeProgram, Severity::kError,
         "bodies annotated `ksa: wait_free`",
         "blocking call in a `ksa: wait_free` body: locks, condition "
         "waits, stream IO and allocation-heavy vocabulary stall the "
         "worker, and the whole region waits for its chunk to finish -- "
         "hoist the work out of the task"},
    };
    return kRules;
}

const std::vector<LineRule>& line_rules() {
    static const std::vector<LineRule> kLineRules = {
        {&rule_info("unordered-container"),
         std::regex(R"(std::unordered_(set|map|multiset|multimap)\b)"),
         &in_deterministic_hot_path},
        {&rule_info("raw-random"),
         std::regex(R"((\b(s?rand)\s*\()|(std::random_device\b))"),
         [](const fs::path&) { return true; }},
        {&rule_info("missing-override"),
         // A re-declaration of one of the engine's virtuals that
         // carries neither `override` nor `final` nor a pure-virtual
         // marker in the same statement.  The virtual set is small and
         // stable, which keeps this textual check precise.
         std::regex(
             R"((next\s*\(\s*const\s+SystemView|on_step\s*\(\s*const\s+StepInput|state_digest\s*\(\s*\)\s*const|fold_state\s*\(\s*StateHasher|fold_state_renamed\s*\(\s*StateHasher|make_behavior\s*\(\s*ProcessId|query\s*\(\s*const\s+QueryContext|needs_failure_detector\s*\(\s*\)\s*const|may_send\s*\(\s*\)\s*const|message_inert\s*\(\s*ProcessId|rename_payload_ids\s*\(\s*Payload|decided_is_final\s*\(\s*\)\s*const))"),
         [](const fs::path& f) { return !is_interface_header(f); }},
        {&rule_info("threading-outside-exec"),
         // Thread/lock/atomic vocabulary outside the exec layer.  The
         // match is on the primitives, not on <thread>-style includes.
         std::regex(
             R"(std::(jthread|thread\b|mutex|shared_mutex|timed_mutex|recursive_mutex|condition_variable|atomic|async\s*\(|future<|promise<|lock_guard|unique_lock|scoped_lock|shared_lock|barrier<|latch\b|counting_semaphore|binary_semaphore|call_once|once_flag|this_thread))"),
         &in_library_code_outside_exec},
        {&rule_info("stream-io-in-library"),
         std::regex(R"((std::cout\b|std::cerr\b|\bprintf\s*\())"),
         &in_library_code},
        {&rule_info("frontier-growth-outside-store"),
         // A vector/deque whose ELEMENT type is a frontier node type.
         // Passing records by value or holding one (`DeltaRecord rec`)
         // is fine; amassing them is the store's job.
         std::regex(
             R"(std::(vector|deque)\s*<\s*(ksa::)?(store::)?(DeltaRecord|FrontierNode|FastNode)\b)"),
         &in_library_code_outside_store},
        {&rule_info("pointer-keyed-container"),
         // First template argument of a map/set family instance is a
         // pointer type: `std::map<Foo*`, `std::set<const Bar *`, ...
         // (a pointer MAPPED VALUE is fine -- iteration still follows
         // the key).
         std::regex(
             R"(std::(unordered_)?(map|set|multimap|multiset)\s*<\s*(const\s+)?[A-Za-z_][A-Za-z0-9_:]*(\s+const)?\s*\*)"),
         &in_library_code},
        {&rule_info("wall-clock-outside-bench"),
         std::regex(
             R"(std::chrono::(system_clock|steady_clock|high_resolution_clock)\b)"),
         &outside_bench_and_exec},
    };
    return kLineRules;
}

/// missing-override helpers -------------------------------------------

bool line_declares_virtual(const std::string& code) {
    return code.find("virtual ") != std::string::npos;
}

/// An out-of-class member *definition* (`Type Class::next(...)`) cannot
/// repeat `override`; only in-class re-declarations are checked.
bool is_out_of_class_definition(const std::string& code,
                                const std::smatch& match) {
    const std::size_t pos = static_cast<std::size_t>(match.position(0));
    return pos >= 2 && code.compare(pos - 2, 2, "::") == 0;
}

/// Joins code lines [index..] into the complete declaration statement:
/// C++ declarations may wrap, and `override` usually sits on the last
/// line.
std::string statement_from(const SourceFile& file, std::size_t line) {
    std::string statement;
    const std::size_t limit = std::min(file.line_count(), line + 7);
    for (std::size_t i = line; i <= limit; ++i) {
        statement += file.code(i);
        statement += ' ';
        // A declaration ends at `;` or at the body's opening `{`.
        if (file.code(i).find(';') != std::string::npos ||
            file.code(i).find('{') != std::string::npos)
            break;
    }
    return statement;
}

bool code_blank(const std::string& code) {
    return code.find_first_not_of(" \t") == std::string::npos;
}

}  // namespace

std::string to_string(Severity s) {
    switch (s) {
        case Severity::kError: return "error";
        case Severity::kWarning: return "warning";
        case Severity::kNote: return "note";
    }
    return "error";
}

const std::vector<RuleInfo>& all_rules() { return rule_table(); }

const RuleInfo& rule_info(const std::string& name) {
    for (const RuleInfo& r : rule_table())
        if (r.name == name) return r;
    static const RuleInfo kUnknown{"unknown", RuleKind::kWholeProgram,
                                   Severity::kError, "", ""};
    return kUnknown;
}

std::string rules_json() {
    json::Array arr;
    for (const RuleInfo& r : rule_table()) {
        json::Object o;
        o.emplace("name", r.name);
        o.emplace("kind", r.kind == RuleKind::kLine ? "line"
                                                    : "whole-program");
        o.emplace("severity", to_string(r.severity));
        o.emplace("scope", r.scope);
        o.emplace("summary", r.message);
        arr.emplace_back(std::move(o));
    }
    return json::serialize(json::Value(std::move(arr)));
}

bool rule_applies(const std::string& rule, const std::string& path) {
    const fs::path p(path);
    for (const LineRule& lr : line_rules())
        if (lr.info->name == rule) return lr.applies(p);
    if (rule == "float-in-digest") return in_library_code(p);
    return true;  // layering / include-cycle judge edges, not files
}

std::vector<Finding> run_line_rules(const SourceFile& file) {
    std::vector<Finding> findings;
    const fs::path path(file.path());
    // Resolve applicability once per file, not once per line.
    std::vector<const LineRule*> active;
    for (const LineRule& rule : line_rules())
        if (rule.applies(path)) active.push_back(&rule);
    if (active.empty()) return findings;

    for (std::size_t i = 1; i <= file.line_count(); ++i) {
        const std::string& code = file.code(i);
        if (code_blank(code)) continue;
        for (const LineRule* rule : active) {
            std::smatch match;
            if (!std::regex_search(code, match, rule->pattern)) continue;
            if (rule->info->name == "missing-override") {
                if (line_declares_virtual(code)) continue;
                if (is_out_of_class_definition(code, match)) continue;
                const std::string statement = statement_from(file, i);
                if (contains_token(statement, "override") ||
                    contains_token(statement, "final"))
                    continue;
            }
            if (file.suppressed(i, rule->info->name)) continue;
            findings.push_back(
                {file.path(), i,
                 static_cast<std::size_t>(match.position(0)) + 1,
                 rule->info->name, rule->info->severity,
                 rule->info->message});
        }
    }
    return findings;
}

}  // namespace ksa::lint
