#include "lint/flow.hpp"

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>
#include <tuple>

namespace ksa::lint {

namespace {

/// A piece of a function body on one line: `text` is the code between
/// the braces (boundary lines are trimmed at the brace columns), and
/// `offset` is the 0-based column where `text` starts in the full line.
struct BodySegment {
    std::size_t line = 0;
    std::size_t offset = 0;
    std::string text;
};

/// The body of `fn`, line by line, trimmed to the `{...}` extent.
/// `own_only` drops lines covered by nested lambdas/local functions.
std::vector<BodySegment> body_segments(const SourceFile& file,
                                       const DeclModel& decls,
                                       std::size_t fn, bool own_only) {
    const FunctionDecl& f = decls.functions()[fn];
    if (f.body_begin == 0) return {};
    std::set<std::size_t> keep;
    if (own_only) {
        for (const std::size_t l : decls.own_body_lines(fn)) keep.insert(l);
    } else {
        for (std::size_t l = f.body_begin; l <= f.body_end; ++l)
            keep.insert(l);
    }
    std::vector<BodySegment> out;
    for (const std::size_t l : keep) {
        const std::string& code = file.code(l);
        std::size_t from = 0;
        std::size_t to = code.size();
        if (l == f.body_begin && f.body_begin_col > 0)
            from = std::min(code.size(), f.body_begin_col);  // past the `{`
        if (l == f.body_end && f.body_end_col > 0)
            to = std::min(code.size(), f.body_end_col - 1);  // before `}`
        if (from >= to) continue;
        out.push_back({l, from, code.substr(from, to - from)});
    }
    return out;
}

/// Scans forward from the `(` at (line, col: 0-based) and returns the
/// line of the matching `)`.  Code lines only, so comment parens are
/// already blank.
std::size_t paren_close_line(const SourceFile& file, std::size_t line,
                             std::size_t col) {
    int depth = 0;
    const std::size_t cap = std::min(file.line_count(), line + 400);
    for (std::size_t l = line; l <= cap; ++l) {
        const std::string& code = file.code(l);
        for (std::size_t k = (l == line ? col : 0); k < code.size(); ++k) {
            if (code[k] == '(') ++depth;
            if (code[k] == ')' && --depth == 0) return l;
        }
    }
    return line;
}

bool lock_vocabulary(const std::string& code) {
    static const std::regex kLock(
        R"(lock_guard|unique_lock|scoped_lock|shared_lock|\.lock\s*\(|\.try_lock)");
    return std::regex_search(code, kLock);
}

/// True when some body line of `fn` names `mutex` together with lock
/// vocabulary -- the evidence lock-discipline accepts.
bool body_locks(const SourceFile& file, const DeclModel& decls,
                std::size_t fn, const std::string& mutex) {
    for (const BodySegment& seg :
         body_segments(file, decls, fn, /*own_only=*/false)) {
        if (contains_token(seg.text, mutex) && lock_vocabulary(seg.text))
            return true;
    }
    return false;
}

// ----- parallel-capture-mutation ------------------------------------

/// Local names declared inside a lambda body: `Type name =`/`;`/`{`,
/// `auto& name :` (range-for), structured bindings.  Over-approximate
/// on purpose -- a name wrongly taken for a local only silences a
/// finding, it never invents one.
std::set<std::string> local_names(const std::vector<BodySegment>& body) {
    static const std::regex kDecl(
        R"(([A-Za-z_][\w:]*(?:<[^;]*>)?[&*\s]+)([A-Za-z_]\w*)\s*(=(?!=)|;|\{|\(|:(?!:)))");
    static const std::regex kBinding(R"(auto\s*&?\s*\[([^\]]*)\])");
    static const std::set<std::string> kNotTypes = {
        "return",   "co_return", "co_yield", "co_await", "delete",
        "throw",    "case",      "goto",     "new",      "break",
        "continue", "typedef",   "using",    "else",     "operator"};
    std::set<std::string> out;
    for (const BodySegment& seg : body) {
        for (auto it = std::sregex_iterator(seg.text.begin(),
                                            seg.text.end(), kDecl);
             it != std::sregex_iterator(); ++it) {
            std::string head = (*it)[1].str();
            const std::size_t sp = head.find_first_of(" \t&*<:");
            if (sp != std::string::npos) head.resize(sp);
            if (kNotTypes.count(head) != 0) continue;
            out.insert((*it)[2].str());
        }
        for (auto it = std::sregex_iterator(seg.text.begin(),
                                            seg.text.end(), kBinding);
             it != std::sregex_iterator(); ++it) {
            std::string names = (*it)[1].str();
            std::string cur;
            for (char ch : names + ",") {
                if (ch == ',') {
                    std::size_t a = cur.find_first_not_of(" \t&");
                    std::size_t b = cur.find_last_not_of(" \t");
                    if (a != std::string::npos)
                        out.insert(cur.substr(a, b - a + 1));
                    cur.clear();
                } else {
                    cur += ch;
                }
            }
        }
    }
    return out;
}

/// True when `name` is declared std::atomic somewhere in the file.
bool declared_atomic(const SourceFile& file, const std::string& name) {
    for (std::size_t l = 1; l <= file.line_count(); ++l) {
        const std::string& code = file.code(l);
        if (code.find("atomic") == std::string::npos) continue;
        if (contains_token(code, name)) return true;
    }
    return false;
}

struct Mutation {
    std::size_t line = 0;
    std::size_t column = 0;  ///< 1-based
    std::string name;        ///< base identifier being written
    std::string chain;       ///< member/subscript chain, "" when none
};

std::vector<Mutation> find_mutations(const std::vector<BodySegment>& body) {
    // base identifier + optional member/subscript chain + a write:
    // assignment (not ==), compound assignment, ++/--, or a mutating
    // container/atomic method call.
    static const std::regex kWrite(
        R"(([A-Za-z_]\w*)((?:\s*(?:\.\w+|->\w+|\[[^\][]*\]))*)\s*(=(?![=])|\+=|-=|\*=|/=|%=|&=|\|=|\^=|<<=|>>=|\+\+|--|\.(?:push_back|emplace_back|pop_back|insert|emplace|erase|clear|resize|reserve|assign|store|fetch_add|fetch_sub|fetch_or|fetch_and|fetch_xor|exchange)\s*\())");
    static const std::regex kPrefix(R"((\+\+|--)\s*([A-Za-z_]\w*))");
    static const std::set<std::string> kNotWrites = {
        // `x == y`-adjacent false friends the regex cannot see past:
        // keywords that can precede `=` in declarations it misreads.
        "if", "while", "for", "return", "auto", "const", "int", "bool",
        "char", "long", "unsigned", "signed", "float", "double", "else",
        "case", "default", "operator"};
    std::vector<Mutation> out;
    for (const BodySegment& seg : body) {
        for (auto it = std::sregex_iterator(seg.text.begin(),
                                            seg.text.end(), kWrite);
             it != std::sregex_iterator(); ++it) {
            const std::string name = (*it)[1].str();
            if (kNotWrites.count(name) != 0) continue;
            // `a = b` where `a` is freshly declared on the same match
            // is handled by the locals pass; `<=`/`>=` comparisons:
            const std::size_t pos =
                static_cast<std::size_t>(it->position(3));
            if (seg.text[pos] == '=' && pos > 0 &&
                (seg.text[pos - 1] == '<' || seg.text[pos - 1] == '>' ||
                 seg.text[pos - 1] == '!'))
                continue;
            out.push_back({seg.line,
                           seg.offset +
                               static_cast<std::size_t>(it->position(1)) + 1,
                           name, (*it)[2].str()});
        }
        for (auto it = std::sregex_iterator(seg.text.begin(),
                                            seg.text.end(), kPrefix);
             it != std::sregex_iterator(); ++it) {
            out.push_back({seg.line,
                           seg.offset +
                               static_cast<std::size_t>(it->position(2)) + 1,
                           (*it)[2].str(), ""});
        }
    }
    return out;
}

}  // namespace

std::vector<Finding> check_parallel_capture_mutation(
    const std::vector<SourceFile>& files, const DeclModel& decls) {
    static const std::regex kEntry(
        R"(\b(parallel_map_grained|run_chunked)\s*\()");
    const RuleInfo& rule = rule_info("parallel-capture-mutation");
    const std::vector<FunctionDecl>& funcs = decls.functions();
    std::vector<Finding> findings;
    std::set<std::tuple<std::string, std::size_t, std::size_t>> seen;

    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        const SourceFile& file = files[fi];
        for (std::size_t l = 1; l <= file.line_count(); ++l) {
            const std::string& code = file.code(l);
            std::smatch m;
            std::string tail = code;
            std::size_t base = 0;
            while (std::regex_search(tail, m, kEntry)) {
                const std::size_t open =
                    base + static_cast<std::size_t>(m.position(0)) +
                    static_cast<std::size_t>(m.length(0)) - 1;
                const std::size_t end = paren_close_line(file, l, open);

                for (const std::size_t fn : decls.functions_in(fi)) {
                    const FunctionDecl& f = funcs[fn];
                    if (!f.is_lambda) continue;
                    if (f.line < l || f.line > end) continue;
                    // Only the lambdas handed to THIS call: skip ones
                    // nested inside another lambda of the same call.
                    if (f.parent != FunctionDecl::npos) {
                        const FunctionDecl& p = funcs[f.parent];
                        if (p.is_lambda && p.line >= l && p.line <= end)
                            continue;
                    }
                    if (f.default_capture != '&' &&
                        std::none_of(f.captures.begin(), f.captures.end(),
                                     [](const Capture& c) {
                                         return c.by_ref;
                                     }))
                        continue;  // copies only: cannot race

                    const std::vector<BodySegment> body = body_segments(
                        file, decls, fn, /*own_only=*/true);
                    bool locked = false;
                    for (const BodySegment& seg : body)
                        if (lock_vocabulary(seg.text)) locked = true;
                    if (locked) continue;

                    const std::set<std::string> locals = local_names(body);
                    const std::set<std::string> params(f.params.begin(),
                                                       f.params.end());
                    std::set<std::string> by_ref;
                    std::set<std::string> by_value;
                    for (const Capture& c : f.captures)
                        (c.by_ref && !c.init ? by_ref : by_value)
                            .insert(c.name);

                    for (const Mutation& mut : find_mutations(body)) {
                        if (params.count(mut.name) != 0) continue;
                        if (locals.count(mut.name) != 0) continue;
                        if (by_value.count(mut.name) != 0) continue;
                        const bool captured_by_ref =
                            by_ref.count(mut.name) != 0 ||
                            (f.default_capture == '&' &&
                             mut.name != "this");
                        if (!captured_by_ref) continue;
                        // Per-index slot: out[i] = ... with i a param.
                        bool per_index = false;
                        for (const std::string& p : f.params)
                            if (contains_token(mut.chain, p))
                                per_index = true;
                        if (per_index) continue;
                        if (declared_atomic(file, mut.name)) continue;
                        if (file.suppressed(mut.line, rule.name)) continue;
                        if (!seen.insert({file.path(), mut.line,
                                          mut.column})
                                 .second)
                            continue;
                        findings.push_back({file.path(), mut.line,
                                            mut.column, rule.name,
                                            rule.severity, rule.message});
                    }
                }
                base += static_cast<std::size_t>(m.position(0)) +
                        static_cast<std::size_t>(m.length(0));
                tail = m.suffix().str();
            }
        }
    }
    return findings;
}

// ----- nondet-iteration-reaches-output ------------------------------

namespace {

const std::vector<std::string>& sink_tokens() {
    // The digest fold vocabulary (sim/digest.hpp), JSON emission, and
    // KSARUN trace writing: anything whose bytes depend on visit order.
    static const std::vector<std::string> kSinks = {
        "fold",       "fold_state", "fold_bytes",    "fold_mark",
        "StateHasher", "Digest128", "state_digest",  "serialize",
        "to_json",    "run_to_string", "KSARUN",     "write_trace",
        "trace_line"};
    return kSinks;
}

/// Last line of the loop body that starts after the for(...) closing
/// paren: a braced body's extent, or the single statement's last line.
std::size_t loop_body_end(const SourceFile& file, std::size_t for_line,
                          std::size_t paren_col) {
    const std::size_t close = paren_close_line(file, for_line, paren_col);
    // Find the first `{` or `;` after the `)`.
    int depth = 0;
    bool counting = false;
    const std::size_t cap = std::min(file.line_count(), close + 200);
    for (std::size_t l = close; l <= cap; ++l) {
        const std::string& code = file.code(l);
        for (std::size_t k = 0; k < code.size(); ++k) {
            const char c = code[k];
            if (!counting) {
                if (c == '{') {
                    counting = true;
                    depth = 1;
                } else if (c == ';' && l > close) {
                    return l;  // single-statement body
                } else if (c == ';' && l == close) {
                    // `;` on the for line after the paren closes.
                    return l;
                }
                continue;
            }
            if (c == '{') ++depth;
            if (c == '}' && --depth == 0) return l;
        }
    }
    return close;
}

}  // namespace

std::vector<Finding> check_nondet_iteration(
    const std::vector<SourceFile>& files, const DeclModel& decls) {
    static const std::regex kUnorderedDecl(
        R"(std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s+([A-Za-z_]\w*))");
    static const std::regex kRangeFor(R"(\bfor\s*\()");
    static const std::regex kCall(R"(([A-Za-z_]\w*)\s*\()");
    const RuleInfo& rule = rule_info("nondet-iteration-reaches-output");
    std::vector<Finding> findings;

    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        const SourceFile& file = files[fi];

        std::set<std::string> unordered_vars;
        for (std::size_t l = 1; l <= file.line_count(); ++l) {
            const std::string& code = file.code(l);
            for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                                kUnorderedDecl);
                 it != std::sregex_iterator(); ++it)
                unordered_vars.insert((*it)[1].str());
        }

        for (std::size_t l = 1; l <= file.line_count(); ++l) {
            const std::string& code = file.code(l);
            std::smatch m;
            if (!std::regex_search(code, m, kRangeFor)) continue;
            const std::size_t open = static_cast<std::size_t>(
                m.position(0) + m.length(0) - 1);
            // The range expression: everything after the `:` inside the
            // for parens (joined over up to 3 lines for wrapped heads).
            std::string head = code.substr(open);
            for (std::size_t n = l + 1;
                 n <= std::min(file.line_count(), l + 2) &&
                 head.find(')') == std::string::npos;
                 ++n)
                head += " " + file.code(n);
            const std::size_t colon = head.find(" : ");
            if (colon == std::string::npos) continue;
            const std::string range_expr = head.substr(colon + 3);
            bool nondet = range_expr.find("unordered_") !=
                          std::string::npos;
            if (!nondet)
                for (const std::string& v : unordered_vars)
                    if (contains_token(range_expr, v)) nondet = true;
            if (!nondet) continue;

            const std::size_t body_end = loop_body_end(file, l, open);
            bool reaches = false;
            for (std::size_t bl = l; bl <= body_end && !reaches; ++bl) {
                const std::string& bcode = file.code(bl);
                for (const std::string& tok : sink_tokens())
                    if (contains_token(bcode, tok)) reaches = true;
                if (reaches) break;
                for (auto it = std::sregex_iterator(bcode.begin(),
                                                    bcode.end(), kCall);
                     it != std::sregex_iterator() && !reaches; ++it) {
                    for (const std::size_t callee :
                         decls.functions_named((*it)[1].str())) {
                        if (decls.reaches_token(files, callee,
                                                sink_tokens())) {
                            reaches = true;
                            break;
                        }
                    }
                }
            }
            if (!reaches) continue;
            if (file.suppressed(l, rule.name)) continue;
            findings.push_back({file.path(), l,
                                static_cast<std::size_t>(m.position(0)) + 1,
                                rule.name, rule.severity, rule.message});
        }
    }
    return findings;
}

// ----- lock-discipline ----------------------------------------------

namespace {

bool is_exec_header(const std::string& path) {
    static const std::regex kExecHeader(R"((^|/)src/exec/[^/]+\.(hpp|h)$)");
    return std::regex_search(path, kExecHeader);
}

}  // namespace

std::vector<Finding> check_lock_discipline(
    const std::vector<SourceFile>& files, const DeclModel& decls) {
    const RuleInfo& rule = rule_info("lock-discipline");
    const std::vector<FunctionDecl>& funcs = decls.functions();
    std::vector<Finding> findings;
    std::set<std::pair<std::string, std::size_t>> seen;

    const auto report = [&](const SourceFile& file, std::size_t line,
                            std::size_t column, const std::string& what) {
        if (file.suppressed(line, rule.name)) return;
        if (!seen.insert({file.path(), line}).second) return;
        findings.push_back({file.path(), line, column, rule.name,
                            rule.severity, rule.message + " (" + what + ")"});
    };

    // (a) guarded members: touched only under their mutex.
    for (const GuardedMember& g : decls.guarded_members()) {
        const SourceFile& file = files[g.file];
        for (const std::size_t fn : decls.functions_in(g.file)) {
            const FunctionDecl& f = funcs[fn];
            if (f.is_lambda || f.body_begin == 0) continue;
            if (!f.name.empty() && f.name[0] == '~') continue;
            if (f.has_annotation(AnnotationKind::kThreadSafe)) continue;
            std::size_t touch_line = 0;
            std::size_t touch_col = 0;
            for (const BodySegment& seg :
                 body_segments(file, decls, fn, /*own_only=*/true)) {
                if (seg.line == g.line) continue;
                if (!contains_token(seg.text, g.member)) continue;
                touch_line = seg.line;
                touch_col =
                    seg.offset + seg.text.find(g.member) + 1;
                break;
            }
            if (touch_line == 0) continue;
            if (body_locks(file, decls, fn, g.mutex)) continue;
            report(file, touch_line, touch_col,
                   "member `" + g.member + "` is guarded_by(" + g.mutex +
                       ") but `" + f.name + "` never locks it");
        }
    }

    // (b) a function-level guarded_by(mu) promise must be kept.
    for (std::size_t fn = 0; fn < funcs.size(); ++fn) {
        const FunctionDecl& f = funcs[fn];
        if (f.body_begin == 0) continue;
        const Annotation* ann =
            f.find_annotation(AnnotationKind::kGuardedBy);
        if (ann == nullptr) continue;
        const SourceFile& file = files[f.file];
        if (body_locks(file, decls, fn, ann->arg)) continue;
        report(file, f.line, 1,
               "`" + f.name + "` is annotated guarded_by(" + ann->arg +
                   ") but its body never locks it");
    }

    // (c) src/exec/ public header entry points carry an annotation.
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        const SourceFile& file = files[fi];
        if (!is_exec_header(file.path())) continue;
        for (const std::size_t fn : decls.functions_in(fi)) {
            const FunctionDecl& f = funcs[fn];
            if (f.is_lambda || f.deleted_or_defaulted) continue;
            if (!f.name.empty() && f.name[0] == '~') continue;
            if (!f.annotations.empty()) continue;
            report(file, f.line, 1,
                   "src/exec entry point `" + f.name +
                       "` has no ksa: thread_safe / guarded_by / "
                       "wait_free annotation");
        }
    }
    return findings;
}

// ----- blocking-in-task ---------------------------------------------

std::vector<Finding> check_blocking_in_task(
    const std::vector<SourceFile>& files, const DeclModel& decls) {
    static const std::regex kBlocking(
        R"(std::(?:lock_guard|unique_lock|scoped_lock|shared_lock|condition_variable)|\.lock\s*\(|\.try_lock|\.wait\s*\(|std::(?:cout|cerr|clog|ifstream|ofstream|fstream|getline)|\b(?:printf|fprintf|fopen|fwrite|fread|malloc|calloc|realloc)\s*\(|\bnew\b|std::make_(?:unique|shared)|\.(?:push_back|emplace_back|resize|reserve)\s*\()");
    const RuleInfo& rule = rule_info("blocking-in-task");
    const std::vector<FunctionDecl>& funcs = decls.functions();
    std::vector<Finding> findings;

    for (std::size_t fn = 0; fn < funcs.size(); ++fn) {
        const FunctionDecl& f = funcs[fn];
        if (f.body_begin == 0) continue;
        if (!f.has_annotation(AnnotationKind::kWaitFree)) continue;
        const SourceFile& file = files[f.file];
        for (const BodySegment& seg :
             body_segments(file, decls, fn, /*own_only=*/false)) {
            for (auto it = std::sregex_iterator(seg.text.begin(),
                                                seg.text.end(), kBlocking);
                 it != std::sregex_iterator(); ++it) {
                const std::size_t line = seg.line;
                if (file.suppressed(line, rule.name)) continue;
                findings.push_back(
                    {file.path(), line,
                     seg.offset + static_cast<std::size_t>(it->position(0)) +
                         1,
                     rule.name, rule.severity, rule.message});
            }
        }
    }
    return findings;
}

std::vector<Finding> run_flow_passes(const std::vector<SourceFile>& files,
                                     const DeclModel& decls) {
    std::vector<Finding> findings;
    for (auto&& pass : {check_parallel_capture_mutation(files, decls),
                        check_nondet_iteration(files, decls),
                        check_lock_discipline(files, decls),
                        check_blocking_in_task(files, decls)}) {
        findings.insert(findings.end(), pass.begin(), pass.end());
    }
    return findings;
}

}  // namespace ksa::lint
