#include "lint/source_file.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ksa::lint {

namespace {

const std::string kEmpty;

bool blank(const std::string& s) {
    return s.find_first_not_of(" \t") == std::string::npos;
}

/// Splits "rule-a, rule-b" into trimmed rule names.
std::vector<std::string> split_rules(const std::string& list) {
    std::vector<std::string> out;
    std::string cur;
    for (char c : list) {
        if (c == ',') {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    for (std::string& r : out) {
        const std::size_t a = r.find_first_not_of(" \t");
        const std::size_t b = r.find_last_not_of(" \t");
        r = a == std::string::npos ? std::string() : r.substr(a, b - a + 1);
    }
    out.erase(std::remove_if(out.begin(), out.end(),
                             [](const std::string& r) { return r.empty(); }),
              out.end());
    return out;
}

/// All `ksa-lint: allow(...)` rule lists inside one line-comment text.
std::vector<std::string> rules_in_comment(const std::string& comment) {
    static const std::string kTag = "ksa-lint: allow(";
    std::vector<std::string> rules;
    for (std::size_t pos = comment.find(kTag); pos != std::string::npos;
         pos = comment.find(kTag, pos + 1)) {
        const std::size_t open = pos + kTag.size();
        const std::size_t close = comment.find(')', open);
        if (close == std::string::npos) continue;
        for (std::string& r : split_rules(comment.substr(open, close - open)))
            rules.push_back(std::move(r));
    }
    return rules;
}

/// Statement-terminator heuristic shared with the missing-override
/// logic: a C++ statement/declaration ends at `;`, `{` or `}`.
bool terminates_statement(const std::string& code) {
    return code.find(';') != std::string::npos ||
           code.find('{') != std::string::npos ||
           code.find('}') != std::string::npos;
}

}  // namespace

SourceFile SourceFile::load(const std::filesystem::path& disk_path,
                            std::string report_path) {
    std::ifstream in(disk_path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + disk_path.string());
    std::ostringstream buf;
    buf << in.rdbuf();
    return from_string(std::move(report_path), buf.str());
}

SourceFile SourceFile::from_string(std::string report_path,
                                   const std::string& text) {
    SourceFile f;
    f.path_ = std::move(report_path);
    f.index(text);
    return f;
}

void SourceFile::index(const std::string& text) {
    lexed_ = lex(text);
    const std::size_t n = lexed_.lines.size();

    for (std::size_t i = 0; i < n; ++i) {
        const LexedLine& ln = lexed_.lines[i];

        // -- include directives.  The pathname is a string literal (or
        // an angled token), so it is read from the RAW line; but the
        // directive itself must be real code -- `#include` spelled
        // inside a comment or a raw string has blank `code` here.
        const std::size_t hash = ln.code.find_first_not_of(" \t");
        if (hash != std::string::npos && ln.code[hash] == '#') {
            std::size_t p = hash + 1;
            while (p < ln.code.size() &&
                   (ln.code[p] == ' ' || ln.code[p] == '\t'))
                ++p;
            if (ln.code.compare(p, 7, "include") == 0) {
                p += 7;
                while (p < ln.raw.size() &&
                       (ln.raw[p] == ' ' || ln.raw[p] == '\t'))
                    ++p;
                if (p < ln.raw.size()) {
                    const char open = ln.raw[p];
                    const char close = open == '<' ? '>' : '"';
                    if (open == '<' || open == '"') {
                        const std::size_t end = ln.raw.find(close, p + 1);
                        if (end != std::string::npos && end > p + 1) {
                            includes_.push_back(
                                {ln.raw.substr(p + 1, end - p - 1),
                                 open == '<', i + 1});
                        }
                    }
                }
            }
        }

        // -- suppression tags (line comments only; see header).
        if (ln.line_comment.empty()) continue;
        const std::vector<std::string> rules =
            rules_in_comment(ln.line_comment);
        if (rules.empty()) continue;

        std::vector<std::size_t> covered;
        const std::size_t line_no = i + 1;
        covered.push_back(line_no);
        if (blank(ln.code)) {
            // Standalone comment line: cover the whole next statement.
            std::size_t s = i + 1;  // 0-based index of the next line
            while (s < n && s <= i + 3 && blank(lexed_.lines[s].code)) ++s;
            const std::size_t cap = std::min(n, s + 12);
            for (std::size_t j = s; j < cap; ++j) {
                covered.push_back(j + 1);
                if (terminates_statement(lexed_.lines[j].code)) break;
            }
        } else {
            // Trailing tag: this line and the next (the first
            // linter's contract).
            if (line_no < n) covered.push_back(line_no + 1);
        }
        for (const std::string& rule : rules)
            for (std::size_t c : covered) suppressions_[rule].insert(c);
    }
}

const std::string& SourceFile::code(std::size_t line) const {
    if (line == 0 || line > lexed_.lines.size()) return kEmpty;
    return lexed_.lines[line - 1].code;
}

const std::string& SourceFile::raw(std::size_t line) const {
    if (line == 0 || line > lexed_.lines.size()) return kEmpty;
    return lexed_.lines[line - 1].raw;
}

const std::string& SourceFile::comment(std::size_t line) const {
    if (line == 0 || line > lexed_.lines.size()) return kEmpty;
    return lexed_.lines[line - 1].line_comment;
}

bool SourceFile::suppressed(std::size_t line, const std::string& rule) const {
    const auto it = suppressions_.find(rule);
    return it != suppressions_.end() && it->second.count(line) != 0;
}

bool SourceFile::mentions_token(const std::string& word) const {
    for (const LexedLine& ln : lexed_.lines)
        if (contains_token(ln.code, word)) return true;
    return false;
}

bool SourceFile::includes_path(const std::string& inc) const {
    for (const IncludeDirective& d : includes_)
        if (d.path == inc) return true;
    return false;
}

}  // namespace ksa::lint
