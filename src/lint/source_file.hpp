#pragma once
// lint::SourceFile -- the per-file model behind ksa_analyze: lexed
// lines (lexer.hpp), extracted #include directives,
// and the suppression map parsed from `// ksa-lint: allow(rule, ...)`
// tags.
//
// Suppression semantics (the fixed version of the first, line-only
// linter's behavior; regression-tested in tests/test_lint.cpp):
//
//   * one tag may name SEVERAL rules: `allow(rule-a, rule-b)`;
//   * a tag trailing a code line suppresses that line and the next;
//   * a tag on a standalone comment line suppresses the ENTIRE next
//     statement, even when it wraps over multiple lines (statement end
//     = the next code line containing `;`, `{` or `}`, within a
//     12-line window);
//   * tags inside /* block comments */ or string literals are INERT --
//     only real `//` line comments carry suppressions.

#include <cstddef>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.hpp"

namespace ksa::lint {

struct IncludeDirective {
    std::string path;  ///< as written between the quotes/brackets
    bool angled = false;
    std::size_t line = 0;  ///< 1-based
};

class SourceFile {
public:
    /// Reads `disk_path`, lexes it, extracts includes + suppressions.
    /// `report_path` is the path findings and layering rules see
    /// (root-relative to the scan root).
    /// Throws std::runtime_error when the file cannot be read.
    static SourceFile load(const std::filesystem::path& disk_path,
                           std::string report_path);

    /// Builds the model from an in-memory buffer (tests, scratch runs).
    static SourceFile from_string(std::string report_path,
                                  const std::string& text);

    const std::string& path() const { return path_; }
    std::size_t line_count() const { return lexed_.lines.size(); }

    /// 1-based accessors; out-of-range returns an empty string.
    const std::string& code(std::size_t line) const;
    const std::string& raw(std::size_t line) const;
    /// Text of the `//` comment on `line` (empty when there is none).
    /// Block comments and strings never show up here, so annotation
    /// vocabularies (`ksa: guarded_by(...)`) share the suppression
    /// tags' inertness guarantees.
    const std::string& comment(std::size_t line) const;

    const std::vector<IncludeDirective>& includes() const {
        return includes_;
    }

    /// True when a `ksa-lint: allow(rule)` tag covers `line` (1-based).
    bool suppressed(std::size_t line, const std::string& rule) const;

    /// True when any code line mentions `word` as a whole token.
    bool mentions_token(const std::string& word) const;

    /// True when some include directive's written path equals `inc`.
    bool includes_path(const std::string& inc) const;

private:
    SourceFile() = default;
    void index(const std::string& text);

    std::string path_;
    LexedFile lexed_;
    std::vector<IncludeDirective> includes_;
    /// rule name -> set of suppressed 1-based lines.
    std::map<std::string, std::set<std::size_t>> suppressions_;
};

}  // namespace ksa::lint
