#pragma once
// lint::lex -- a comment/string/raw-string aware line lexer for the
// project analyzer (tools/ksa_analyze).
//
// The first, line-only linter matched its rule regexes against raw source
// lines, so a pattern could fire inside a string literal or a trailing
// comment, and a suppression tag inside a /* block comment */ was
// honored as if it were real.  This lexer classifies every character of
// a translation unit exactly once, producing per line:
//
//   * `code`    -- the raw line with comments and the BODIES of
//                  string/char literals blanked to spaces (the quotes
//                  and prefixes survive, so columns line up with `raw`).
//                  Rules match against this, and only this.
//   * `line_comment` -- the text of a trailing or standalone `//`
//                  comment.  Suppression tags (`ksa-lint: allow(...)`)
//                  are parsed from here ONLY: a tag inside a block
//                  comment or a string literal is inert by design.
//
// Handled: `//` and `/* ... */` comments (multi-line), "..." strings
// with escapes, '...' char literals, digit separators (1'000'000), and
// R"delim( ... )delim" raw strings spanning any number of lines.
// Not handled (irrelevant at this tool's precision): trigraphs,
// backslash-newline splices inside tokens.

#include <string>
#include <vector>

namespace ksa::lint {

struct LexedLine {
    std::string raw;           ///< the line as read (no trailing newline)
    std::string code;          ///< comments + literal bodies blanked
    std::string line_comment;  ///< text after `//` (empty if none)
    /// True when the line STARTS inside a /* block comment or a raw
    /// string literal that opened on an earlier line.
    bool continues_multiline = false;
};

struct LexedFile {
    std::vector<LexedLine> lines;
};

/// Lexes a whole translation unit.  Never fails: unterminated literals
/// or comments simply classify the rest of the file.
LexedFile lex(const std::string& text);

/// True when `text` contains `word` as a whole identifier token (not as
/// a substring of a longer identifier).
bool contains_token(const std::string& text, const std::string& word);

}  // namespace ksa::lint
