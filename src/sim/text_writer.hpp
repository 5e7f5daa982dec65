#pragma once
// Append-only text rendering into a plain std::string.
//
// State digests (Behavior::state_digest, which every recorded step
// stores as StepRecord::digest_after), payload renderings and the
// reference explorer's canonical keys are built once per recorded step
// or per reference candidate.  A std::ostringstream per string spent
// more time in stream setup and locale-aware formatting than the
// rendering itself; TextWriter appends straight into a std::string
// instead: integers through std::to_chars into a stack buffer, every
// piece through append(ptr, len).
//
// It prints what operator<< on a default-formatted ostream printed:
// integers in decimal with a leading '-' when negative, a bool as 0 or
// 1, chars and strings verbatim.

#include <charconv>
#include <concepts>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

namespace ksa {

/// Appends to the string it was built over (see the file comment).
class TextWriter {
public:
    explicit TextWriter(std::string& out) : out_(&out) {}

    TextWriter& operator<<(std::string_view s) {
        out_->append(s.data(), s.size());
        return *this;
    }
    TextWriter& operator<<(const char* s) {
        return *this << std::string_view(s);
    }
    TextWriter& operator<<(char c) {
        out_->push_back(c);
        return *this;
    }

    /// An integer in decimal; a bool as 0 or 1.
    template <std::integral T>
    TextWriter& operator<<(T v) {
        static_assert(!std::is_same_v<T, signed char> &&
                              !std::is_same_v<T, unsigned char>,
                      "a stream printed these as characters; cast first");
        if constexpr (std::is_same_v<T, bool>) {
            out_->push_back(v ? '1' : '0');
        } else {
            char buf[std::numeric_limits<T>::digits10 + 2];
            const std::to_chars_result r =
                    std::to_chars(buf, buf + sizeof(buf), v);
            out_->append(buf, static_cast<std::size_t>(r.ptr - buf));
        }
        return *this;
    }

private:
    std::string* out_;
};

}  // namespace ksa
