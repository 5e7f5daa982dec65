#include "bench_util.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "sim/serialize.hpp"
#include "sim/types.hpp"

namespace ksa::bench {

int parse_threads(std::string_view text) {
    const int threads = parse_int_flag("threads", text);
    if (threads < 1)
        throw UsageError("--threads needs at least 1 thread, got '" +
                         std::string(text) + "'");
    return threads;
}

namespace {

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string render_double(double value) {
    // Fixed format with three decimals: stable across locales and
    // readable for millisecond timings.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    return buf;
}

}  // namespace

BenchEntry::BenchEntry(std::string name) : name_(std::move(name)) {}

BenchEntry& BenchEntry::num(const std::string& key, double value) {
    fields_.emplace_back(key, render_double(value));
    return *this;
}

BenchEntry& BenchEntry::num(const std::string& key, std::int64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
}

BenchEntry& BenchEntry::num(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
}

BenchEntry& BenchEntry::num(const std::string& key, int value) {
    return num(key, static_cast<std::int64_t>(value));
}

BenchEntry& BenchEntry::boolean(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
    return *this;
}

BenchEntry& BenchEntry::str(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, '"' + json_escape(value) + '"');
    return *this;
}

std::string BenchEntry::to_json() const {
    std::ostringstream out;
    out << "{\"name\": \"" << json_escape(name_) << "\"";
    for (const auto& [key, value] : fields_)
        out << ", \"" << json_escape(key) << "\": " << value;
    out << "}";
    return out.str();
}

BenchReport::BenchReport(std::string suite) : suite_(std::move(suite)) {}

BenchEntry& BenchReport::entry(std::string name) {
    entries_.emplace_back(std::move(name));
    return entries_.back();
}

std::string BenchReport::to_json() const {
    std::ostringstream out;
    out << "{\n  \"suite\": \"" << json_escape(suite_) << "\",\n";
    out << "  \"entries\": [\n";
    for (std::size_t i = 0; i < entries_.size(); ++i)
        out << "    " << entries_[i].to_json()
            << (i + 1 < entries_.size() ? "," : "") << "\n";
    out << "  ]\n}\n";
    return out.str();
}

void BenchReport::write(const std::string& path) const {
    std::ofstream out(path);
    require(static_cast<bool>(out), "BenchReport::write: cannot open " + path);
    out << to_json();
    require(static_cast<bool>(out), "BenchReport::write: write failed: " + path);
    std::cout << "wrote " << path << "\n";
}

}  // namespace ksa::bench
