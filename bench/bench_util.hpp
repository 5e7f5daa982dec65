#pragma once
// Shared bench harness: a monotonic wall timer, the benches' thread
// count parser and a dependency-free JSON reporter for the BENCH_*.json
// artifacts.
//
// Report schema (doc/performance.md §"Bench JSON schema"):
//
//   {
//     "suite": "<suite name>",
//     "entries": [
//       {"name": "<entry name>", "<key>": <value>, ...},
//       ...
//     ]
//   }
//
// Keys appear in insertion order; values are numbers, booleans or
// strings.  Timings are measured quantities and therefore the ONE
// intentionally nondeterministic output of this repository -- every
// derived fact in an entry (state counts, verdicts, speedup inputs)
// must still be byte-stable, which is why entries carry them alongside
// the milliseconds: two BENCH files from different machines must agree
// on everything except the timings.

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ksa::bench {

/// Monotonic wall-clock timer.
class WallTimer {
public:
    WallTimer() : start_(clock::now()) {}
    void reset() { start_ = clock::now(); }
    /// Elapsed wall time in milliseconds since construction/reset.
    double elapsed_ms() const {
        return std::chrono::duration<double, std::milli>(clock::now() -
                                                         start_)
            .count();
    }

private:
    using clock = std::chrono::steady_clock;
    clock::time_point start_;
};

/// Times one call of `fn` in milliseconds.
template <typename Fn>
double time_call_ms(Fn&& fn) {
    WallTimer t;
    fn();
    return t.elapsed_ms();
}

/// `text` as a thread count: an int of at least 1.  Anything else is a
/// UsageError naming --threads and the text.
int parse_threads(std::string_view text);

/// One named measurement row of a bench report.
class BenchEntry {
public:
    explicit BenchEntry(std::string name);

    BenchEntry& num(const std::string& key, double value);
    BenchEntry& num(const std::string& key, std::int64_t value);
    BenchEntry& num(const std::string& key, std::uint64_t value);
    BenchEntry& num(const std::string& key, int value);
    BenchEntry& boolean(const std::string& key, bool value);
    BenchEntry& str(const std::string& key, const std::string& value);

    std::string to_json() const;  ///< one JSON object, single line

private:
    std::string name_;
    /// key -> already-rendered JSON value, in insertion order.
    std::vector<std::pair<std::string, std::string>> fields_;
};

/// A bench report: a named suite of entries, rendered as stable JSON.
class BenchReport {
public:
    explicit BenchReport(std::string suite);

    /// Appends and returns a new entry (deque storage: the reference
    /// stays valid across later appends).
    BenchEntry& entry(std::string name);

    std::string to_json() const;

    /// Writes to_json() to `path` (overwrites) and echoes the path to
    /// stdout.  Throws UsageError if the file cannot be written.
    void write(const std::string& path) const;

private:
    std::string suite_;
    std::deque<BenchEntry> entries_;
};

}  // namespace ksa::bench
