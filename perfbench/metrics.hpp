#pragma once
// Metric plumbing shared by the workloads and the layer probes.
//
// Every metric leaves the program as an exact ratio of two integers
// (num / den) -- nanosecond sums, counts, bytes -- and is divided only
// by perfbench/run.py.  That keeps all measured digits without a second
// JSON writer: bench::BenchReport renders integers verbatim.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace ksa::perfbench {

/// An exact ratio num / den.
struct Ratio {
    std::int64_t num = 0;
    std::int64_t den = 1;
    double value() const {
        return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
    }
};

/// Median of `samples` as a ratio (the mean of the two middle samples
/// when the count is even).  `samples` must not be empty.
inline Ratio median(std::vector<std::int64_t> samples) {
    std::sort(samples.begin(), samples.end());
    const std::size_t m = samples.size() / 2;
    if (samples.size() % 2 == 1) return {samples[m], 1};
    return {samples[m - 1] + samples[m], 2};
}

/// The highest of p50/p90/p99 that has at least ten samples above it
/// (nearest rank); `label` receives "p50"/"p90"/"p99".  Falls back to
/// the median when fewer than 20 samples exist.
inline std::int64_t tail(std::vector<std::int64_t> samples, std::string& label) {
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    static constexpr struct { int per_mille; const char* name; } kTails[] = {
            {990, "p99"}, {900, "p90"}, {500, "p50"}};
    for (const auto& t : kTails) {
        const std::size_t rank = n * static_cast<std::size_t>(t.per_mille) / 1000;
        if (rank < n && n - rank - 1 >= 10) {
            label = t.name;
            return samples[rank];
        }
    }
    label = "p50";
    return samples[n / 2];
}

/// Collects metrics into the run report and echoes each as a
/// human-readable line.
class Metrics {
public:
    explicit Metrics(bench::BenchReport& report) : report_(report) {}

    void put(const std::string& name, const std::string& unit, Ratio r,
             const std::string& note = "");
    void put(const std::string& name, const std::string& unit,
             std::int64_t num, std::int64_t den = 1,
             const std::string& note = "") {
        put(name, unit, Ratio{num, den}, note);
    }

    /// Declares a metric that could not be measured honestly on this
    /// machine; run.py accepts its absence.
    void unmeasured(const std::string& name, const std::string& why);

private:
    bench::BenchReport& report_;
};

}  // namespace ksa::perfbench
