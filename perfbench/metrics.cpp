#include "metrics.hpp"

#include <cstdio>

namespace ksa::perfbench {

void Metrics::put(const std::string& name, const std::string& unit, Ratio r,
                  const std::string& note) {
    report_.entry(name).str("kind", "metric").str("unit", unit).num("num", r.num).num(
            "den", r.den);
    std::printf("  %-32s %14.6g %-6s %s\n", name.c_str(), r.value(), unit.c_str(),
                note.c_str());
}

void Metrics::unmeasured(const std::string& name, const std::string& why) {
    report_.entry(name).str("kind", "unmeasured").str("why", why);
    std::printf("  %-32s %14s        %s\n", name.c_str(), "unmeasured", why.c_str());
}

}  // namespace ksa::perfbench
