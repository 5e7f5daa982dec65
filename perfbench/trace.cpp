#include "trace.hpp"

#include <chrono>
#include <map>

#include "bench_util.hpp"

namespace ksa::perfbench {

std::int64_t now_ns() {
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin)
            .count();
}

std::int64_t Tracer::open(std::string name, std::int64_t calls) {
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op_;
    s.calls = calls;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    const auto index = static_cast<std::int64_t>(spans_.size()) - 1;
    open_.push_back(index);
    return index;
}

void Tracer::close(std::int64_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<std::pair<std::string, std::int64_t>> Tracer::self_ns_by_name()
        const {
    // One thread records, so a span's children never overlap: the part
    // of a parent they cover is the sum of their durations.
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end_ns - spans_[i].start_ns;
    for (const Span& s : spans_)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    std::map<std::string, std::int64_t> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        by_name[spans_[i].name] += self[i];
    return {by_name.begin(), by_name.end()};
}

void Tracer::write(const std::string& path) const {
    bench::BenchReport report("perfbench-trace");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        report.entry(s.name)
                .num("id", static_cast<std::int64_t>(i))
                .num("parent", s.parent)
                .num("op", s.op)
                .num("calls", s.calls)
                .num("start_ns", s.start_ns)
                .num("end_ns", s.end_ns);
    }
    report.write(path);
}

}  // namespace ksa::perfbench
