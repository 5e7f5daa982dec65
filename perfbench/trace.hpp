#pragma once
// In-memory span recorder for the traced benchmark run.
//
// A span brackets one call the benchmark makes into a layer of the
// library (core::explore_schedules, store::ShardedVisitedStore::
// insert_batch, ...): name, start, end, the span that caused it and the
// operation it belongs to.  Nanosecond-scale calls are recorded one span
// per fixed-size batch, with the batch's call count, so the recorder
// does not dominate what it measures.  Spans stay in memory and are
// written out once, when the run ends.
//
// A null Tracer* means "untraced": ScopedSpan then does nothing beyond
// one branch, so the untraced run pays no recording cost.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ksa::perfbench {

/// Monotonic nanoseconds since an arbitrary process-wide origin.
std::int64_t now_ns();

struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 at the top
    std::int64_t op = 0;       ///< operation id shared by a span tree
    std::int64_t calls = 1;    ///< calls the span covers (batched spans > 1)
};

class Tracer {
public:
    /// Opens a span under the innermost open span; returns its index.
    std::int64_t open(std::string name, std::int64_t calls = 1);
    void close(std::int64_t index);

    /// Starts a new operation id; spans opened at the top level from now
    /// on carry it.
    void next_op() { ++op_; }

    /// Self time per span name: duration minus the part covered by the
    /// span's direct children, summed over all spans of that name.
    std::vector<std::pair<std::string, std::int64_t>> self_ns_by_name() const;

    /// Writes every span as one BenchReport entry.
    void write(const std::string& path) const;

private:
    std::vector<Span> spans_;
    std::vector<std::int64_t> open_;  ///< stack of open span indices
    std::int64_t op_ = 0;
};

/// RAII span; a no-op when `tracer` is null.
class ScopedSpan {
public:
    ScopedSpan(Tracer* tracer, std::string name, std::int64_t calls = 1)
        : tracer_(tracer),
          index_(tracer ? tracer->open(std::move(name), calls) : -1) {}
    ~ScopedSpan() {
        if (tracer_) tracer_->close(index_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    Tracer* tracer_;
    std::int64_t index_;
};

}  // namespace ksa::perfbench
