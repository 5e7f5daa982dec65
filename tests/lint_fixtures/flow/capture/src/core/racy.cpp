// PLANTED VIOLATION (parallel-capture-mutation): the lambda handed to
// parallel_map_grained below writes `total`, captured by reference,
// from every worker at once -- no lock, no atomic, no per-index slot.
// The sum is a data race AND its value depends on execution order, so
// two runs need not agree.  Flagged on line 13.
#include <cstddef>

namespace fixture {

inline std::size_t racy_sum(TaskScheduler& sched, std::size_t n) {
    std::size_t total = 0;
    parallel_map_grained(sched, n, 0, [&](std::size_t i, int) {
        total += i;
    });
    return total;
}

}  // namespace fixture
