#pragma once
// Order-preserving parallel combinators (see task_scheduler.hpp for
// the determinism discipline this layer enforces).
//
// parallel_map_grained is the repository's idiom for "make a sweep
// parallel": evaluate fn(0..count-1, worker) on a work-stealing
// scheduler, return the results *in input order*.  Because each
// invocation writes only its own pre-allocated slot and the caller
// consumes slots sequentially, the returned vector is byte-identical
// for every thread count and every grain -- which is exactly the
// property the sweep reports (chaos::resilience_sweep,
// core::border_map, the theorem benches) and the layer-parallel
// explorer BFS are tested for.  The worker argument (in
// [0, sched.size())) exists for per-worker scratch reuse: index a
// scratch array with it, never a shared object.
//
// Recipe for parallelizing a new sweep (doc/performance.md §"Adding a
// parallel sweep" walks through a full example):
//
//   1. materialize the iteration space into an index-addressable list
//      of *independent* work items (no shared mutable state; seeds and
//      parameters derived from the item, never from a shared counter);
//   2. results = parallel_map_grained(sched, items.size(), grain, fn);
//      grain 0 = auto; grain 1 when items are few and individually
//      expensive (a sweep of model-checking cells);
//   3. fold `results` into the report sequentially, in input order;
//   4. add a 1-thread-vs-N-thread byte-identity test.

#include <cstddef>
#include <type_traits>
#include <vector>

#include "exec/task_scheduler.hpp"

namespace ksa::exec {

/// Evaluates fn(i, worker) for i in [0, count) on `sched` and returns
/// the results in input order.  R must be default-constructible and
/// move-assignable.  fn is invoked concurrently on distinct indices;
/// it must not touch shared mutable state (per-worker scratch indexed
/// by the worker argument is the sanctioned exception).
///
/// `grain` is the chunk size handed to TaskScheduler::run_chunked
/// (0 = auto_grain).  `min_parallel` is the sequential fallback: when
/// count is below it (or the scheduler has a single slot), the map
/// runs inline on the calling thread as worker 0 -- for tiny batches
/// the per-region handoff costs more than the work.  The fallback runs
/// the same fn over the same indices into the same slots, so results
/// stay byte-identical to the parallel path.  Pass
/// TaskScheduler::sequential_threshold(sched.size()) unless you have a
/// measured reason not to.
// ksa: thread_safe -- stateless; all shared state is the caller's
// scheduler.
template <typename Fn>
auto parallel_map_grained(TaskScheduler& sched, std::size_t count,
                          std::size_t grain, Fn&& fn,
                          std::size_t min_parallel = 0)
        -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t, int>>> {
    using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t, int>>;
    std::vector<R> out(count);
    if (sched.size() <= 1 || count < min_parallel) {
        for (std::size_t i = 0; i < count; ++i) out[i] = fn(i, 0);
        return out;
    }
    sched.run_chunked(count, grain, [&out, &fn](std::size_t i, int w) {
        out[i] = fn(i, w);
    });
    return out;
}

}  // namespace ksa::exec
