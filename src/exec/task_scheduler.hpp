#pragma once
// Work-stealing task scheduler: the execution core behind every
// parallel path in the repository (explorer layer-parallel BFS,
// resilience sweeps, border maps, theorem benches).  src/exec/ is the
// ONLY place in src/ where threading primitives may appear (ksa_analyze
// rule `threading-outside-exec`); everything else goes through
// parallel_map_grained (parallel_map.hpp).
//
// Why work stealing.  A barrier pool that partitions [0, count) into
// exactly `threads` static chunks lets one expensive item -- a skewed
// BFS layer, an uneven sweep cell -- serialize its whole thread's
// share while the other cores idle at the barrier (BENCH_sweep.json
// recorded a 0.979x "speedup" at 4 threads under such a pool).  Here a
// region is split into many grain-sized chunks, one contiguous block
// of them per worker slot, each block with an atomic cursor at its
// next unclaimed chunk.  A worker claims its own block front to back
// by fetch_add on the cursor, then steals what is still unclaimed of
// its peers' blocks the same way.  Load imbalance is repaired at chunk
// granularity instead of being baked in at region start.
//
// The determinism contract (PR-1) survives unchanged, because stealing
// moves WORK between workers, never RESULTS between slots:
//
//   * the chunk -> index-range map is pure arithmetic on
//     (count, grain): chunk c covers [c*grain, min(count, (c+1)*grain));
//   * work items are independent and each writes only its own output
//     slot; the caller consumes slots in input order;
//   * an exception escaping an item is stored in its chunk's slot and,
//     after the region completes, the lowest chunk index is re-thrown
//     -- which is the lowest throwing item index, for every grain and
//     every thread count;
//   * the one timing-dependent quantity, which slot ran which chunk,
//     is surfaced only through steal_count() and must never reach a
//     report.
//
// So N-thread output is byte-identical to 1-thread output at any
// grain, any thread count, on any machine -- tests/test_exec.cpp and
// the TSan preset hold the implementation to it.
//
// Oversubscription: requested parallelism is clamped to
// hardware_threads() by default.  Running 4 workers on 1 core is pure
// overhead (the pre-clamp flagship bench measured fast_mt_ms > fast_ms
// for exactly this reason); callers keep asking for N "logical"
// threads and the scheduler spends only what the machine has.  Tests
// that need real contention on small machines pass oversubscribe.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace ksa::exec {

/// Best-effort hardware concurrency, never less than 1.
int hardware_threads();  // ksa: thread_safe

/// A fixed-size pool of persistent workers executing grain-chunked
/// index regions, each worker stealing from its peers' blocks once its
/// own block is claimed.  Construction with an effective
/// size of 1 creates no workers; run_chunked then executes inline on
/// the caller's thread (the reference behavior every parallel run must
/// reproduce byte-for-byte).
class TaskScheduler {
public:
    /// Grain bounds for auto_grain / sequential_threshold.  kMinGrain
    /// keeps per-chunk handoff amortized over at least a few items;
    /// kMaxGrain caps a chunk so stealing can still repair imbalance
    /// inside very large regions.
    static constexpr std::size_t kMinGrain = 4;
    static constexpr std::size_t kMaxGrain = 1024;

    /// Spawns min(threads, hardware_threads()) - 1 workers; the
    /// caller's thread participates in every region, so the effective
    /// size() CPUs are busy.  threads < 1 is treated as 1.
    // ksa: thread_safe -- construction happens-before any worker runs.
    explicit TaskScheduler(int threads);

    /// Test entry: oversubscribe = true skips the hardware clamp so a
    /// 1-core CI box can still exercise real cross-thread stealing.
    // ksa: thread_safe -- construction happens-before any worker runs.
    TaskScheduler(int threads, bool oversubscribe);

    ~TaskScheduler();

    TaskScheduler(const TaskScheduler&) = delete;
    TaskScheduler& operator=(const TaskScheduler&) = delete;

    /// Effective worker slots (>= 1, after the hardware clamp).  This
    /// is the bound for per-worker scratch arrays: the worker id
    /// passed to run_chunked's fn is always in [0, size()).
    int size() const;  // ksa: thread_safe -- immutable after construction

    /// Cumulative count of steals across all regions run on this
    /// scheduler; a steal is a chunk claimed from another slot's block.
    /// Timing-dependent by design: observability only, never report
    /// material.
    std::uint64_t steal_count() const;  // ksa: thread_safe -- relaxed atomic

    // ksa: guarded_by(mu) -- region handoff state lives behind
    // Impl::mu; the definition in task_scheduler.cpp is verified to
    // take the lock (lint rule lock-discipline).
    /// Runs fn(i, w) for every i in [0, count) exactly once, where w
    /// in [0, size()) identifies the executing worker slot (stable for
    /// the duration of one item -- index per-worker scratch with it).
    /// Work is cut into ceil(count/grain) chunks (grain == 0 selects
    /// auto_grain), one contiguous index-ordered block of chunks per
    /// worker slot, and rebalanced by stealing.  Blocks until every
    /// item returned.
    /// fn must be safe to invoke concurrently on distinct indices.  If
    /// items throw, the exception of the lowest item index is
    /// re-thrown after the region completes.
    void run_chunked(std::size_t count, std::size_t grain,
                     const std::function<void(std::size_t, int)>& fn);

    /// The default grain: about 8 chunks per worker, clamped to
    /// [kMinGrain, kMaxGrain].  Pure in (count, threads) -- never
    /// timing-dependent, so a recorded grain is reproducible.
    // ksa: wait_free -- pure arithmetic.
    static std::size_t auto_grain(std::size_t count, int threads) {
        const std::size_t t = threads < 1 ? 1 : static_cast<std::size_t>(threads);
        const std::size_t target = count / (t * 8);
        if (target < kMinGrain) return kMinGrain;
        if (target > kMaxGrain) return kMaxGrain;
        return target;
    }

    /// Below this item count a region is not worth dispatching: with
    /// fewer than kMinGrain items per worker the handoff overhead
    /// exceeds the work (the explorer's sub-millisecond layers showed
    /// fast_mt_ms > fast_ms before this fallback existed).  Callers
    /// use it as the auto value for their sequential-fallback knobs.
    // ksa: wait_free -- pure arithmetic.
    static std::size_t sequential_threshold(int threads) {
        return kMinGrain * static_cast<std::size_t>(threads < 1 ? 1 : threads);
    }

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace ksa::exec
