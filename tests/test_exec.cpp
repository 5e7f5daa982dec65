// The execution layer's determinism contract, enforced.
//
// The work-stealing core (task_scheduler.hpp) promises that
// run_chunked visits every index exactly once, that parallel maps
// produce results in input order, byte-identical for every thread
// count and grain, and that exceptions are re-thrown deterministically
// (lowest index wins).  This suite holds the scheduler to those
// promises directly -- including back-to-back regions claimed under
// contention and a region constructed so that at least one steal MUST
// happen -- and then holds the production sweeps built on it
// (chaos::resilience_sweep, core::border_map) to 1-thread-vs-N-thread
// byte-identity of their rendered reports.
//
// Oversubscribed schedulers (TaskScheduler(n, true)) are used wherever
// the test needs real concurrency: the default constructor clamps to
// the hardware, which on a 1-core CI box would silently reduce every
// "parallel" test to the inline path.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chaos/resilience.hpp"
#include "core/border_map.hpp"
#include "exec/parallel_map.hpp"
#include "exec/task_scheduler.hpp"

namespace ksa::exec {
namespace {

// ---------------------------------------------------------------------
// TaskScheduler: the work-stealing region executor.

TEST(TaskScheduler, HardwareThreadsAtLeastOne) {
    EXPECT_GE(hardware_threads(), 1);
}

TEST(TaskScheduler, ClampsToHardwareUnlessOversubscribed) {
    const int hw = hardware_threads();
    EXPECT_EQ(TaskScheduler(0).size(), 1);
    EXPECT_EQ(TaskScheduler(-2).size(), 1);
    EXPECT_LE(TaskScheduler(64).size(), hw);
    EXPECT_EQ(TaskScheduler(4, /*oversubscribe=*/true).size(), 4);
}

TEST(TaskScheduler, GrainHeuristics) {
    // 8 chunks per worker, clamped to [kMinGrain, kMaxGrain].
    EXPECT_EQ(TaskScheduler::auto_grain(0, 4), TaskScheduler::kMinGrain);
    EXPECT_EQ(TaskScheduler::auto_grain(16, 4), TaskScheduler::kMinGrain);
    EXPECT_EQ(TaskScheduler::auto_grain(3200, 4), 100u);
    EXPECT_EQ(TaskScheduler::auto_grain(std::size_t{1} << 24, 1),
              TaskScheduler::kMaxGrain);
    // kMinGrain items per worker: at 4 workers the explorer expands
    // layers of fewer than 16 nodes inline.
    EXPECT_EQ(TaskScheduler::sequential_threshold(4), 16u);
    EXPECT_EQ(TaskScheduler::sequential_threshold(0),
              TaskScheduler::kMinGrain);
}

TEST(TaskScheduler, RunChunkedCoversEveryIndexExactlyOnce) {
    for (const int threads : {1, 2, 4, 7}) {
        TaskScheduler sched(threads, /*oversubscribe=*/true);
        for (const std::size_t grain : {std::size_t{0}, std::size_t{1},
                                        std::size_t{3}, std::size_t{64}}) {
            std::vector<std::atomic<int>> hits(257);
            sched.run_chunked(hits.size(), grain,
                              [&](std::size_t i, int) { hits[i].fetch_add(1); });
            for (std::size_t i = 0; i < hits.size(); ++i)
                EXPECT_EQ(hits[i].load(), 1)
                        << "threads=" << threads << " grain=" << grain
                        << " i=" << i;
        }
    }
}

TEST(TaskScheduler, BackToBackRegionsClaimEveryIndexExactlyOnce) {
    // Seven slots racing for grain-1 chunks, in regions of 2,048, 5 and
    // 2,048 items run back to back on one scheduler, 20 times over:
    // every index of every region must run exactly once.  The 5-item
    // region leaves two slots with empty blocks, and each region must
    // rewind the cursors the one before left past their blocks' ends.
    // Even on a single core the OS preempts between claims, and under
    // TSan this is the test that vets the cursors.
    TaskScheduler sched(7, /*oversubscribe=*/true);
    ASSERT_EQ(sched.size(), 7);
    for (int rep = 0; rep < 20; ++rep) {
        for (const std::size_t count :
             {std::size_t{2048}, std::size_t{5}, std::size_t{2048}}) {
            std::vector<std::atomic<int>> hits(count);
            sched.run_chunked(count, /*grain=*/1, [&](std::size_t i, int) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (std::size_t i = 0; i < count; ++i)
                ASSERT_EQ(hits[i].load(), 1) << "rep " << rep << " count "
                                             << count << " i " << i;
        }
    }
}

TEST(TaskScheduler, SkewedRegionForcesAtLeastOneSteal) {
    // A region built so that NO schedule can finish it without
    // stealing: slot 0 owns chunks {0, 1} and claims its block front to
    // back, and chunk 0 spin-waits until chunk 1 has run.  So whichever
    // of chunks 0 and 1 slot 0 does not run first runs on another slot:
    // if slot 0 claims chunk 0, chunk 1 can only be run by a thief.
    // Slot 0 always reaches its own block and the caller's drain never
    // blocks, so one of them gets to chunk 1 -- no deadlock.
    TaskScheduler sched(2, /*oversubscribe=*/true);
    ASSERT_EQ(sched.size(), 2);
    std::atomic<bool> chunk1_done{false};
    std::vector<int> hits(4, 0);
    sched.run_chunked(hits.size(), /*grain=*/1, [&](std::size_t i, int) {
        if (i == 0)
            while (!chunk1_done.load(std::memory_order_acquire))
                std::this_thread::yield();
        if (i == 1) chunk1_done.store(true, std::memory_order_release);
        hits[i] = 1;  // distinct slots: no two indices share a byte
    });
    EXPECT_EQ(hits, (std::vector<int>{1, 1, 1, 1}));
    EXPECT_GE(sched.steal_count(), 1u);
}

TEST(TaskScheduler, SkewedWorkloadStaysByteIdentical) {
    // Grain-1 region with the cost concentrated in the first items (the
    // border_map shape): the owner of the expensive block lags and the
    // other workers strip-mine the rest of its share.  The output must
    // still equal the sequential reference exactly.
    constexpr std::size_t kItems = 192;
    auto cost = [](std::size_t i) {
        std::uint64_t acc = 0x9e3779b97f4a7c15ULL + i;
        const int spins = i < 8 ? 20000 : 20;
        for (int s = 0; s < spins; ++s) {
            acc ^= acc << 13;
            acc ^= acc >> 7;
            acc ^= acc << 17;
        }
        return acc;
    };
    std::vector<std::uint64_t> seq(kItems, 0), par(kItems, 0);
    TaskScheduler one(1);
    one.run_chunked(kItems, 1, [&](std::size_t i, int) { seq[i] = cost(i); });
    TaskScheduler four(4, /*oversubscribe=*/true);
    four.run_chunked(kItems, 1, [&](std::size_t i, int) { par[i] = cost(i); });
    EXPECT_EQ(seq, par);
}

TEST(TaskScheduler, LowestIndexExceptionWinsAtEveryGrain) {
    // Items 5 and 50 throw; the scheduler must surface item 5's
    // exception for every grain/thread combination, including grains
    // that put both throwers in the same chunk.
    for (const int threads : {1, 4}) {
        TaskScheduler sched(threads, /*oversubscribe=*/true);
        for (const std::size_t grain :
             {std::size_t{0}, std::size_t{1}, std::size_t{64}}) {
            try {
                sched.run_chunked(64, grain, [](std::size_t i, int) {
                    if (i == 5 || i == 50)
                        throw std::runtime_error(std::to_string(i));
                });
                FAIL() << "expected an exception (threads=" << threads
                       << " grain=" << grain << ")";
            } catch (const std::runtime_error& e) {
                EXPECT_STREQ(e.what(), "5")
                        << "threads=" << threads << " grain=" << grain;
            }
        }
    }
}

TEST(ParallelMap, GrainedByteIdenticalAcrossThreadCountsAndGrains) {
    auto fn = [](std::size_t i, int) { return i * 2654435761u; };
    TaskScheduler ref(1);
    const auto expected = parallel_map_grained(ref, 333, /*grain=*/0, fn);
    ASSERT_EQ(expected.size(), 333u);
    for (const int threads : {2, 4, hardware_threads()}) {
        TaskScheduler sched(threads, /*oversubscribe=*/true);
        for (const std::size_t grain :
             {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
            EXPECT_EQ(parallel_map_grained(sched, 333, grain, fn), expected)
                    << "threads=" << threads << " grain=" << grain;
        }
    }
}

TEST(ParallelMap, GrainedMinParallelKeepsSmallCountsInline) {
    TaskScheduler sched(4, /*oversubscribe=*/true);
    // Below the threshold every call must run inline on the caller
    // (worker id 0 throughout).
    const auto out = parallel_map_grained(
            sched, 8, /*grain=*/0,
            [](std::size_t i, int w) { return std::make_pair(i, w); },
            /*min_parallel=*/16);
    ASSERT_EQ(out.size(), 8u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].first, i);
        EXPECT_EQ(out[i].second, 0);
    }
}

TEST(ParallelMap, ResultsInInputOrderForEveryThreadCount) {
    auto square = [](std::size_t i, int) { return i * i; };
    TaskScheduler one(1);
    const std::vector<std::size_t> reference =
            parallel_map_grained(one, 64, /*grain=*/0, square);
    for (int threads : {2, 3, 4, 16}) {
        TaskScheduler sched(threads, /*oversubscribe=*/true);
        const std::vector<std::size_t> parallel =
                parallel_map_grained(sched, 64, /*grain=*/0, square);
        EXPECT_EQ(parallel, reference) << "threads=" << threads;
    }
}

TEST(ParallelMap, EmptyCountProducesEmptyVector) {
    TaskScheduler sched(4, /*oversubscribe=*/true);
    const auto out = parallel_map_grained(
            sched, 0, /*grain=*/0, [](std::size_t i, int) { return i; });
    EXPECT_TRUE(out.empty());
}

TEST(ParallelMap, MoreThreadsThanItems) {
    TaskScheduler sched(16, /*oversubscribe=*/true);
    const auto out = parallel_map_grained(
            sched, 3, /*grain=*/0, [](std::size_t i, int) { return i + 10; });
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], 10u);
    EXPECT_EQ(out[1], 11u);
    EXPECT_EQ(out[2], 12u);
}

TEST(ParallelMap, NonCopyableResultsMoveIntoSlots) {
    TaskScheduler sched(4, /*oversubscribe=*/true);
    const auto out = parallel_map_grained(
            sched, 8, /*grain=*/0, [](std::size_t i, int) {
                return std::make_unique<std::size_t>(i);
            });
    ASSERT_EQ(out.size(), 8u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(*out[i], i);
}

TEST(ParallelMap, LowestIndexExceptionWinsDeterministically) {
    // Two items throw; the contract picks the lowest index no matter
    // which chunk finishes first.  Grain 1 puts the throwers in
    // separate chunks; repeat to give the scheduler chances to race.
    TaskScheduler sched(4, /*oversubscribe=*/true);
    for (int rep = 0; rep < 20; ++rep) {
        try {
            parallel_map_grained(sched, 16, /*grain=*/1,
                                 [](std::size_t i, int) -> int {
                if (i == 3 || i == 11)
                    throw std::runtime_error(std::to_string(i));
                return static_cast<int>(i);
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "3");
        }
    }
}

// ---------------------------------------------------------------------
// Production sweeps: rendered reports byte-identical across threads.

TEST(ParallelSweeps, ResilienceSweepByteIdenticalAcrossThreads) {
    chaos::SweepConfig config;
    config.min_n = 2;
    config.max_n = 4;
    config.seeds_per_cell = 3;

    config.threads = 1;
    const chaos::SweepReport sequential = chaos::resilience_sweep(config);
    for (const int threads : {2, 4, hardware_threads()}) {
        config.threads = threads;
        const chaos::SweepReport parallel = chaos::resilience_sweep(config);
        EXPECT_EQ(sequential.to_json(), parallel.to_json())
                << "threads=" << threads;
        EXPECT_EQ(sequential.to_markdown(), parallel.to_markdown())
                << "threads=" << threads;
        EXPECT_EQ(sequential.total_trials(), parallel.total_trials());
        EXPECT_EQ(sequential.boundary_clean(), parallel.boundary_clean());
    }
}

TEST(ParallelSweeps, BorderMapByteIdenticalAcrossThreads) {
    const auto sequential = core::border_map(48);
    for (const int threads : {1, 2, 4, hardware_threads()}) {
        const auto parallel = core::border_map(48, threads);
        ASSERT_EQ(parallel.size(), sequential.size()) << "threads=" << threads;
        for (std::size_t i = 0; i < sequential.size(); ++i) {
            EXPECT_EQ(parallel[i].f, sequential[i].f) << "row " << i;
            EXPECT_EQ(parallel[i].initial, sequential[i].initial)
                    << "row " << i;
            EXPECT_EQ(parallel[i].async_, sequential[i].async_)
                    << "row " << i;
        }
    }
}

}  // namespace
}  // namespace ksa::exec
