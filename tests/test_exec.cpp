// The execution layer's determinism contract, enforced.
//
// The work-stealing core (task_scheduler.hpp / steal_deque.hpp)
// promises that run_chunked visits every index exactly once, that
// parallel maps produce results in input order, byte-identical for
// every thread count and grain, and that exceptions are re-thrown
// deterministically (lowest index wins).  This suite holds the deque
// and the scheduler to those promises directly -- including a region
// constructed so that at least one steal MUST happen -- and then holds
// the production sweeps built on them (chaos::resilience_sweep,
// core::border_map) to 1-thread-vs-N-thread byte-identity of their
// rendered reports.
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
#include "exec/steal_deque.hpp"
#include "exec/task_scheduler.hpp"

namespace ksa::exec {
namespace {

// ---------------------------------------------------------------------
// StealDeque: the Chase-Lev deque underneath the scheduler.

TEST(StealDeque, OwnerPopsLifoThievesStealFifo) {
    StealDeque d;
    d.reset(8);
    EXPECT_TRUE(d.looks_empty());
    for (std::size_t v = 0; v < 4; ++v) d.push_bottom(v);
    std::size_t out = 99;
    ASSERT_TRUE(d.steal_top(out));
    EXPECT_EQ(out, 0u);  // thieves take the oldest entry
    ASSERT_TRUE(d.pop_bottom(out));
    EXPECT_EQ(out, 3u);  // the owner takes the newest
    ASSERT_TRUE(d.pop_bottom(out));
    EXPECT_EQ(out, 2u);
    ASSERT_TRUE(d.steal_top(out));
    EXPECT_EQ(out, 1u);
    EXPECT_FALSE(d.pop_bottom(out));
    EXPECT_FALSE(d.steal_top(out));
    EXPECT_TRUE(d.looks_empty());
}

TEST(StealDeque, ResetClearsAndGrowsCapacity) {
    StealDeque d;
    d.reset(2);
    d.push_bottom(7);
    d.push_bottom(9);
    std::size_t out = 0;
    ASSERT_TRUE(d.pop_bottom(out));
    EXPECT_EQ(out, 9u);
    d.reset(16);  // grows; the leftover entry 7 must be gone
    EXPECT_TRUE(d.looks_empty());
    EXPECT_FALSE(d.steal_top(out));
    for (std::size_t v = 0; v < 16; ++v) d.push_bottom(v);
    for (std::size_t v = 16; v-- > 0;) {
        ASSERT_TRUE(d.pop_bottom(out));
        EXPECT_EQ(out, v);
    }
}

TEST(StealDeque, ConcurrentStealsDeliverEveryItemExactlyOnce) {
    // One owner popping the bottom, three thieves racing on the top of
    // the SAME deque: every pushed value must come out exactly once.
    // Even on a single core the OS preempts across the CAS, and under
    // TSan this is the test that vets the memory orders.
    constexpr std::size_t kItems = 2048;
    for (int rep = 0; rep < 5; ++rep) {
        StealDeque d;
        d.reset(kItems);
        for (std::size_t v = 0; v < kItems; ++v) d.push_bottom(v);
        std::vector<std::atomic<int>> seen(kItems);
        std::atomic<bool> owner_done{false};
        auto thief = [&] {
            std::size_t out = 0;
            while (!owner_done.load(std::memory_order_acquire))
                if (d.steal_top(out)) seen[out].fetch_add(1);
            while (d.steal_top(out)) seen[out].fetch_add(1);
        };
        std::thread t1(thief), t2(thief), t3(thief);
        std::size_t out = 0;
        while (d.pop_bottom(out)) seen[out].fetch_add(1);
        owner_done.store(true, std::memory_order_release);
        t1.join();
        t2.join();
        t3.join();
        for (std::size_t v = 0; v < kItems; ++v)
            EXPECT_EQ(seen[v].load(), 1) << "value " << v << " rep " << rep;
    }
}

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
    EXPECT_EQ(TaskScheduler(64).requested(), 64);
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

TEST(TaskScheduler, SkewedRegionForcesAtLeastOneSteal) {
    // A region built so that NO schedule can finish it without
    // stealing: worker 0 owns chunks {0, 1}; the owner visits its block
    // in ascending order and chunk 0 spin-waits until chunk 1 has run,
    // so chunk 1 can only ever be executed by a thief (thieves take the
    // far end of the block first, so a thief that grabs chunk 0 has
    // already run chunk 1 itself).  The caller's drain loop never
    // blocks, so it is guaranteed to come steal -- no deadlock.
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
