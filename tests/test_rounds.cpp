// Tests for the Heard-Of round model: executor, adversaries, FloodMin
// and the round-model partition argument (the Discussion section's
// conjecture, exercised).

#include <gtest/gtest.h>

#include <ostream>

#include "algo/floodmin.hpp"
#include "core/ho_argument.hpp"
#include "sim/rounds.hpp"
#include "sim/system.hpp"

namespace ksa {
namespace {

TEST(HoExecutor, FullHoConvergesInOneRound) {
    algo::FloodMin algorithm(1);
    ho::FullHo full;
    ho::HoRun run = execute_ho(algorithm, 4, {7, 3, 9, 5}, full, 4);
    EXPECT_EQ(run.rounds_executed, 1);
    for (ProcessId p = 1; p <= 4; ++p) EXPECT_EQ(run.decision_of(p), 3);
    EXPECT_EQ(run.distinct_decisions().size(), 1u);
}

TEST(HoExecutor, RecordsHeardOfSets) {
    algo::FloodMin algorithm(1);
    ho::FullHo full;
    ho::HoRun run = execute_ho(algorithm, 3, distinct_inputs(3), full, 2);
    ASSERT_EQ(run.records.size(), 3u);
    EXPECT_EQ(run.records[0].heard_of, (std::vector<ProcessId>{1, 2, 3}));
}

TEST(HoExecutor, StopsWhenAllAliveDecided) {
    algo::FloodMin algorithm(2);
    ho::FullHo full;
    ho::HoRun run = execute_ho(algorithm, 3, distinct_inputs(3), full, 50);
    EXPECT_EQ(run.rounds_executed, 2);
}

TEST(CrashHo, CrashedProcessSilencedAfterItsRound) {
    ho::CrashHo adversary;
    adversary.set_crash(1, {1, {2}});  // round 1, heard only by p2
    EXPECT_TRUE(adversary.alive(1, 1));
    EXPECT_FALSE(adversary.alive(1, 2));
    auto ho2 = adversary.heard_of(2, 1, 3);
    EXPECT_NE(std::find(ho2.begin(), ho2.end(), 1), ho2.end());
    auto ho3 = adversary.heard_of(3, 1, 3);
    EXPECT_EQ(std::find(ho3.begin(), ho3.end(), 1), ho3.end());
    auto later = adversary.heard_of(2, 2, 3);
    EXPECT_EQ(std::find(later.begin(), later.end(), 1), later.end());
}

TEST(FloodMin, OneCrashCanSplitASingleRound) {
    // f=1, k=1 needs 2 rounds; with only 1 round a crash splits the
    // system into two estimates.
    algo::FloodMin one_round(1);
    ho::CrashHo adversary;
    adversary.set_crash(1, {1, {2}});  // x1 reaches only p2
    ho::HoRun run = execute_ho(one_round, 3, {1, 2, 3}, adversary, 3);
    EXPECT_EQ(run.decision_of(2), 1);  // saw the minimum
    EXPECT_EQ(run.decision_of(3), 2);  // did not
    EXPECT_EQ(run.distinct_decisions().size(), 2u);
}

TEST(FloodMin, TwoRoundsToleratesOneCrashForConsensus) {
    // The f/k + 1 = 2 rounds close the gap the previous test opened.
    algo::FloodMin two_rounds(2);
    ho::CrashHo adversary;
    adversary.set_crash(1, {1, {2}});
    ho::HoRun run = execute_ho(two_rounds, 3, {1, 2, 3}, adversary, 4);
    EXPECT_EQ(run.distinct_decisions().size(), 1u);
}

TEST(FloodMin, RoundsForBound) {
    EXPECT_EQ(algo::FloodMin::rounds_for(0, 1), 1);
    EXPECT_EQ(algo::FloodMin::rounds_for(3, 1), 4);
    EXPECT_EQ(algo::FloodMin::rounds_for(3, 2), 2);
    EXPECT_EQ(algo::FloodMin::rounds_for(4, 2), 3);
}

// ------------------------------------------------- crash-schedule sweep

struct CrashSweep {
    int n, f, k;
    std::uint64_t seed;
};

// Names each instance by its fields, so the test names do not depend on
// the struct's padding bytes (gtest's default prints the raw object).
void PrintTo(const CrashSweep& c, std::ostream* os) {
    *os << "n" << c.n << "_f" << c.f << "_k" << c.k << "_seed" << c.seed;
}

class FloodMinCrashProperty : public ::testing::TestWithParam<CrashSweep> {};

TEST_P(FloodMinCrashProperty, AtMostKValuesWithinTheRoundBudget) {
    const auto [n, f, k, seed] = GetParam();
    // Worst-case staggering: one crash per round (the classic adversary
    // that delays cleaning as long as possible).
    std::vector<int> rounds;
    for (int i = 0; i < f; ++i) rounds.push_back(i / k + 1);
    const int distinct = core::ho_floodmin_crash_trial(n, f, k, rounds, seed);
    EXPECT_LE(distinct, k) << "n=" << n << " f=" << f << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FloodMinCrashProperty,
    ::testing::Values(CrashSweep{4, 1, 1, 1}, CrashSweep{5, 2, 1, 2},
                      CrashSweep{5, 2, 2, 3}, CrashSweep{6, 3, 1, 4},
                      CrashSweep{6, 3, 2, 5}, CrashSweep{6, 3, 3, 6},
                      CrashSweep{8, 4, 2, 7}, CrashSweep{8, 5, 3, 8},
                      CrashSweep{10, 6, 2, 9}, CrashSweep{10, 6, 3, 10},
                      CrashSweep{12, 7, 4, 11}, CrashSweep{9, 8, 4, 12}));

// ------------------------------------------- the HO partition argument

TEST(HoPartition, IsolatedBlocksSplitFloodMin) {
    // k=2: three isolated pairs keep three minima for ever -- the
    // Theorem 1 partition argument in the round model.
    algo::FloodMin algorithm(2);
    core::HoPartitionResult result = core::ho_partition_argument(
        algorithm, 6, 2, {{1, 2}, {3, 4}, {5, 6}}, /*isolation_rounds=*/0);
    EXPECT_TRUE(result.violation) << result.summary();
    EXPECT_EQ(result.distinct_decisions, 3);
    EXPECT_TRUE(result.all_indistinguishable);
}

TEST(HoPartition, EarlySynchronousWindowRescues) {
    // If the partition heals before the decision round (window at round
    // 1 of a 3-round protocol), FloodMin converges: no violation.
    algo::FloodMin algorithm(3);
    core::HoPartitionResult result = core::ho_partition_argument(
        algorithm, 6, 2, {{1, 2}, {3, 4}, {5, 6}}, /*isolation_rounds=*/1);
    EXPECT_FALSE(result.violation) << result.summary();
    EXPECT_EQ(result.distinct_decisions, 1);
}

TEST(HoPartition, LateWindowIsTooLate) {
    // Window opens only after the decision round: the blocks already
    // decided their own minima (Alistarh et al.'s synchronous-window
    // lower bound, qualitatively).
    algo::FloodMin algorithm(2);
    core::HoPartitionResult result = core::ho_partition_argument(
        algorithm, 6, 2, {{1, 2}, {3, 4}, {5, 6}}, /*isolation_rounds=*/2);
    EXPECT_TRUE(result.violation) << result.summary();
}

}  // namespace
}  // namespace ksa
