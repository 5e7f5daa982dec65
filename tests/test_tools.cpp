// Tests for the tooling layer: run DOT export, certification reports
// and the explorer's violation dichotomy under one-crash plans.

#include <gtest/gtest.h>

#include "algo/flooding.hpp"
#include "algo/initial_clique.hpp"
#include "algo/quorum_leader_kset.hpp"
#include "core/explorer.hpp"
#include "core/report.hpp"
#include "core/theorem10.hpp"
#include "core/theorem2.hpp"
#include "core/theorem8.hpp"
#include "sim/dot_export.hpp"
#include "sim/schedulers.hpp"
#include "sim/system.hpp"

namespace ksa {
namespace {

// --------------------------------------------------------------- DOT export

TEST(DotExport, RunDiagramContainsLanesArrowsAndDecisions) {
    algo::FloodingKSet algorithm(2);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), {}, rr);
    std::string dot = run_to_dot(run);
    EXPECT_NE(dot.find("digraph run"), std::string::npos);
    EXPECT_NE(dot.find("p1_0"), std::string::npos);       // lane anchor
    EXPECT_NE(dot.find("VAL(1,1)"), std::string::npos);   // message label
    EXPECT_NE(dot.find("palegreen"), std::string::npos);  // decision fill
}

TEST(DotExport, CrashIsHighlighted) {
    algo::FloodingKSet algorithm(2);
    FailurePlan plan;
    plan.set_crash(1, CrashSpec{1, {}});
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), plan, rr);
    EXPECT_NE(run_to_dot(run).find("lightcoral"), std::string::npos);
}

TEST(DotExport, OptionsAreRespected) {
    algo::FloodingKSet algorithm(2);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), {}, rr);
    DotOptions quiet;
    quiet.show_payloads = false;
    EXPECT_EQ(run_to_dot(run, quiet).find("VAL(1,1)"), std::string::npos);
    DotOptions digesty;
    digesty.show_digests = true;
    EXPECT_NE(run_to_dot(run, digesty).find("FL(p1"), std::string::npos);
}

// ------------------------------------------------------------------ reports

TEST(Reports, Theorem2ReportIsComplete) {
    algo::FloodingKSet candidate(2);
    core::Theorem2Result result = core::run_theorem2(candidate, 5, 3, 2);
    std::string report = core::render_report(result);
    EXPECT_NE(report.find("Theorem 2 at (n, f, k) = (5, 3, 2)"),
              std::string::npos);
    EXPECT_NE(report.find("condition (A)"), std::string::npos);
    EXPECT_NE(report.find("witnessed"), std::string::npos);
    EXPECT_NE(report.find("| p1 |"), std::string::npos);
    EXPECT_EQ(report.find("FAILED"), std::string::npos);
}

TEST(Reports, Theorem8BorderReport) {
    auto algorithm = algo::make_flp_kset(6, 4);
    core::Theorem8Border border = core::theorem8_border(*algorithm, 6, 2);
    std::string report = core::render_report(border);
    EXPECT_NE(report.find("3 groups pasted"), std::string::npos);
    EXPECT_NE(report.find("verified per Definition 2"), std::string::npos);
}

TEST(Reports, Theorem10ReportMentionsLemma9) {
    algo::QuorumLeaderKSet candidate;
    core::Theorem10Result result = core::run_theorem10(candidate, 5, 2);
    std::string report = core::render_report(result);
    EXPECT_NE(report.find("Lemma 9"), std::string::npos);
    EXPECT_EQ(report.find("INVALID"), std::string::npos);
}

// ------------------------------------------------- one-crash dichotomy

TEST(CrashPlanExploration, TheDichotomyIsViolationsNotBivalence) {
    // What separates the correct protocol from the flawed candidate is
    // not bivalence but reachable violations: per plan, every quiescent
    // outcome of the FLP protocol is internally consistent, while
    // flooding reaches outcomes with two decided values in one run.
    // The plans: crash-free, then each process initially dead.
    std::vector<FailurePlan> plans(1);
    for (ProcessId p = 1; p <= 3; ++p) {
        plans.emplace_back();
        plans.back().set_initially_dead(p);
    }
    auto flp = algo::make_flp_kset(3, 1);
    algo::FloodingKSet flooding(2);
    for (const FailurePlan& plan : plans) {
        core::ExploreConfig cfg;
        cfg.n = 3;
        cfg.inputs = {0, 1, 1};
        cfg.plan = plan;
        cfg.k = 1;
        cfg.max_depth = 12;
        core::ExploreResult good = core::explore_schedules(*flp, cfg);
        EXPECT_FALSE(good.violation_found) << good.summary();
        EXPECT_TRUE(good.exhaustive);
    }
    core::ExploreConfig cfg;
    cfg.n = 3;
    cfg.inputs = {0, 1, 1};
    cfg.k = 1;
    cfg.max_depth = 12;
    core::ExploreResult bad = core::explore_schedules(flooding, cfg);
    EXPECT_TRUE(bad.violation_found) << bad.summary();
}

}  // namespace
}  // namespace ksa
