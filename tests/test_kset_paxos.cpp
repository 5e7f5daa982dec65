// Tests for the (Sigma, Omega_k) k-set agreement protocol and the
// Discussion-section contrast: the Theorem 10 adversary that defeats the
// (Sigma_k, Omega_k) candidate does NOT defeat it.

#include <gtest/gtest.h>

#include "algo/kset_paxos.hpp"
#include "core/kset_spec.hpp"
#include "core/theorem1.hpp"
#include "core/theorem10.hpp"
#include "fd/sources.hpp"
#include "fd/validators.hpp"
#include "sim/schedulers.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

namespace ksa {
namespace {

std::unique_ptr<FdOracle> sigma1_omegak_oracle(int n,
                                               const FailurePlan& plan,
                                               std::vector<ProcessId> leaders) {
    return std::make_unique<fd::ComposedOracle>(
        std::make_unique<fd::CorrectSetQuorum>(n, plan),
        std::make_unique<fd::StableLeaders>(std::move(leaders), 0));
}

TEST(KSetPaxos, AtMostKValuesUnderFairSchedule) {
    const int n = 5, k = 2;
    algo::KSetPaxos algorithm(k);
    FailurePlan plan;
    auto oracle = sigma1_omegak_oracle(n, plan, {2, 4});
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, n, distinct_inputs(n), plan, rr,
                               oracle.get());
    auto check = core::check_kset_agreement(run, k);
    EXPECT_TRUE(check.ok()) << run_summary(run);
}

TEST(KSetPaxos, SurvivesCrashesOfSomeLeaders) {
    const int n = 6, k = 3;
    algo::KSetPaxos algorithm(k);
    FailurePlan plan;
    plan.set_initially_dead(1);
    plan.set_crash(3, CrashSpec{2, {}});
    auto oracle = sigma1_omegak_oracle(n, plan, {1, 3, 5});  // p5 correct
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        auto orc = sigma1_omegak_oracle(n, plan, {1, 3, 5});
        RandomScheduler sched(seed);
        ksa::Run run = execute_run(algorithm, n, distinct_inputs(n), plan,
                                   sched, orc.get());
        auto check = core::check_kset_agreement(run, k);
        EXPECT_TRUE(check.ok()) << "seed=" << seed << " " << run_summary(run);
    }
}

TEST(KSetPaxos, PreGstChaosStaysWithinKValues) {
    // Everybody believes it leads every instance before stabilization:
    // per-instance ballots arbitrate, so still <= k values.
    const int n = 5, k = 2;
    algo::KSetPaxos algorithm(k);
    FailurePlan plan;
    auto quorums = std::make_unique<fd::CorrectSetQuorum>(n, plan);
    auto leaders = std::make_unique<fd::StableLeaders>(
        std::vector<ProcessId>{1, 2}, 40, [](const QueryContext& c) {
            return std::vector<ProcessId>{c.querier,
                                          c.querier % 5 + 1};
        });
    fd::ComposedOracle oracle(std::move(quorums), std::move(leaders));
    RandomScheduler sched(3);
    ksa::Run run = execute_run(algorithm, n, distinct_inputs(n), plan, sched,
                               &oracle, {.max_steps = 80000});
    EXPECT_LE(run.distinct_decisions().size(), 2u) << run_summary(run);
    EXPECT_TRUE(run.all_correct_decided());
}

TEST(KSetPaxos, EscapesTheTheorem10Trap) {
    // Run the exact Theorem 10 construction (singleton blocks + split
    // schedule + partition detector), but strengthen the quorums to
    // Sigma_1 = correct-set (globally intersecting).  The singleton
    // blocks cannot cover a quorum in isolation, so condition (A) /
    // (dec-Dbar) of Theorem 1 fails and no violation is constructible --
    // the Discussion's design rule, executable.
    const int n = 5, k = 2;
    algo::KSetPaxos candidate(k);
    // The Theorem 10 geometry for k=2: one singleton block D_1 = {1}.
    core::PartitionSpec spec = core::make_partition_spec(n, k, {{1}});

    core::Theorem1Inputs in;
    in.algorithm = &candidate;
    in.spec = spec;
    in.inputs = distinct_inputs(n);
    in.plan = FailurePlan{};
    in.stage_budget = 400;
    in.max_steps = 20000;
    in.oracle_factory = [&](core::CertRun, const FailurePlan& plan) {
        // Sigma_1 quorums + the adversarially split leader set {2,3}.
        return std::unique_ptr<FdOracle>(std::make_unique<fd::ComposedOracle>(
            std::make_unique<fd::CorrectSetQuorum>(n, plan),
            std::make_unique<fd::StableLeaders>(
                core::theorem10_leader_set(n, k), 0)));
    };
    core::Theorem1Certificate cert = core::certify_theorem1(in);
    // The singleton block {1} cannot decide alone (its quorum spans the
    // whole correct set), so beta cannot realize (dec-Dbar).
    EXPECT_FALSE(cert.condition_b) << cert.summary();
    EXPECT_FALSE(cert.violation) << cert.summary();
}

TEST(KSetPaxos, TwoSplitLeadersCommitTwoInstancesAtMost) {
    // The very schedule that splits the flawed candidate (leaders {2,3}
    // both in D, decision announcements held back) yields at most 2 = k
    // values here -- instances are independent, but there are only k.
    const int n = 5, k = 2;
    algo::KSetPaxos algorithm(k);
    FailurePlan plan;
    auto oracle = sigma1_omegak_oracle(n, plan, {2, 3});
    std::vector<ProcessId> all{1, 2, 3, 4, 5};
    StagedScheduler::Stage hold;
    hold.active = all;
    hold.filter = [](const Message& m, ProcessId) {
        return m.payload->tag != "DEC";
    };
    hold.done = [](const SystemView& v) {
        return v.decided(2) && v.decided(3);
    };
    hold.budget = 4000;
    StagedScheduler sched({hold});
    ksa::Run run = execute_run(algorithm, n, distinct_inputs(n), plan, sched,
                               oracle.get());
    auto check = core::check_kset_agreement(run, k);
    EXPECT_TRUE(check.ok()) << run_summary(run);
    // Sanity: both leaders really decided before the release.
    EXPECT_TRUE(run.decision_of(2).has_value());
    EXPECT_TRUE(run.decision_of(3).has_value());
}

}  // namespace
}  // namespace ksa
