// Tests for the resilience harness and the counterexample shrinker.
//
// The harness's headline claim is Theorem 8, empirically: under
// guard-mode chaos, every (n, k, f) cell on the solvable side of
// k*n > (k+1)*f decides correctly on every seeded trial.  The shrinker's
// headline claim is the acceptance bar of the chaos layer: a messy
// planted agreement violation reduces to <= 25% of its fault events and
// both ends of the shrink replay bit-identically.

#include <gtest/gtest.h>

#include <string>

#include "algo/initial_clique.hpp"
#include "chaos/chaos_trace.hpp"
#include "chaos/fault_injector.hpp"
#include "chaos/profile.hpp"
#include "chaos/resilience.hpp"
#include "chaos/shrink.hpp"
#include "check/determinism.hpp"
#include "core/bounds.hpp"
#include "core/kset_spec.hpp"
#include "sim/schedulers.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

namespace ksa {
namespace {

// -------------------------------------------------------- classification

TEST(ClassifyRun, AgreesWithKsetSpec) {
    // A benign solvable-side run is kDecidedCorrectly...
    const auto algorithm = algo::make_flp_kset(4, 1);
    FailurePlan plan;
    plan.set_initially_dead(3);
    RoundRobinScheduler rr;
    const ksa::Run good = execute_run(*algorithm, 4, distinct_inputs(4), plan, rr);
    EXPECT_EQ(chaos::classify_run(good, 1),
              chaos::Outcome::kDecidedCorrectly);

    // ...and the impossible-side partition run violates agreement, which
    // the classifier and the spec checker must agree on.
    const auto weak = algo::make_flp_kset(4, 2);  // L = 2; 1*4 > 2*2 fails
    PartitionScheduler partition({{1, 2}, {3, 4}});
    const ksa::Run bad = execute_run(*weak, 4, distinct_inputs(4), FailurePlan{},
                                partition);
    EXPECT_EQ(chaos::classify_run(bad, 1),
              chaos::Outcome::kAgreementViolated);
    EXPECT_FALSE(core::check_kset_agreement(bad, 1).k_agreement);
}

TEST(ClassifyRun, OutcomeNamesRender) {
    EXPECT_EQ(chaos::to_string(chaos::Outcome::kDecidedCorrectly),
              "decided-correctly");
    EXPECT_EQ(chaos::to_string(chaos::Outcome::kAgreementViolated),
              "agreement-violated");
    EXPECT_EQ(chaos::to_string(chaos::Outcome::kInadmissible),
              "inadmissible");
}

// ------------------------------------------------------ the boundary sweep

TEST(ResilienceSweep, Theorem8BoundaryHoldsUnderChaos) {
    chaos::SweepConfig config;
    config.min_n = 2;
    config.max_n = 6;
    config.seeds_per_cell = 20;
    config.base_seed = 1;
    config.profile = chaos::guarded_profile(1);

    const chaos::SweepReport report = chaos::resilience_sweep(config);
    ASSERT_FALSE(report.cells.empty());
    EXPECT_TRUE(report.boundary_clean());

    int solvable_cells = 0, impossible_violations = 0;
    for (const chaos::CellResult& cell : report.cells) {
        EXPECT_EQ(cell.solvable,
                  core::theorem8_solvable(cell.n, cell.f, cell.k))
            << "n=" << cell.n << " k=" << cell.k << " f=" << cell.f;
        EXPECT_EQ(cell.trials, config.seeds_per_cell);
        if (cell.solvable) {
            ++solvable_cells;
            EXPECT_TRUE(cell.clean())
                << "n=" << cell.n << " k=" << cell.k << " f=" << cell.f;
            EXPECT_EQ(cell.decided, cell.trials);
        } else {
            impossible_violations += cell.agreement_violations;
        }
    }
    EXPECT_GT(solvable_cells, 0);
    // The impossible side is not *guaranteed* to fail per trial, but
    // over a whole grid of chaos trials some cell must have witnessed an
    // agreement violation (L = n - f is simply too low there).
    EXPECT_GT(impossible_violations, 0);
}

TEST(ResilienceSweep, ReportsRender) {
    chaos::SweepConfig config;
    config.min_n = 2;
    config.max_n = 3;
    config.seeds_per_cell = 4;
    config.profile = chaos::guarded_profile(1);
    const chaos::SweepReport report = chaos::resilience_sweep(config);

    const std::string json = report.to_json();
    EXPECT_NE(json.find("\"cells\""), std::string::npos);
    EXPECT_NE(json.find("\"solvable\""), std::string::npos);
    EXPECT_NE(json.find("\"boundary_clean\""), std::string::npos);

    const std::string md = report.to_markdown();
    EXPECT_NE(md.find("| n | k | f |"), std::string::npos);
    EXPECT_NE(md.find("Theorem 8"), std::string::npos);
}

/// Every outcome counter of a sweep, summed over its cells, as one line.
std::string sweep_totals(const chaos::SweepReport& report) {
    chaos::CellResult t;
    for (const chaos::CellResult& c : report.cells) {
        t.trials += c.trials;
        t.decided += c.decided;
        t.agreement_violations += c.agreement_violations;
        t.validity_violations += c.validity_violations;
        t.timeouts += c.timeouts;
        t.inadmissible += c.inadmissible;
        t.inconclusive += c.inconclusive;
        t.retries += c.retries;
        t.faults_injected += c.faults_injected;
    }
    return "cells=" + std::to_string(report.cells.size()) +
           " trials=" + std::to_string(t.trials) +
           " decided=" + std::to_string(t.decided) +
           " agreement=" + std::to_string(t.agreement_violations) +
           " validity=" + std::to_string(t.validity_violations) +
           " timeouts=" + std::to_string(t.timeouts) +
           " inadmissible=" + std::to_string(t.inadmissible) +
           " inconclusive=" + std::to_string(t.inconclusive) +
           " retries=" + std::to_string(t.retries) +
           " faults=" + std::to_string(t.faults_injected);
}

// The totals of a small grid, pinned: a change in how the injector
// draws its dice, how a run is recorded or how a trial is classified
// moves at least one of these counts.
TEST(ResilienceSweep, CrashGridTotalsArePinned) {
    chaos::SweepConfig config;
    config.min_n = 2;
    config.max_n = 5;
    config.seeds_per_cell = 6;
    config.base_seed = 1;
    config.profile = chaos::guarded_profile(1);
    EXPECT_EQ(sweep_totals(chaos::resilience_sweep(config)),
              "cells=40 trials=240 decided=211 agreement=29 validity=0 "
              "timeouts=0 inadmissible=0 inconclusive=0 retries=0 "
              "faults=286");
}

TEST(ResilienceSweep, ByzantineGridTotalsArePinned) {
    chaos::SweepConfig config;
    config.model = chaos::SweepConfig::FaultModel::kByzantine;
    config.min_n = 2;
    config.max_n = 5;
    config.seeds_per_cell = 6;
    config.base_seed = 1;
    config.profile = chaos::byzantine_profile(1, -1);
    config.limits.max_steps = 6000;
    EXPECT_EQ(sweep_totals(chaos::resilience_sweep(config)),
              "cells=40 trials=240 decided=189 agreement=6 validity=0 "
              "timeouts=0 inadmissible=0 inconclusive=45 retries=72 "
              "faults=847");
}

// ------------------------------------------------------------ the shrinker

/// A deliberately messy agreement violation: impossible side of
/// Theorem 8 (n=4, f=2, k=1), partition adversary, guard-mode chaos with
/// a high duplication rate so the run carries plenty of irrelevant fault
/// events for the shrinker to discard.
Run planted_violation(std::uint64_t seed) {
    const auto algorithm = algo::make_flp_kset(4, 2);  // L = 2
    PartitionScheduler partition({{1, 2}, {3, 4}});
    chaos::ChaosProfile profile = chaos::guarded_profile(seed);
    profile.duplicate_per_mille = 400;
    profile.max_duplicates = 32;
    chaos::FaultInjector injector(partition, profile);
    return execute_run(*algorithm, 4, distinct_inputs(4), FailurePlan{},
                       injector);
}

TEST(Shrink, ReducesPlantedViolationToQuarterOrLess) {
    // Find a seed whose planted run is messy enough (>= 8 fault events)
    // to make the 25% acceptance bar meaningful.
    ksa::Run original;
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 32 && !found; ++seed) {
        original = planted_violation(seed);
        found = original.num_fault_events() >= 8 &&
                !core::check_kset_agreement(original, 1).k_agreement;
    }
    ASSERT_TRUE(found) << "no messy planted violation in 32 seeds";

    const auto algorithm = algo::make_flp_kset(4, 2);
    const chaos::ChaosTrace trace = chaos::extract_chaos_trace(original);
    const chaos::ShrinkResult shrunk = chaos::shrink_chaos_trace(
        *algorithm, trace, chaos::violates_k_agreement(1));

    EXPECT_EQ(shrunk.original_faults, original.num_fault_events());
    EXPECT_LE(shrunk.shrunk_faults * 4, shrunk.original_faults)
        << shrunk.to_string();
    EXPECT_LE(shrunk.shrunk_steps, shrunk.original_steps);
    EXPECT_GT(shrunk.candidates_tried, 0);

    // The shrunk run still violates...
    EXPECT_TRUE(chaos::violates_k_agreement(1)(shrunk.run))
        << run_summary(shrunk.run);
    // ...and both ends of the shrink replay bit-identically.
    check::DeterminismAuditor auditor(*algorithm, {});
    EXPECT_TRUE(auditor.audit_replay(original).deterministic);
    EXPECT_TRUE(auditor.audit_replay(shrunk.run).deterministic)
        << auditor.audit_replay(shrunk.run).divergence;

    // Round trip through the trace layer is exact.
    const ksa::Run replayed = chaos::replay_chaos_trace(*algorithm, shrunk.trace);
    EXPECT_EQ(run_summary(replayed), run_summary(shrunk.run));
}

TEST(Shrink, RefusesNonViolatingRun) {
    const auto algorithm = algo::make_flp_kset(4, 1);
    FailurePlan plan;
    plan.set_initially_dead(4);
    RoundRobinScheduler rr;
    const ksa::Run clean = execute_run(*algorithm, 4, distinct_inputs(4), plan,
                                  rr);
    EXPECT_THROW(chaos::shrink_chaos_trace(*algorithm,
                                           chaos::extract_chaos_trace(clean),
                                           chaos::violates_k_agreement(1)),
                 UsageError);
}

TEST(Shrink, ValidityPredicateMatchesSpec) {
    const auto algorithm = algo::make_flp_kset(4, 1);
    FailurePlan plan;
    plan.set_initially_dead(1);
    RoundRobinScheduler rr;
    const ksa::Run run = execute_run(*algorithm, 4, distinct_inputs(4), plan, rr);
    EXPECT_FALSE(chaos::violates_validity()(run));
    EXPECT_FALSE(chaos::violates_k_agreement(1)(run));
}

}  // namespace
}  // namespace ksa
