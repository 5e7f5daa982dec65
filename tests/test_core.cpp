// Unit tests for the core library: the k-set spec validators, border
// arithmetic, restriction (Definition 1), T-independence (Definition 6),
// run pasting (Lemmas 11/12), the Theorem 1 predicates and the bounded
// schedule explorer.

#include <gtest/gtest.h>

#include "algo/flooding.hpp"
#include "algo/initial_clique.hpp"
#include "algo/paxos_consensus.hpp"
#include "core/bounds.hpp"
#include "core/explorer.hpp"
#include "core/independence.hpp"
#include "core/kset_spec.hpp"
#include "core/pasting.hpp"
#include "core/restriction.hpp"
#include "core/theorem1.hpp"
#include "sim/schedulers.hpp"
#include "sim/system.hpp"

namespace ksa::core {
namespace {

// ----------------------------------------------------------------- spec

TEST(KSetSpec, AcceptsCorrectRun) {
    algo::FloodingKSet algorithm(3);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), {}, rr);
    KSetCheck check = check_kset_agreement(run, 1);
    EXPECT_TRUE(check.ok());
    EXPECT_NO_THROW(expect_kset_agreement(run, 1));
}

TEST(KSetSpec, DetectsKAgreementViolation) {
    algo::TrivialWaitFree algorithm;
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), {}, rr);
    KSetCheck check = check_kset_agreement(run, 2);
    EXPECT_FALSE(check.k_agreement);
    EXPECT_TRUE(check.validity);
    EXPECT_TRUE(check.termination);
    EXPECT_THROW(expect_kset_agreement(run, 2), UsageError);
    // 3-set agreement is satisfied.
    EXPECT_TRUE(check_kset_agreement(run, 3).ok());
}

TEST(KSetSpec, DetectsValidityViolation) {
    // Forge a run whose decision was never proposed.
    ksa::Run run;
    run.n = 1;
    run.inputs = {5};
    StepRecord s;
    s.time = 1;
    s.process = 1;
    s.decision = 42;
    run.steps.push_back(s);
    KSetCheck check = check_kset_agreement(run, 1);
    EXPECT_FALSE(check.validity);
}

TEST(KSetSpec, DetectsTerminationViolation) {
    algo::FloodingKSet algorithm(3);  // threshold 3, but one process dead
    FailurePlan plan;
    plan.set_initially_dead(3);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), plan, rr,
                               nullptr, {.max_steps = 200});
    KSetCheck check = check_kset_agreement(run, 1);
    EXPECT_FALSE(check.termination);
}

// ---------------------------------------------------------------- bounds

TEST(Bounds, Theorem2Arithmetic) {
    EXPECT_TRUE(theorem2_impossible(5, 3, 2));    // 2*2 <= 4
    EXPECT_FALSE(theorem2_impossible(5, 2, 2));   // 2*3 > 4
    EXPECT_TRUE(theorem2_impossible(4, 3, 3));    // 3*1 <= 3
    EXPECT_TRUE(theorem2_impossible(10, 9, 9));
    // k=1, f=1 is the FLP case: impossible for every n.
    EXPECT_TRUE(theorem2_impossible(10, 1, 1));
    // One crash does not prevent 2-set agreement, though.
    EXPECT_FALSE(theorem2_impossible(10, 1, 2));
    EXPECT_EQ(theorem2_block_size(10, 7), 3);
}

TEST(Bounds, Theorem8Arithmetic) {
    // The paper's border: solvable iff k*n > (k+1)*f.
    EXPECT_TRUE(theorem8_solvable(6, 2, 1));    // majority for consensus
    EXPECT_FALSE(theorem8_solvable(6, 3, 1));   // n = 2f is not enough
    EXPECT_TRUE(theorem8_solvable(6, 3, 2));
    EXPECT_FALSE(theorem8_solvable(6, 4, 2));   // 12 > 12 fails: border
    EXPECT_TRUE(theorem8_solvable(6, 4, 3));
    EXPECT_EQ(theorem8_min_k(6, 4), 3);
    EXPECT_EQ(theorem8_max_f(6, 2), 3);
    EXPECT_EQ(theorem8_max_f(9, 1), 4);  // consensus: majority correct
}

TEST(Bounds, MutualConsistency) {
    // Everywhere in range: initial-crash solvability implies the general
    // (Theorem 2) impossibility does NOT bite at the same (n, f, k) with
    // non-initial crashes... but the reverse inclusion must hold: if
    // even initial crashes make it unsolvable, Theorem 2's bound applies.
    for (int n = 2; n <= 12; ++n)
        for (int f = 1; f < n; ++f)
            for (int k = 1; k < n; ++k)
                if (!theorem8_solvable(n, f, k)) {
                    EXPECT_TRUE(theorem2_impossible(n, f, k))
                        << "n=" << n << " f=" << f << " k=" << k;
                }
}

TEST(Bounds, SourceComponentAndFloodingBounds) {
    EXPECT_EQ(source_component_bound(9, 3), 3);
    EXPECT_EQ(max_source_components(10, 4), 2);
    EXPECT_EQ(flooding_bound(3), 4);
}

TEST(Bounds, Corollary13Band) {
    EXPECT_TRUE(corollary13_solvable(6, 1));
    EXPECT_TRUE(corollary13_solvable(6, 5));
    for (int k = 2; k <= 4; ++k) {
        EXPECT_FALSE(corollary13_solvable(6, k));
        EXPECT_TRUE(theorem10_applies(6, k));
    }
    EXPECT_FALSE(theorem10_applies(6, 1));
    EXPECT_FALSE(theorem10_applies(6, 5));
}

// ------------------------------------------------------------ restriction

TEST(Restriction, DropsSendsOutsideDomain) {
    algo::FloodingKSet base(2);
    RestrictedAlgorithm restricted(base, {1, 2});
    RoundRobinScheduler rr;
    FailurePlan plan;
    plan.set_initially_dead(3);
    ksa::Run run = execute_run(restricted, 3, distinct_inputs(3), plan, rr);
    // Nothing was ever addressed to p3.
    for (const StepRecord& s : run.steps)
        for (const Message& m : s.sent) EXPECT_NE(m.to, 3);
    EXPECT_TRUE(run.all_correct_decided());
}

TEST(Restriction, RestrictedAndFullDeadRunsAreIndistinguishable) {
    // The condition (D) correspondence, checked directly.
    algo::FloodingKSet base(2);
    RoundRobinScheduler rr1, rr2;
    ksa::Run restricted = execute_restricted(base, 4, {1, 2}, distinct_inputs(4),
                                             {}, rr1);
    FailurePlan dead;
    dead.set_initially_dead({3, 4});
    ksa::Run full = execute_run(base, 4, distinct_inputs(4), dead, rr2);
    EXPECT_TRUE(indistinguishable_for_all(restricted, full, {1, 2}));
}

TEST(Restriction, KeepsBelievingInNProcesses) {
    // A|D still uses n for its thresholds: restricting flooding with
    // threshold 3 to a 2-process domain must stall (it waits for 3
    // proposals that can never arrive).
    algo::FloodingKSet base(3);
    RoundRobinScheduler rr;
    ksa::Run run = execute_restricted(base, 4, {1, 2}, distinct_inputs(4), {},
                                      rr, nullptr, {.max_steps = 200});
    EXPECT_EQ(run.stop, StopReason::kStepLimit);
    EXPECT_FALSE(run.decision_of(1).has_value());
}

TEST(Restriction, ValidatesDomain) {
    algo::TrivialWaitFree base;
    EXPECT_THROW(RestrictedAlgorithm(base, {}), UsageError);
}

// ----------------------------------------------------------- independence

TEST(Independence, FloodingIsFResilientIndependent) {
    // threshold n-f = 3 with n=4: every set of size >= 3 can decide alone.
    algo::FloodingKSet algorithm(3);
    auto family = f_resilient_family(4, 1);
    FamilyIndependence result =
        check_family_independence(algorithm, 4, distinct_inputs(4), {}, family);
    EXPECT_TRUE(result.holds_for_all);
    EXPECT_EQ(result.witnesses.size(), family.size());
}

TEST(Independence, FloodingIsNotWaitFreeIndependent) {
    algo::FloodingKSet algorithm(3);
    IndependenceWitness w = check_set_independence(
        algorithm, 4, distinct_inputs(4), {}, {2}, {}, 200);
    EXPECT_FALSE(w.holds);  // a singleton cannot gather 3 proposals
}

TEST(Independence, TrivialAlgorithmIsWaitFreeIndependent) {
    algo::TrivialWaitFree algorithm;
    FamilyIndependence result = check_family_independence(
        algorithm, 4, distinct_inputs(4), {}, wait_free_family(4));
    EXPECT_TRUE(result.holds_for_all);
}

TEST(Independence, FamilyGenerators) {
    EXPECT_EQ(wait_free_family(3).size(), 7u);
    EXPECT_EQ(obstruction_free_family(4).size(), 4u);
    EXPECT_EQ(f_resilient_family(4, 1).size(), 5u);  // C(4,3) + C(4,4)
    auto asym = asymmetric_family(3, 2);
    EXPECT_EQ(asym.size(), 4u);
    for (const auto& s : asym)
        EXPECT_NE(std::find(s.begin(), s.end(), 2), s.end());
}

TEST(Independence, ObservationOneMonotonicity) {
    // Observation 1.(b): independence for a family implies independence
    // for each of its subsets -- exercised by checking a sub-family.
    algo::FloodingKSet algorithm(2);  // n=4, threshold 2
    auto family = f_resilient_family(4, 2);
    FamilyIndependence full =
        check_family_independence(algorithm, 4, distinct_inputs(4), {}, family);
    EXPECT_TRUE(full.holds_for_all);
    std::vector<std::vector<ProcessId>> sub(family.begin(),
                                            family.begin() + 3);
    FamilyIndependence part =
        check_family_independence(algorithm, 4, distinct_inputs(4), {}, sub);
    EXPECT_TRUE(part.holds_for_all);
}

// ---------------------------------------------------------------- pasting

TEST(Pasting, BlocksDecideOwnValuesAndStayIndistinguishable) {
    algo::FloodingKSet algorithm(2);  // n=6, threshold 2
    PasteResult paste =
        paste_partition_runs(algorithm, 6, distinct_inputs(6),
                             {{1, 2}, {3, 4}, {5, 6}}, {});
    EXPECT_TRUE(paste.all_indistinguishable);
    EXPECT_TRUE(paste.stalled_blocks.empty());
    EXPECT_EQ(paste.pasted.distinct_decisions(), (std::set<Value>{1, 3, 5}));
    // Isolated runs decide only their own block's value.
    EXPECT_EQ(paste.isolated[1].distinct_decisions(), (std::set<Value>{3}));
}

TEST(Pasting, DetectsStalledBlocks) {
    algo::FloodingKSet algorithm(4);  // threshold 4: pairs stall alone
    PasteResult paste = paste_partition_runs(algorithm, 4, distinct_inputs(4),
                                             {{1, 2}, {3, 4}}, {}, {}, 100,
                                             2000);
    EXPECT_FALSE(paste.stalled_blocks.empty());
}

TEST(Pasting, RespectsCrashPlansInsideBlocks) {
    algo::FloodingKSet algorithm(2);  // n=6, threshold 2
    FailurePlan plan;
    plan.set_initially_dead(2);  // one crash inside block {1,2,3}
    PasteResult paste = paste_partition_runs(algorithm, 6, distinct_inputs(6),
                                             {{1, 2, 3}, {4, 5, 6}}, plan);
    EXPECT_TRUE(paste.all_indistinguishable);
    EXPECT_FALSE(paste.pasted.decision_of(2).has_value());
    EXPECT_TRUE(paste.pasted.all_correct_decided());
}

// ----------------------------------------------------- theorem 1 predicates

TEST(Theorem1Predicates, PartitionSpecValidation) {
    PartitionSpec spec = make_partition_spec(5, 2, {{1, 2}});
    EXPECT_EQ(spec.d, (std::vector<ProcessId>{3, 4, 5}));
    EXPECT_EQ(spec.dbar(), (std::vector<ProcessId>{1, 2}));
    EXPECT_THROW(make_partition_spec(5, 2, {{1, 1}}), UsageError);
    EXPECT_THROW(make_partition_spec(5, 3, {{1, 2}}), UsageError);
    EXPECT_THROW(make_partition_spec(2, 3, {{1}, {2}}), UsageError);
}

TEST(Theorem1Predicates, DecDbarNeedsDistinctEligibleValues) {
    algo::FloodingKSet algorithm(2);
    PartitionScheduler sched({{1, 2}, {3, 4}});
    ksa::Run run = execute_run(algorithm, 4, distinct_inputs(4), {}, sched);
    std::set<Value> values;
    EXPECT_TRUE(dec_dbar_holds(run, {{1, 2}, {3, 4}}, &values));
    EXPECT_EQ(values, (std::set<Value>{1, 3}));
    // Both blocks decided the same value? Then no distinct assignment.
    ksa::Run uniform = run;
    uniform.inputs = {7, 7, 7, 7};
    EXPECT_FALSE(dec_dbar_holds(uniform, {{1, 2}, {3, 4}}, nullptr));
}

TEST(Theorem1Predicates, DecDDetectsEarlyReception) {
    algo::FloodingKSet algorithm(2);
    PartitionSpec spec = make_partition_spec(4, 2, {{1, 2}});
    // Fair run: D = {3,4} hears from {1,2} before deciding.
    RoundRobinScheduler rr;
    ksa::Run fair = execute_run(algorithm, 4, distinct_inputs(4), {}, rr);
    EXPECT_FALSE(dec_d_holds(fair, spec));
    // Partitioned run: D is silent until decided.
    PartitionScheduler part({{3, 4}});
    ksa::Run silent = execute_run(algorithm, 4, distinct_inputs(4), {}, part);
    EXPECT_TRUE(dec_d_holds(silent, spec));
}

// --------------------------------------------------------------- explorer

TEST(Explorer, TrivialAlgorithmHasOneOutcome) {
    algo::TrivialWaitFree algorithm;
    ExploreConfig cfg;
    cfg.n = 2;
    cfg.inputs = {4, 9};
    cfg.k = 2;
    cfg.max_depth = 6;
    ExploreResult result = explore_schedules(algorithm, cfg);
    EXPECT_TRUE(result.exhaustive);
    EXPECT_FALSE(result.violation_found);
    EXPECT_EQ(result.quiescent_outcomes.size(), 1u);
    EXPECT_EQ(*result.quiescent_outcomes.begin(), (std::vector<Value>{4, 9}));
}

TEST(Explorer, FindsFloodingDisagreement) {
    // Flooding with threshold 2 among 3 processes: some schedule makes
    // two processes decide different minima -- the explorer finds it.
    algo::FloodingKSet algorithm(2);
    ExploreConfig cfg;
    cfg.n = 3;
    cfg.inputs = {1, 2, 3};
    cfg.k = 1;
    cfg.max_depth = 10;
    ExploreResult result = explore_schedules(algorithm, cfg);
    EXPECT_TRUE(result.violation_found) << result.summary();
    ASSERT_FALSE(result.witness.empty());
    // Replaying the witness reproduces the violation.
    ScriptedScheduler replay(result.witness);
    ksa::Run run = execute_run(algorithm, 3, cfg.inputs, {}, replay);
    EXPECT_GT(run.distinct_decisions().size(), 1u);
}

TEST(Explorer, VerifiesFlpConsensusOnInitialCrashPlans) {
    // Exhaustively: no schedule makes the L=2 protocol on n=3 with one
    // initially dead process decide two values -- a verified small-case
    // instance of Theorem 8's possibility side (k=1, f=1, n=3).
    auto algorithm = algo::make_flp_kset(3, 1);
    FailurePlan plan;
    plan.set_initially_dead(3);
    ExploreConfig cfg;
    cfg.n = 3;
    cfg.inputs = {1, 2, 3};
    cfg.plan = plan;
    cfg.k = 1;
    cfg.max_depth = 14;
    cfg.max_states = 500000;
    ExploreResult result = explore_schedules(*algorithm, cfg);
    EXPECT_FALSE(result.violation_found) << result.summary();
    EXPECT_TRUE(result.exhaustive) << result.summary();
}

TEST(Explorer, TwoRunsProduceIdenticalReports) {
    // Regression (ksa-verify): the explorer's visited set used to be an
    // unordered_set, making "which states fall inside max_states" depend
    // on hash iteration/seeding.  Two explorations of the same
    // configuration must agree on every observable field, including in
    // the truncated case.
    algo::FloodingKSet algorithm(2);
    ExploreConfig cfg;
    cfg.n = 3;
    cfg.inputs = {1, 2, 3};
    cfg.k = 1;
    cfg.max_depth = 8;
    cfg.max_states = 300;  // deliberately truncating
    const ExploreResult a = explore_schedules(algorithm, cfg);
    const ExploreResult b = explore_schedules(algorithm, cfg);

    EXPECT_TRUE(a.verdict() == b.verdict());
    EXPECT_EQ(a.summary(), b.summary());
}

/// The message of the UsageError `explore` throws ("" if it throws
/// none).
template <typename F>
std::string usage_error_of(F explore) {
    try {
        explore();
    } catch (const UsageError& e) {
        return e.what();
    }
    return "";
}

// Every mode refuses a detector-using algorithm and a crash plan that
// names a process outside 1..n (it would explore another instance).
TEST(Explorer, RejectsDetectorAlgorithms) {
    algo::FloodingKSet fine(1);
    algo::PaxosConsensus detector;
    ExploreConfig cfg;
    cfg.n = 1;
    cfg.inputs = {1};
    ExploreConfig dead = cfg;
    dead.plan.set_initially_dead(2);
    ExploreConfig omit = cfg;
    omit.plan.set_crash(1, CrashSpec{1, {2}});
    for (const ExploreMode mode : {ExploreMode::kReference,
                                   ExploreMode::kFast, ExploreMode::kReduced}) {
        cfg.mode = dead.mode = omit.mode = mode;
        const std::string label = to_string(mode);
        EXPECT_NO_THROW(explore_schedules(fine, cfg)) << label;
        EXPECT_NE(usage_error_of([&] { explore_schedules(detector, cfg); }),
                  "")
                << label;
        EXPECT_NE(usage_error_of([&] { explore_schedules(fine, dead); })
                          .find("p2"),
                  std::string::npos)
                << label;
        EXPECT_NE(usage_error_of([&] { explore_schedules(fine, omit); })
                          .find("p2"),
                  std::string::npos)
                << label;
    }
}

}  // namespace
}  // namespace ksa::core
