// Tests for the chaos layer's adversary itself: profiles, the
// FaultInjector decorator, its guard-mode admissibility promise across
// every base scheduler, havoc-mode detection, and the serialization of
// fault events.
//
// The central property (the reason the layer exists): in guard mode the
// injector may drop, duplicate, delay and burst all it wants -- the
// produced run must stay MASYNC-admissible, bit-identically replayable
// through the DeterminismAuditor, and the Theorem 8 algorithm must still
// satisfy k-set agreement on the solvable side.  In havoc mode the run
// is deliberately damaged, and the point is that the checkers *say so*.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "algo/initial_clique.hpp"
#include "algo/kset_paxos.hpp"
#include "chaos/chaos_trace.hpp"
#include "chaos/fault_injector.hpp"
#include "chaos/profile.hpp"
#include "chaos/resilience.hpp"
#include "check/determinism.hpp"
#include "core/kset_spec.hpp"
#include "fd/sources.hpp"
#include "fd/validators.hpp"
#include "sim/admissibility.hpp"
#include "sim/schedulers.hpp"
#include "sim/serialize.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

namespace ksa {
namespace {

// ---------------------------------------------------------------- profiles

TEST(ChaosProfile, FactoriesValidateAndDescribe) {
    const chaos::ChaosProfile guard = chaos::guarded_profile(7);
    EXPECT_NO_THROW(guard.validate());
    EXPECT_EQ(guard.mode, chaos::ChaosProfile::Mode::kAdmissible);
    EXPECT_NE(guard.describe().find("seed=7"), std::string::npos);
    EXPECT_NE(guard.describe().find("mode=guard"), std::string::npos);

    const chaos::ChaosProfile havoc = chaos::havoc_profile(7);
    EXPECT_NO_THROW(havoc.validate());
    EXPECT_EQ(havoc.mode, chaos::ChaosProfile::Mode::kHavoc);
    EXPECT_NE(havoc.describe().find("mode=havoc"), std::string::npos);
}

// Every chaos trial labels its run with these strings (System::execute
// records scheduler.name()), so KSARUN-1 files and sweep reports carry
// them byte for byte: the literals pin every branch of describe().
TEST(ChaosProfile, DescribeLiterals) {
    EXPECT_EQ(chaos::guarded_profile(7).describe(),
              "seed=7,mode=guard,drop=60,dup=60,delay=150,burst=15");
    EXPECT_EQ(chaos::havoc_profile(18446744073709551615ULL).describe(),
              "seed=18446744073709551615,mode=havoc,drop=250,dup=60,"
              "delay=100,burst=10");
    EXPECT_EQ(chaos::byzantine_profile(3, 2).describe(),
              "seed=3,mode=guard,drop=0,dup=40,delay=120,burst=10,"
              "corrupt=180,equiv=120,byz=2");
    EXPECT_EQ(chaos::byzantine_profile(3, 0).describe(),
              "seed=3,mode=guard,drop=0,dup=40,delay=120,burst=10");
    chaos::ChaosProfile crash = chaos::guarded_profile(5);
    crash.crash_per_mille = 25;
    crash.max_injected_crashes = 2;
    EXPECT_EQ(crash.describe(),
              "seed=5,mode=guard,drop=60,dup=60,delay=150,burst=15,"
              "crash=25x2");
}

TEST(ChaosProfile, ValidateRejectsBadKnobs) {
    chaos::ChaosProfile p = chaos::guarded_profile(1);
    p.drop_per_mille = -1;
    EXPECT_THROW(p.validate(), UsageError);

    p = chaos::guarded_profile(1);
    p.delay_per_mille = 1001;
    EXPECT_THROW(p.validate(), UsageError);

    // A positive crash rate without a crash budget is a configuration
    // error, not a silent no-op.
    p = chaos::guarded_profile(1);
    p.crash_per_mille = 100;
    p.max_injected_crashes = 0;
    EXPECT_THROW(p.validate(), UsageError);
}

// ------------------------------------------------- the guard-mode promise

/// One guard-mode chaos run of the Theorem 8 algorithm on the solvable
/// side (n=4, f=1, k=1: 1*4 > 2*1), over the given base scheduler.
Run guarded_run(Scheduler& base, std::uint64_t seed) {
    const int n = 4, f = 1;
    const auto algorithm = algo::make_flp_kset(n, f);  // L = 3
    FailurePlan plan;
    plan.set_initially_dead(2);
    chaos::FaultInjector injector(base, chaos::guarded_profile(seed));
    return execute_run(*algorithm, n, distinct_inputs(n), plan, injector);
}

void expect_admissible_correct_and_replayable(const Run& run,
                                              const std::string& what) {
    const AdmissibilityReport adm = check_admissibility(run);
    EXPECT_TRUE(adm.admissible && adm.conclusive)
        << what << ": " << (adm.violations.empty() ? "step limit"
                                                   : adm.violations.front());
    const auto check = core::check_kset_agreement(run, 1);
    EXPECT_TRUE(check.ok()) << what << ": " << run_summary(run);

    const auto algorithm = algo::make_flp_kset(run.n, 1);
    check::DeterminismAuditor auditor(*algorithm, {});
    const check::ReplayReport replay = auditor.audit_replay(run);
    EXPECT_TRUE(replay.deterministic) << what << ": " << replay.divergence;
}

TEST(FaultInjector, GuardModeAdmissibleOverRoundRobin) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        RoundRobinScheduler base;
        const ksa::Run run = guarded_run(base, seed);
        expect_admissible_correct_and_replayable(
            run, "round-robin seed=" + std::to_string(seed));
    }
}

TEST(FaultInjector, GuardModeAdmissibleOverRandom) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        RandomScheduler base(seed);
        const ksa::Run run = guarded_run(base, seed * 31 + 1);
        expect_admissible_correct_and_replayable(
            run, "random seed=" + std::to_string(seed));
    }
}

TEST(FaultInjector, GuardModeAdmissibleOverPartition) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        // Small per-block budget: the dead p2 stalls block {1,2}, and the
        // interesting phase is the release anyway.
        PartitionScheduler base({{1, 2}, {3, 4}}, /*block_budget=*/200);
        const ksa::Run run = guarded_run(base, seed);
        expect_admissible_correct_and_replayable(
            run, "partition seed=" + std::to_string(seed));
    }
}

TEST(FaultInjector, GuardModeAdmissibleOverLockstep) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        LockstepScheduler base;
        const ksa::Run run = guarded_run(base, seed);
        expect_admissible_correct_and_replayable(
            run, "lockstep seed=" + std::to_string(seed));
    }
}

TEST(FaultInjector, DiceAreLiveAndRecorded) {
    // Across the seed range the injector must actually have injected
    // something, and every injected fault must be visible in the Run.
    int total = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        RoundRobinScheduler base;
        chaos::FaultInjector injector(base, chaos::guarded_profile(seed));
        const auto algorithm = algo::make_flp_kset(4, 1);
        FailurePlan plan;
        plan.set_initially_dead(2);
        const ksa::Run run = execute_run(*algorithm, 4, distinct_inputs(4), plan,
                                    injector);
        EXPECT_EQ(static_cast<std::size_t>(
                      injector.stats().total_faults()),
                  run.num_fault_events())
            << "seed=" << seed;
        total += injector.stats().total_faults();
    }
    EXPECT_GT(total, 0) << "no fault events across 20 seeds: dice dead";
}

TEST(FaultInjector, NameEmbedsBaseAndProfile) {
    RoundRobinScheduler base;
    chaos::FaultInjector injector(base, chaos::guarded_profile(9));
    EXPECT_NE(injector.name().find("round-robin+chaos("), std::string::npos);
    EXPECT_NE(injector.name().find("seed=9"), std::string::npos);
}

TEST(FaultInjector, NameLiterals) {
    RandomScheduler random(1234567890123ULL, 5);
    EXPECT_EQ(random.name(), "random(seed=1234567890123,max_age=5)");
    chaos::FaultInjector byzantine(random, chaos::byzantine_profile(11, -1));
    EXPECT_EQ(byzantine.name(),
              "random(seed=1234567890123,max_age=5)+chaos(seed=11,mode=guard,"
              "drop=0,dup=40,delay=120,burst=10,corrupt=180,equiv=120,"
              "byz=-1)");
    RoundRobinScheduler base;
    chaos::FaultInjector havoc(base, chaos::havoc_profile(9));
    EXPECT_EQ(havoc.name(),
              "round-robin+chaos(seed=9,mode=havoc,drop=250,dup=60,"
              "delay=100,burst=10)");
}

// ------------------------------------------------------- havoc detection

TEST(FaultInjector, HavocModeIsFlaggedInadmissible) {
    // Havoc drops messages addressed to correct processes permanently;
    // the admissibility checker must flag the lost delivery, and the
    // resilience classifier must report kInadmissible -- on at least one
    // seed in a small range (drops are probabilistic).
    bool flagged = false;
    for (std::uint64_t seed = 1; seed <= 10 && !flagged; ++seed) {
        RoundRobinScheduler base;
        chaos::FaultInjector injector(base, chaos::havoc_profile(seed));
        const auto algorithm = algo::make_flp_kset(4, 0);  // L = 4
        const ksa::Run run = execute_run(*algorithm, 4, distinct_inputs(4),
                                    FailurePlan{}, injector,
                                    /*oracle=*/nullptr, {.max_steps = 4000});
        if (injector.stats().drops == 0) continue;
        const AdmissibilityReport adm = check_admissibility(run);
        if (adm.conclusive) {
            EXPECT_FALSE(adm.admissible) << run_summary(run);
            EXPECT_EQ(chaos::classify_run(run, 1),
                      chaos::Outcome::kInadmissible);
        } else {
            // Dropping everyone's messages can also starve termination:
            // the step limit is the other legitimate detection.
            EXPECT_EQ(run.stop, StopReason::kStepLimit);
        }
        flagged = true;
    }
    EXPECT_TRUE(flagged) << "havoc profile never dropped in 10 seeds";
}

// ------------------------------------------------------------ run tally

/// Run::undelivered_to's rule, spelled out per receiver with sets: ids
/// sent, injected or forged to p, minus those tampered on the way to p
/// or delivered at p.
std::vector<MessageId> undelivered_by_scan(const ksa::Run& run, ProcessId p) {
    std::set<MessageId> owed;
    for (const StepRecord& s : run.steps)
        for (const auto* msgs : {&s.sent, &s.injected, &s.forged})
            for (const Message& m : *msgs)
                if (m.to == p) owed.insert(m.id);
    for (const StepRecord& s : run.steps) {
        for (const Message& m : s.tampered)
            if (m.to == p) owed.erase(m.id);
        if (s.process == p)
            for (const Message& m : s.delivered) owed.erase(m.id);
    }
    return {owed.begin(), owed.end()};
}

// The one-walk tally the classifier reads must say what the
// per-process scans say, on runs that drop (havoc), duplicate (guard)
// and forge (Byzantine) messages.
TEST(RunTally, AgreesWithPerProcessScans) {
    std::vector<ksa::Run> runs;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        RoundRobinScheduler base;
        chaos::FaultInjector injector(base, chaos::havoc_profile(seed));
        const auto algorithm = algo::make_flp_kset(4, 0);
        runs.push_back(execute_run(*algorithm, 4, distinct_inputs(4),
                                   FailurePlan{}, injector, nullptr,
                                   {.max_steps = 4000}));
        runs.push_back(chaos::chaos_trial(5, 2, 2, chaos::guarded_profile(seed),
                                          seed)
                               .run);
        runs.push_back(chaos::byzantine_trial(
                               5, 1, 2, chaos::byzantine_profile(seed, -1),
                               seed, {.max_steps = 6000})
                               .run);
    }
    int pending = 0, forged = 0;
    for (const ksa::Run& run : runs) {
        const RunTally tally = run.tally();
        ASSERT_EQ(tally.steps.size(), static_cast<std::size_t>(run.n));
        EXPECT_EQ(tally.distinct, run.distinct_decisions());
        for (ProcessId p = 1; p <= run.n; ++p) {
            const std::size_t i = static_cast<std::size_t>(p) - 1;
            EXPECT_EQ(tally.steps[i], run.steps_of(p));
            EXPECT_EQ(tally.decision[i], run.decision_of(p));
            EXPECT_EQ(tally.pending[i], undelivered_by_scan(run, p));
            EXPECT_EQ(run.undelivered_to(p), tally.pending[i]);
            pending += tally.pending[i].empty() ? 0 : 1;
        }
        for (const StepRecord& s : run.steps)
            forged += static_cast<int>(s.forged.size());
    }
    EXPECT_GT(pending, 0) << "no run left a message undelivered";
    EXPECT_GT(forged, 0) << "no run forged a message";

    // A tally of a run of another size is refused, not read past its end.
    ASSERT_NE(runs[0].n, runs[1].n);
    EXPECT_THROW(check_admissibility(runs[0], runs[1].tally()), UsageError);
    EXPECT_THROW(core::check_kset_agreement(runs[0], 1, runs[1].tally()),
                 UsageError);
}

TEST(FaultInjector, InjectedCrashIsFlaggedByFdValidators) {
    // An FD-backed algorithm whose oracle answers from the *static* plan
    // while chaos crashes a process mid-run: the recorded Sigma history
    // keeps quoting the victim, so liveness fails against the realized
    // faulty set and the validator must say so.
    const int n = 4, k = 2;
    algo::KSetPaxos algorithm(k);
    fd::ComposedOracle oracle(
        std::make_unique<fd::CorrectSetQuorum>(n, FailurePlan{}),
        std::make_unique<fd::StableLeaders>(std::vector<ProcessId>{1, 3}, 0));

    chaos::ChaosProfile profile = chaos::guarded_profile(3);
    profile.drop_per_mille = 0;
    profile.duplicate_per_mille = 0;
    profile.delay_per_mille = 0;
    profile.burst_per_mille = 0;
    profile.crash_per_mille = 400;
    profile.max_injected_crashes = 1;

    RoundRobinScheduler base;
    chaos::FaultInjector injector(base, profile);
    const ksa::Run run = execute_run(algorithm, n, distinct_inputs(n),
                                FailurePlan{}, injector, &oracle,
                                {.max_steps = 4000});
    ASSERT_EQ(injector.stats().crashes, 1);
    ASSERT_EQ(run.injected_crash_victims().size(), 1u);

    const fd::FdValidation sigma = fd::validate_sigma_k(run, 1);
    EXPECT_FALSE(sigma.ok)
        << "static-plan oracle survived an injected crash";
}

// ------------------------------------------------- serialization of faults

TEST(ChaosSerialization, FaultEventsRoundTrip) {
    // Find a guard run with a mixed bag of fault events and check the
    // KSARUN-1 round trip preserves them exactly.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        RoundRobinScheduler base;
        const ksa::Run run = guarded_run(base, seed);
        if (run.num_fault_events() == 0) continue;

        const std::string text = run_to_string(run);
        std::istringstream in(text);
        const ksa::Run back = read_run(in);
        EXPECT_EQ(run_to_string(back), text) << "seed=" << seed;
        EXPECT_EQ(back.num_fault_events(), run.num_fault_events());
        EXPECT_EQ(back.scheduler, run.scheduler);

        // The extracted schedule carries the fault events too.
        const chaos::ChaosTrace trace = chaos::extract_chaos_trace(back);
        EXPECT_EQ(trace.num_faults(), run.num_fault_events());
        return;  // one faulted run suffices
    }
    FAIL() << "no guard run with fault events in 20 seeds";
}

// ------------------------------------- satellite: FailurePlan conveniences

TEST(FailurePlanOmitAll, BuildsFullOmissionSet) {
    const CrashSpec spec = CrashSpec::omitting_all(2, 4);
    EXPECT_EQ(spec.after_own_steps, 2);
    EXPECT_EQ(spec.omit_to, (std::set<ProcessId>{1, 2, 3, 4}));
    EXPECT_EQ(spec.to_string(), "after 2 steps omit{1,2,3,4}");

    FailurePlan plan;
    plan.set_crash_omit_all(3, 1, 4);
    EXPECT_TRUE(plan.is_faulty(3));
    EXPECT_EQ(plan.spec(3).omit_to.size(), 4u);
    EXPECT_EQ(plan.to_string(), "p3 after 1 step omit{1,2,3,4}");
}

TEST(FailurePlanOmitAll, RejectsInitiallyDead) {
    EXPECT_THROW(CrashSpec::omitting_all(0, 4), UsageError);
    FailurePlan plan;
    EXPECT_THROW(plan.set_crash(2, CrashSpec{0, {1}}), UsageError);
}

// ------------------------------- satellite: scheduler seed in run metadata

TEST(RandomSchedulerSeed, NameAndRunRecordTheSeed) {
    RandomScheduler sched(42);
    EXPECT_EQ(sched.seed(), 42u);
    EXPECT_EQ(sched.name(), "random(seed=42,max_age=64)");

    const auto algorithm = algo::make_flp_kset(3, 0);
    const ksa::Run run = execute_run(*algorithm, 3, distinct_inputs(3),
                                FailurePlan{}, sched);
    EXPECT_EQ(run.scheduler, "random(seed=42,max_age=64)");
    // ...and it survives serialization and shows in the trace header.
    const std::string text = run_to_string(run);
    EXPECT_NE(text.find("sched"), std::string::npos);
    std::istringstream in(text);
    EXPECT_EQ(read_run(in).scheduler, run.scheduler);
    EXPECT_NE(trace_string(run).find("scheduler: random(seed=42"),
              std::string::npos);
}

}  // namespace
}  // namespace ksa
