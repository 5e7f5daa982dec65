// Tests for the Byzantine fault-injection subsystem: the seeded payload
// mutator, the kCorruptMessage / kEquivocate fault actions and their
// injected-id spaces, the FailurePlan Byzantine bookkeeping, KSARUN-1
// serialization, replay byte-identity across every base scheduler,
// Byzantine-aware classification and admissibility, shrinker support
// for forged deliveries, and the Bouzid-Imbs-Raynal boundary sweep with
// its graceful-degradation (inconclusive + retry) machinery.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "algo/initial_clique.hpp"
#include "chaos/chaos_trace.hpp"
#include "chaos/fault_injector.hpp"
#include "chaos/profile.hpp"
#include "chaos/resilience.hpp"
#include "chaos/shrink.hpp"
#include "check/determinism.hpp"
#include "core/bounds.hpp"
#include "sim/admissibility.hpp"
#include "sim/byzantine.hpp"
#include "sim/message.hpp"
#include "sim/schedulers.hpp"
#include "sim/serialize.hpp"
#include "sim/system.hpp"

namespace ksa {
namespace {

// ------------------------------------------------------ the id spaces

TEST(ByzantineIds, SpacesAreDisjointAndInvertible) {
    const MessageId src = 12345;
    const MessageId corrupt = corrupted_message_id(src);
    EXPECT_TRUE(is_injected_message_id(corrupt));
    EXPECT_TRUE(is_corruption_id(corrupt));
    EXPECT_FALSE(is_equivocation_id(corrupt));
    EXPECT_EQ(corrupt - kCorruptionIdBase, src);

    const MessageId equiv = equivocated_message_id(src, 3);
    EXPECT_TRUE(is_injected_message_id(equiv));
    EXPECT_TRUE(is_equivocation_id(equiv));
    EXPECT_FALSE(is_corruption_id(equiv));
    EXPECT_EQ((equiv - kEquivocationIdBase) / kEquivocationFanout, src);
    EXPECT_EQ((equiv - kEquivocationIdBase) % kEquivocationFanout,
              MessageId{3});

    // Duplicate-clone ids stay below the corruption base.
    const MessageId clone = kInjectedMessageIdBase + src * 16 + 1;
    EXPECT_TRUE(is_injected_message_id(clone));
    EXPECT_FALSE(is_corruption_id(clone));
    EXPECT_FALSE(is_equivocation_id(clone));
}

// ------------------------------------------------------- the mutator

Payload sample_payload() {
    Payload p;
    p.tag = "S2";
    p.ints = {2, 4};
    p.lists = {{1, 3}};
    return p;
}

TEST(ByzantineMutator, CorruptIsDeterministicAndPlausible) {
    const Payload original = sample_payload();
    const Payload a = corrupt_payload(original, 99, 4);
    const Payload b = corrupt_payload(original, 99, 4);
    EXPECT_TRUE(a == b) << "same seed must mutate identically";

    // Structure is preserved; only values change, and they stay in the
    // plausible id/proposal range [1, n].
    EXPECT_EQ(a.tag, original.tag);
    ASSERT_EQ(a.ints.size(), original.ints.size());
    ASSERT_EQ(a.lists.size(), original.lists.size());
    ASSERT_EQ(a.lists[0].size(), original.lists[0].size());
    for (Value v : a.ints) {
        EXPECT_GE(v, 1);
        EXPECT_LE(v, 4);
    }
    for (int v : a.lists[0]) {
        EXPECT_GE(v, 1);
        EXPECT_LE(v, 4);
    }
}

TEST(ByzantineMutator, CorruptAlwaysChangesSomething) {
    // The dice-selected pivot scalar is always rewritten to a different
    // value (n >= 2 guarantees an alternative), so a corruption fault is
    // never a silent no-op.
    const Payload original = sample_payload();
    for (std::uint64_t seed = 1; seed <= 50; ++seed)
        EXPECT_FALSE(corrupt_payload(original, seed, 4) == original)
            << "seed=" << seed;
}

TEST(ByzantineMutator, EquivocateDivergesAcrossReceivers) {
    const Payload original = sample_payload();
    // Same seed, different receivers: the variants must not all agree,
    // otherwise "equivocation" collapses into plain corruption.
    bool diverged = false;
    for (std::uint64_t seed = 1; seed <= 10 && !diverged; ++seed) {
        const Payload to1 = equivocate_payload(original, seed, 1, 4);
        const Payload to2 = equivocate_payload(original, seed, 2, 4);
        diverged = !(to1 == to2);
    }
    EXPECT_TRUE(diverged);
    // And per receiver it is deterministic.
    EXPECT_TRUE(equivocate_payload(original, 7, 2, 4) ==
                equivocate_payload(original, 7, 2, 4));
}

// ------------------------------------------- FailurePlan bookkeeping

TEST(FailurePlanByzantine, NoteAccumulatesAndRenders) {
    FailurePlan plan;
    EXPECT_FALSE(plan.is_byzantine(2));
    EXPECT_EQ(plan.num_byzantine(), 0);

    plan.note_byzantine(2, 1, 0);
    plan.note_byzantine(2, 0, 2);
    plan.note_byzantine(5, 1, 1);
    EXPECT_TRUE(plan.is_byzantine(2));
    EXPECT_TRUE(plan.is_byzantine(5));
    EXPECT_FALSE(plan.is_byzantine(1));
    EXPECT_EQ(plan.num_byzantine(), 2);
    EXPECT_EQ(plan.byzantine_spec(2).corruptions, 1);
    EXPECT_EQ(plan.byzantine_spec(2).equivocations, 2);
    EXPECT_EQ(plan.byzantine(), (std::set<ProcessId>{2, 5}));
    EXPECT_NE(plan.to_string().find("byzantine(corrupt=1,equiv=2)"),
              std::string::npos);
}

// --------------------------------------------------- the BIR boundary

TEST(ByzantineBounds, NecessaryConditionMatchesFormula) {
    for (int n = 1; n <= 10; ++n)
        for (int k = 1; k <= n; ++k)
            for (int f = 0; f <= n - 1; ++f)
                EXPECT_EQ(core::byzantine_kset_necessary(n, f, k),
                          static_cast<long long>(k) * n >
                              static_cast<long long>(2 * k + 1) * f)
                    << "n=" << n << " k=" << k << " f=" << f;
}

TEST(ByzantineBounds, ConsensusNeedsNGreaterThan3F) {
    // k = 1 specializes to the classical n > 3f.
    EXPECT_TRUE(core::byzantine_kset_necessary(4, 1, 1));
    EXPECT_FALSE(core::byzantine_kset_necessary(3, 1, 1));
    EXPECT_FALSE(core::byzantine_kset_necessary(6, 2, 1));
    EXPECT_TRUE(core::byzantine_kset_necessary(7, 2, 1));
    EXPECT_EQ(core::byzantine_max_f(7, 1), 2);
    EXPECT_EQ(core::byzantine_max_f(4, 1), 1);
    // f = 0 is always fine, and max_f grows with k.
    for (int n = 2; n <= 8; ++n) {
        EXPECT_TRUE(core::byzantine_kset_necessary(n, 0, 1));
        EXPECT_LE(core::byzantine_max_f(n, 1), core::byzantine_max_f(n, 2));
    }
}

// -------------------------------------- injection end to end + replay

/// One Byzantine-profile chaos run of the Theorem 8 algorithm over the
/// given base scheduler, bounded so equivocation-induced stalls cannot
/// make the test slow.
ksa::Run byzantine_run(Scheduler& base, std::uint64_t seed) {
    const int n = 4, f = 1;
    const auto algorithm = algo::make_flp_kset(n, f);  // L = 3
    chaos::FaultInjector injector(base, chaos::byzantine_profile(seed, -1));
    return execute_run(*algorithm, n, distinct_inputs(n), FailurePlan{},
                       injector, /*oracle=*/nullptr, {.max_steps = 4000});
}

/// The run must be audited against the SAME algorithm instance family
/// that produced it (L differs across f), so the caller passes it in.
void expect_replay_byte_identical(const Algorithm& algorithm,
                                  const ksa::Run& run,
                                  const std::string& what) {
    check::DeterminismAuditor auditor(algorithm, {}, {.max_steps = 4000});
    const check::ReplayReport replay = auditor.audit_replay(run);
    EXPECT_TRUE(replay.deterministic) << what << ": " << replay.divergence;
}

TEST(ByzantineReplay, ByteIdenticalOverRoundRobin) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        RoundRobinScheduler base;
        expect_replay_byte_identical(*algo::make_flp_kset(4, 1),
                                     byzantine_run(base, seed),
                                     "round-robin seed=" +
                                         std::to_string(seed));
    }
}

TEST(ByzantineReplay, ByteIdenticalOverRandom) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        RandomScheduler base(seed);
        expect_replay_byte_identical(*algo::make_flp_kset(4, 1),
                                     byzantine_run(base, seed * 31 + 1),
                                     "random seed=" + std::to_string(seed));
    }
}

TEST(ByzantineReplay, ByteIdenticalOverPartition) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        PartitionScheduler base({{1, 2}, {3, 4}}, /*block_budget=*/200);
        expect_replay_byte_identical(*algo::make_flp_kset(4, 1),
                                     byzantine_run(base, seed),
                                     "partition seed=" +
                                         std::to_string(seed));
    }
}

TEST(ByzantineReplay, ByteIdenticalOverLockstep) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        LockstepScheduler base;
        expect_replay_byte_identical(*algo::make_flp_kset(4, 1),
                                     byzantine_run(base, seed),
                                     "lockstep seed=" + std::to_string(seed));
    }
}

TEST(ByzantineInjection, DiceAreLiveAndFullyRecorded) {
    int corruptions = 0, equivocations = 0;
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        RandomScheduler base(seed);
        const ksa::Run run = byzantine_run(base, seed);
        // Every Byzantine fault event is visible in the run: tampered
        // originals, forged replacements, and the plan's victim set.
        std::set<ProcessId> victims;
        int tampered = 0, forged = 0;
        for (const StepRecord& step : run.steps) {
            tampered += static_cast<int>(step.tampered.size());
            forged += static_cast<int>(step.forged.size());
            for (const Message& m : step.tampered) victims.insert(m.from);
            for (const Message& m : step.forged)
                EXPECT_TRUE(is_corruption_id(m.id) ||
                            is_equivocation_id(m.id));
        }
        EXPECT_EQ(tampered, forged) << "seed=" << seed;
        EXPECT_EQ(victims, run.plan.byzantine()) << "seed=" << seed;
        EXPECT_EQ(victims, run.byzantine_senders()) << "seed=" << seed;
        for (ProcessId p : victims) {
            const ByzantineSpec spec = run.plan.byzantine_spec(p);
            corruptions += spec.corruptions;
            equivocations += spec.equivocations;
        }
    }
    EXPECT_GT(corruptions, 0) << "corruption dice dead across 25 seeds";
    EXPECT_GT(equivocations, 0) << "equivocation dice dead across 25 seeds";
}

TEST(ByzantineInjection, VictimCapBoundsDistinctSenders) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        RandomScheduler base(seed);
        const int n = 4;
        const auto algorithm = algo::make_flp_kset(n, 1);
        chaos::ChaosProfile profile = chaos::byzantine_profile(seed, 1);
        chaos::FaultInjector injector(base, profile);
        const ksa::Run run =
            execute_run(*algorithm, n, distinct_inputs(n), FailurePlan{},
                        injector, nullptr, {.max_steps = 4000});
        EXPECT_LE(run.plan.num_byzantine(), 1) << "seed=" << seed;
        // Per-victim event budget holds too.
        for (ProcessId p : run.plan.byzantine()) {
            const ByzantineSpec spec = run.plan.byzantine_spec(p);
            EXPECT_LE(spec.corruptions + spec.equivocations,
                      profile.max_faults_per_victim)
                << "seed=" << seed;
        }
    }
}

TEST(ByzantineSerialization, RoundTripIsExact) {
    bool exercised = false;
    for (std::uint64_t seed = 1; seed <= 25 && !exercised; ++seed) {
        RandomScheduler base(seed);
        const ksa::Run run = byzantine_run(base, seed);
        if (run.plan.num_byzantine() == 0) continue;
        exercised = true;
        const std::string text = run_to_string(run);
        // The KSARUN-1 extensions are present...
        EXPECT_NE(text.find("byz "), std::string::npos);
        // ...and the round-trip is byte-exact.
        std::istringstream in(text);
        const ksa::Run back = read_run(in);
        EXPECT_EQ(run_to_string(back), text) << "seed=" << seed;
        EXPECT_EQ(back.plan.byzantine(), run.plan.byzantine());
    }
    EXPECT_TRUE(exercised) << "no Byzantine run in 25 seeds";
}

// ----------------------------------------- shared payload bodies

/// A fault event on buffered message `target`.
FaultAction fault_on(FaultAction::Kind kind, MessageId target,
                     std::uint64_t seed = 0) {
    FaultAction action;
    action.kind = kind;
    action.message = target;
    action.corrupt_seed = seed;
    return action;
}

/// The KSARUN-1 rendering of `run` survives a read back byte for byte.
void expect_round_trip(const ksa::Run& run) {
    const std::string text = run_to_string(run);
    std::istringstream in(text);
    EXPECT_EQ(run_to_string(read_run(in)), text);
}

TEST(ByzantineSharedBodies, CorruptionRewritesOnlyItsOwnCopy) {
    // Process 1's stage-1 broadcast sits in buffers 2, 3 and 4 as three
    // handles to one payload body.  Duplicating the copy bound for 3
    // and then corrupting that copy must give the corrupted message a
    // fresh body and leave the clone, the other destinations' copies
    // and the recorded sends reading the original payload.
    const int n = 4;
    const auto algorithm = algo::make_flp_kset(n, 1);
    System sys(*algorithm, n, distinct_inputs(n), FailurePlan{});
    sys.apply_choice(sys.prefix_choice(1, 0));
    const Message target = sys.buffer(3).front();
    const Payload original = *target.payload;

    StepChoice choice = sys.prefix_choice(2, 0);
    choice.faults = {
            fault_on(FaultAction::Kind::kDuplicateMessage, target.id),
            fault_on(FaultAction::Kind::kCorruptMessage, target.id, 5)};
    sys.apply_choice(choice);

    // Buffer 3: the forgery in the original's slot, then the clone, then
    // process 2's stage-1 message.
    ASSERT_EQ(sys.buffer(3).size(), 3u);
    const Message& forged = sys.buffer(3)[0];
    const Message& clone = sys.buffer(3)[1];
    EXPECT_EQ(forged.id, corrupted_message_id(target.id));
    EXPECT_EQ(*forged.payload, corrupt_payload(original, 5, n));
    EXPECT_FALSE(forged.payload.same_body(target.payload));
    EXPECT_TRUE(is_injected_message_id(clone.id));
    EXPECT_FALSE(is_corruption_id(clone.id));
    EXPECT_EQ(*clone.payload, original);
    EXPECT_TRUE(clone.payload.same_body(target.payload));
    for (const ProcessId q : {2, 4}) {
        EXPECT_EQ(*sys.buffer(q).front().payload, original) << "buffer " << q;
        EXPECT_TRUE(sys.buffer(q).front().payload.same_body(target.payload));
    }

    const ksa::Run run = sys.finish(StopReason::kSchedulerEnded);
    ASSERT_EQ(run.steps.size(), 2u);
    for (const Message& m : run.steps[0].sent) EXPECT_EQ(*m.payload, original);
    ASSERT_EQ(run.steps[1].tampered.size(), 1u);
    EXPECT_EQ(*run.steps[1].tampered[0].payload, original);
    expect_round_trip(run);
}

TEST(ByzantineSharedBodies, EquivocationGivesEachSiblingItsOwnBody) {
    const int n = 4;
    const auto algorithm = algo::make_flp_kset(n, 1);
    System sys(*algorithm, n, distinct_inputs(n), FailurePlan{});
    sys.apply_choice(sys.prefix_choice(1, 0));
    const Message anchor = sys.buffer(2).front();
    const Payload original = *anchor.payload;

    StepChoice choice = sys.prefix_choice(4, 0);
    choice.faults = {fault_on(FaultAction::Kind::kEquivocate, anchor.id, 9)};
    sys.apply_choice(choice);

    std::vector<SharedPayload> bodies;
    for (ProcessId q = 2; q <= n; ++q) {
        const Message& m = sys.buffer(q).front();
        EXPECT_EQ(m.id, equivocated_message_id(anchor.id, q));
        EXPECT_EQ(*m.payload, equivocate_payload(original, 9, q, n));
        EXPECT_FALSE(m.payload.same_body(anchor.payload)) << "buffer " << q;
        for (const SharedPayload& other : bodies)
            EXPECT_FALSE(m.payload.same_body(other)) << "buffer " << q;
        bodies.push_back(m.payload);
    }

    const ksa::Run run = sys.finish(StopReason::kSchedulerEnded);
    for (const Message& m : run.steps[0].sent) EXPECT_EQ(*m.payload, original);
    expect_round_trip(run);
}

// ------------------------------- classification under Byzantine plans

/// A handcrafted decisive run: every process decides the given value (or
/// does not decide, when the value is 0).
ksa::Run handcrafted_run(const std::vector<Value>& decisions) {
    ksa::Run run;
    run.n = static_cast<int>(decisions.size());
    run.algorithm = "handcrafted";
    for (int p = 1; p <= run.n; ++p) run.inputs.push_back(p);
    Time t = 0;
    for (int p = 1; p <= run.n; ++p) {
        StepRecord step;
        step.time = ++t;
        step.process = p;
        if (decisions[static_cast<std::size_t>(p) - 1] != 0)
            step.decision = decisions[static_cast<std::size_t>(p) - 1];
        run.steps.push_back(step);
    }
    run.stop = StopReason::kQuiescent;
    return run;
}

TEST(ByzantineClassification, ByzantineDecisionsAreExcluded) {
    // Three processes decide {1, 2, 1}: k = 1 agreement is violated...
    ksa::Run run = handcrafted_run({1, 2, 1});
    EXPECT_EQ(chaos::classify_run(run, 1),
              chaos::Outcome::kAgreementViolated);
    // ...unless the dissenting process is Byzantine, in which case only
    // the honest majority is held to the spec.
    run.plan.note_byzantine(2, 1, 0);
    EXPECT_EQ(chaos::classify_run(run, 1),
              chaos::Outcome::kDecidedCorrectly);
}

TEST(ByzantineClassification, HonestViolationsStillCount) {
    // The Byzantine process cannot launder a violation between honest
    // processes: {1, 2, 3} with only p2 Byzantine still leaves {1, 3}
    // as two distinct honest decisions.
    ksa::Run run = handcrafted_run({1, 2, 3});
    run.plan.note_byzantine(2, 0, 1);
    EXPECT_EQ(chaos::classify_run(run, 1),
              chaos::Outcome::kAgreementViolated);
    EXPECT_EQ(chaos::classify_run(run, 2),
              chaos::Outcome::kDecidedCorrectly);
}

TEST(ByzantineClassification, UndecidedByzantineIsNotATimeout) {
    // An undecided honest process trips admissibility (checked before
    // the termination test, so the outcome is kInadmissible, not
    // kTimedOut); marking it Byzantine exempts it from both.
    ksa::Run run = handcrafted_run({1, 0, 1});
    EXPECT_EQ(chaos::classify_run(run, 1), chaos::Outcome::kInadmissible);
    run.plan.note_byzantine(2, 1, 0);
    EXPECT_EQ(chaos::classify_run(run, 1),
              chaos::Outcome::kDecidedCorrectly);
}

TEST(ByzantineAdmissibility, ByzantineProcessesAreExempt) {
    ksa::Run run = handcrafted_run({1, 0, 1});
    const AdmissibilityReport before = check_admissibility(run);
    EXPECT_FALSE(before.admissible) << "undecided correct p2 must be flagged";
    run.plan.note_byzantine(2, 1, 0);
    const AdmissibilityReport after = check_admissibility(run);
    EXPECT_TRUE(after.admissible)
        << (after.violations.empty() ? "" : after.violations.front());
}

// ----------------------------------------------------- the shrinker

TEST(ByzantineShrink, EquivocationTracesShrinkBelowQuarter) {
    // Mirror of the bench's Byzantine shrink row: a partition-forced
    // agreement violation with equivocation faults on top must shrink
    // to at most 25% of its original fault events, and the shrunk run
    // must still replay byte-identically.
    const auto algorithm = algo::make_flp_kset(4, 2);
    const chaos::RunPredicate violates = chaos::violates_k_agreement(1);
    bool exercised = false;
    for (std::uint64_t seed = 11; seed <= 60 && !exercised; ++seed) {
        PartitionScheduler partition({{1, 2}, {3, 4}});
        chaos::ChaosProfile profile = chaos::guarded_profile(seed);
        profile.duplicate_per_mille = 400;
        profile.max_duplicates = 32;
        profile.equivocate_per_mille = 80;
        profile.max_equivocations = 3;
        profile.max_byzantine = 2;
        chaos::FaultInjector injector(partition, profile);
        const ksa::Run run =
            execute_run(*algorithm, 4, distinct_inputs(4), FailurePlan{},
                        injector, nullptr, {.max_steps = 3000});
        if (run.stop == StopReason::kStepLimit || !violates(run)) continue;
        if (injector.stats().equivocations == 0) continue;
        exercised = true;

        const chaos::ShrinkResult shrunk = chaos::shrink_chaos_trace(
            *algorithm, chaos::extract_chaos_trace(run), violates);
        EXPECT_LE(shrunk.shrunk_faults * 4, shrunk.original_faults)
            << "seed=" << seed;
        EXPECT_TRUE(violates(shrunk.run)) << "seed=" << seed;
        expect_replay_byte_identical(*algorithm, shrunk.run,
                                     "shrunk seed=" + std::to_string(seed));
    }
    EXPECT_TRUE(exercised)
        << "no equivocation-seasoned violation found in the seed range";
}

// --------------------------------------- trials, budgets and the sweep

TEST(ByzantineTrial, TinyStepBudgetIsInconclusiveNotTimedOut) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const chaos::TrialResult trial = chaos::byzantine_trial(
            5, 1, 1, chaos::byzantine_profile(seed, -1), seed,
            {.max_steps = 20});
        EXPECT_EQ(trial.outcome, chaos::Outcome::kInconclusive)
            << "seed=" << seed;
        // The crash-model trial keeps its historical kTimedOut label.
        const chaos::TrialResult crash = chaos::chaos_trial(
            5, 1, 1, chaos::guarded_profile(seed), seed, {.max_steps = 20});
        EXPECT_EQ(crash.outcome, chaos::Outcome::kTimedOut)
            << "seed=" << seed;
    }
}

TEST(ByzantineSweep, SmallGridIsCompleteAndLabeledByBIR) {
    chaos::SweepConfig config;
    config.model = chaos::SweepConfig::FaultModel::kByzantine;
    config.min_n = 2;
    config.max_n = 4;
    config.seeds_per_cell = 4;
    config.profile = chaos::byzantine_profile(1, -1);
    config.limits.max_steps = 6000;
    const chaos::SweepReport report = chaos::resilience_sweep(config);

    EXPECT_TRUE(report.complete());
    for (const chaos::CellResult& cell : report.cells) {
        EXPECT_EQ(cell.solvable,
                  core::byzantine_kset_necessary(cell.n, cell.f, cell.k));
        EXPECT_EQ(cell.trials, config.seeds_per_cell);
        // f = 0 cells see no Byzantine faults and must decide cleanly.
        if (cell.f == 0) {
            EXPECT_EQ(cell.decided, cell.trials);
        }
    }

    const std::string json = report.to_json();
    EXPECT_NE(json.find("\"model\": \"byzantine\""), std::string::npos);
    EXPECT_NE(json.find("\"inconclusive\""), std::string::npos);
    EXPECT_NE(json.find("\"complete\""), std::string::npos);
    const std::string md = report.to_markdown();
    EXPECT_NE(md.find("Bouzid-Imbs-Raynal"), std::string::npos);
    EXPECT_NE(md.find("| n | k | f |"), std::string::npos);
}

TEST(ByzantineSweep, SweepIsDeterministicAcrossThreadCounts) {
    chaos::SweepConfig config;
    config.model = chaos::SweepConfig::FaultModel::kByzantine;
    config.max_n = 3;
    config.seeds_per_cell = 4;
    config.profile = chaos::byzantine_profile(3, -1);
    config.limits.max_steps = 6000;
    const std::string sequential = chaos::resilience_sweep(config).to_json();
    config.threads = 4;
    EXPECT_EQ(chaos::resilience_sweep(config).to_json(), sequential);
}

TEST(ByzantineSweep, RetryPassIsAccountedAndOptional) {
    // A starvation-level step budget forces inconclusive trials; the
    // retry pass must be visible in the counters and switch-offable.
    chaos::SweepConfig config;
    config.model = chaos::SweepConfig::FaultModel::kByzantine;
    config.min_n = 4;
    config.max_n = 4;
    config.seeds_per_cell = 4;
    config.profile = chaos::byzantine_profile(1, -1);
    config.limits.max_steps = 20;
    const chaos::SweepReport with_retry = chaos::resilience_sweep(config);
    EXPECT_TRUE(with_retry.complete());
    int retries = 0, inconclusive = 0;
    for (const chaos::CellResult& cell : with_retry.cells) {
        retries += cell.retries;
        inconclusive += cell.inconclusive;
    }
    EXPECT_GT(retries, 0);
    EXPECT_GT(inconclusive, 0) << "20 steps cannot finish any n=4 trial";

    config.retry_inconclusive = false;
    const chaos::SweepReport without = chaos::resilience_sweep(config);
    EXPECT_TRUE(without.complete());
    for (const chaos::CellResult& cell : without.cells)
        EXPECT_EQ(cell.retries, 0);
}

}  // namespace
}  // namespace ksa
