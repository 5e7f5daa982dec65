// Unit tests for the protocol implementations under benign and
// adversarial schedules.

#include <gtest/gtest.h>

#include "algo/flooding.hpp"
#include "algo/floodmin.hpp"
#include "algo/initial_clique.hpp"
#include "algo/kset_paxos.hpp"
#include "algo/one_third_rule.hpp"
#include "algo/paxos_consensus.hpp"
#include "algo/quorum_leader_kset.hpp"
#include "algo/ranked_set_agreement.hpp"
#include "core/kset_spec.hpp"
#include "fd/sources.hpp"
#include "sim/rounds.hpp"
#include "sim/schedulers.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

namespace ksa {
namespace {

// ------------------------------------------------------ FLP initial clique

TEST(InitialClique, ConsensusWithoutCrashes) {
    auto algorithm = algo::make_flp_consensus(5);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(*algorithm, 5, distinct_inputs(5), {}, rr);
    core::expect_kset_agreement(run, 1);
    EXPECT_EQ(run.distinct_decisions().size(), 1u);
}

TEST(InitialClique, ConsensusWithInitialCrashes) {
    // n=5: L = 3, tolerates f = 2 initial crashes.
    auto algorithm = algo::make_flp_consensus(5);
    FailurePlan plan;
    plan.set_initially_dead({2, 4});
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(*algorithm, 5, distinct_inputs(5), plan, rr);
    core::expect_kset_agreement(run, 1);
}

TEST(InitialClique, ConsensusUnderRandomSchedules) {
    auto algorithm = algo::make_flp_consensus(7);
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        FailurePlan plan;
        plan.set_initially_dead({static_cast<ProcessId>(1 + seed % 7)});
        RandomScheduler sched(seed);
        ksa::Run run = execute_run(*algorithm, 7, distinct_inputs(7), plan,
                                   sched);
        core::expect_kset_agreement(run, 1);
    }
}

TEST(InitialClique, KSetWithManyInitialCrashes) {
    // n=6, f=4: L=2, solvable for k with k*6 > (k+1)*4, i.e. k >= 3.
    auto algorithm = algo::make_flp_kset(6, 4);
    FailurePlan plan;
    plan.set_initially_dead({1, 3, 5, 6});
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(*algorithm, 6, distinct_inputs(6), plan, rr);
    core::expect_kset_agreement(run, 3);
}

TEST(InitialClique, DecisionCountBoundedBySourceComponents) {
    // n=9, L=3 => at most floor(9/3)=3 distinct decisions, whatever the
    // (crash-free) schedule does.
    algo::InitialCliqueKSet algorithm(3);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        RandomScheduler sched(seed);
        ksa::Run run = execute_run(algorithm, 9, distinct_inputs(9), {}, sched);
        EXPECT_TRUE(run.all_correct_decided());
        EXPECT_LE(run.distinct_decisions().size(), 3u) << run_summary(run);
    }
}

TEST(InitialClique, PartitionedRunRealizesTheBound) {
    // Three isolated triples, L=3: each triple forms its own source
    // component and decides its own minimum.
    algo::InitialCliqueKSet algorithm(3);
    PartitionScheduler sched({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
    ksa::Run run = execute_run(algorithm, 9, distinct_inputs(9), {}, sched);
    EXPECT_TRUE(sched.stalled_blocks().empty());
    EXPECT_EQ(run.distinct_decisions(), (std::set<Value>{1, 4, 7}));
}

TEST(InitialClique, ValidatesThresholdRange) {
    algo::InitialCliqueKSet algorithm(9);
    EXPECT_THROW(algorithm.make_behavior(1, 5, 1), UsageError);
    EXPECT_THROW(algo::make_flp_kset(5, 5), UsageError);
    // The state is a set of 64-bit masks: n = 64 is the largest system.
    EXPECT_NO_THROW(algorithm.make_behavior(1, 64, 1));
    EXPECT_THROW(algorithm.make_behavior(1, 65, 1), UsageError);
}

TEST(InitialClique, DiscardsMessagesNamingNoProcess) {
    // A forged stage-1 or stage-2 message naming id 0 or n+1 -- as the
    // claimed sender or inside a heard-list -- is dropped on delivery
    // like a self-claim: no throw, no state change, and the stage-1
    // quota is still free for real senders.
    const int n = 4;
    auto algorithm = algo::make_flp_kset(n, 1);  // L = 3
    auto behavior = algorithm->make_behavior(2, n, 20);
    auto deliver = [&](Payload payload) {
        StepInput in;
        in.delivered.push_back(Message{0, 1, 2, 0, std::move(payload)});
        return behavior->on_step(in);
    };
    ASSERT_EQ(behavior->on_step({}).sends.size(), 3u);  // stage-1 broadcast
    const std::string before = behavior->state_digest();
    for (int bad : {0, n + 1}) {
        for (const Payload& forged :
             {make_payload("S1", {bad}), make_payload("S2", {bad, 7}, {{1, 3}}),
              make_payload("S2", {1, 7}, {{3, bad}})}) {
            StepOutput out;
            EXPECT_NO_THROW(out = deliver(forged)) << forged.to_string();
            EXPECT_TRUE(out.sends.empty()) << forged.to_string();
            EXPECT_EQ(behavior->state_digest(), before) << forged.to_string();
        }
    }
    deliver(make_payload("S1", {1}));
    const StepOutput stage2 = deliver(make_payload("S1", {3}));
    ASSERT_EQ(stage2.sends.size(), 3u);
    EXPECT_EQ(stage2.sends[0].second, make_payload("S2", {2, 20}, {{1, 3}}));
}

TEST(InitialClique, BroadcastSendsShareOnePayloadBody) {
    // Both stages broadcast to the n-1 other processes; every send of
    // one broadcast holds a handle to the same payload body, and the
    // System buffers those handles without copying the body.
    for (const int n : {4, 5}) {
        auto algorithm = algo::make_flp_kset(n, 1);  // L = n - 1
        const auto expect_one_body = [n](const StepOutput& out,
                                          const std::string& tag) {
            ASSERT_EQ(out.sends.size(), static_cast<std::size_t>(n - 1))
                    << "n=" << n << " " << tag;
            for (std::size_t i = 0; i < out.sends.size(); ++i) {
                EXPECT_EQ(out.sends[i].first, static_cast<ProcessId>(i) + 2);
                EXPECT_TRUE(out.sends[i].second.same_body(out.sends[0].second))
                        << "n=" << n << " " << tag << " send " << i;
            }
            EXPECT_EQ(out.sends[0].second->tag, tag);
        };
        auto behavior = algorithm->make_behavior(1, n, 10);
        expect_one_body(behavior->on_step({}), "S1");
        StepInput in;
        for (ProcessId q = 2; q < n; ++q)  // the L - 1 stage-1 quota
            in.delivered.push_back(Message{0, q, 1, 0, make_payload("S1", {q})});
        expect_one_body(behavior->on_step(in), "S2");

        System sys(*algorithm, n, distinct_inputs(n), FailurePlan{});
        sys.apply_choice(sys.prefix_choice(1, 0));
        for (ProcessId q = 3; q <= n; ++q)
            EXPECT_TRUE(sys.buffer(q).front().payload.same_body(
                    sys.buffer(2).front().payload))
                    << "n=" << n << " buffer " << q;
    }
}

TEST(InitialClique, NotLiveUnderMidRunCrash) {
    // The protocol only tolerates *initial* crashes: a process crashing
    // after its stage-1 broadcast can leave others waiting forever for
    // its stage-2 message -- exactly the gap Theorem 2 proves essential.
    auto algorithm = algo::make_flp_consensus(5);  // L=3
    FailurePlan plan;
    plan.set_crash(1, CrashSpec{1, {}});  // dies after stage-1 broadcast
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(*algorithm, 5, distinct_inputs(5), plan, rr,
                               nullptr, {.max_steps = 2000});
    EXPECT_EQ(run.stop, StopReason::kStepLimit);
    EXPECT_FALSE(run.all_correct_decided());
}

// ---------------------------------------------------------------- flooding

TEST(Flooding, DecidesMinimumUnderFairSchedule) {
    algo::FloodingKSet algorithm(4);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 4, {7, 3, 9, 5}, {}, rr);
    for (ProcessId p = 1; p <= 4; ++p) EXPECT_EQ(*run.decision_of(p), 3);
}

TEST(Flooding, SolvesFPlus1SetAgreement) {
    // threshold n-f with f = 2: never more than f+1 = 3 distinct values.
    const int n = 6, f = 2;
    auto algorithm = algo::make_flooding(n, f);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        RandomScheduler sched(seed);
        ksa::Run run = execute_run(*algorithm, n, distinct_inputs(n), {}, sched);
        auto check = core::check_kset_agreement(run, f + 1);
        EXPECT_TRUE(check.ok()) << run_summary(run);
    }
}

TEST(Flooding, FPlus1IsTight) {
    // A staged schedule realizing exactly f+1 distinct decisions: member
    // p_i hears the window {p_i..p_{i+n-f-1}}.
    const int n = 4, f = 2;
    auto algorithm = algo::make_flooding(n, f);  // threshold 2
    StagedScheduler::Stage stage;
    stage.active = {1, 2, 3, 4};
    stage.filter = [](const Message& m, ProcessId dest) {
        return m.from == dest % 4 + 1;  // hear only your cyclic successor
    };
    StagedScheduler sched({stage});
    ksa::Run run = execute_run(*algorithm, n, distinct_inputs(n), {}, sched);
    // p1 sees {1,2}->1, p2 sees {2,3}->2, p3 sees {3,4}->3, p4 {4,1}->1.
    EXPECT_EQ(run.distinct_decisions(), (std::set<Value>{1, 2, 3}));
    EXPECT_EQ(run.distinct_decisions().size(),
              static_cast<std::size_t>(f + 1));
}

// ------------------------------------------------------------------- Paxos

std::unique_ptr<FdOracle> benign_oracle(int n, const FailurePlan& plan) {
    ProcessId leader = 0;
    for (ProcessId p = 1; p <= n && leader == 0; ++p)
        if (!plan.is_faulty(p)) leader = p;
    return fd::make_benign_sigma_omega(n, plan, {leader});
}

TEST(Paxos, ConsensusNoFailures) {
    algo::PaxosConsensus algorithm;
    FailurePlan plan;
    auto oracle = benign_oracle(4, plan);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 4, {9, 4, 6, 2}, plan, rr,
                               oracle.get());
    core::expect_kset_agreement(run, 1);
}

TEST(Paxos, ConsensusWithCrashes) {
    algo::PaxosConsensus algorithm;
    FailurePlan plan;
    plan.set_initially_dead(1);
    plan.set_crash(3, CrashSpec{2, {}});
    auto oracle = benign_oracle(5, plan);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        auto orc = benign_oracle(5, plan);
        RandomScheduler sched(seed);
        ksa::Run run = execute_run(algorithm, 5, distinct_inputs(5), plan,
                                   sched, orc.get());
        core::expect_kset_agreement(run, 1);
    }
}

TEST(Paxos, SafeUnderCompetingLeadersPreGst) {
    // Before stabilization every process believes itself the leader --
    // ballots arbitrate, so agreement still holds once LD stabilizes.
    algo::PaxosConsensus algorithm;
    FailurePlan plan;
    auto quorums = std::make_unique<fd::CorrectSetQuorum>(4, plan);
    auto leaders = std::make_unique<fd::StableLeaders>(
        std::vector<ProcessId>{2}, 30, [](const QueryContext& c) {
            return std::vector<ProcessId>{c.querier};
        });
    fd::ComposedOracle oracle(std::move(quorums), std::move(leaders));
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 4, distinct_inputs(4), plan, rr,
                               &oracle);
    core::expect_kset_agreement(run, 1);
}

// -------------------------------------------------------------- ranked set

TEST(RankedSet, AllCorrectFairSchedule) {
    algo::RankedSetAgreement algorithm;
    FailurePlan plan;
    auto oracle = std::make_unique<fd::ComposedOracle>(
        std::make_unique<fd::CorrectSetQuorum>(5, plan), nullptr);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 5, distinct_inputs(5), plan, rr,
                               oracle.get());
    core::expect_kset_agreement(run, 4);
}

TEST(RankedSet, SoleSurvivorDecidesViaLoneliness) {
    algo::RankedSetAgreement algorithm;
    FailurePlan plan;
    for (ProcessId p = 2; p <= 4; ++p) plan.set_initially_dead(p);
    auto oracle = std::make_unique<fd::ComposedOracle>(
        std::make_unique<fd::CorrectSetQuorum>(4, plan), nullptr);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 4, distinct_inputs(4), plan, rr,
                               oracle.get());
    EXPECT_EQ(run.decision_of(1), 1);
}

TEST(RankedSet, SmallestCorrectProcessDecidesViaRelay) {
    // p1 never hears a smaller id and is never lonely; it terminates by
    // copying a decision announcement.
    algo::RankedSetAgreement algorithm;
    FailurePlan plan;
    auto oracle = std::make_unique<fd::ComposedOracle>(
        std::make_unique<fd::CorrectSetQuorum>(3, plan), nullptr);
    RandomScheduler sched(99);
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), plan, sched,
                               oracle.get());
    EXPECT_TRUE(run.decision_of(1).has_value());
    core::expect_kset_agreement(run, 2);
}

// ----------------------------------------------------- quorum-leader k-set

TEST(QuorumLeader, BenignRunsStayWithinKValues) {
    // k=2 leaders, benign oracle: at most 2 distinct decisions.
    algo::QuorumLeaderKSet algorithm;
    FailurePlan plan;
    auto oracle = std::make_unique<fd::ComposedOracle>(
        std::make_unique<fd::CorrectSetQuorum>(5, plan),
        std::make_unique<fd::StableLeaders>(std::vector<ProcessId>{1, 4}, 0));
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 5, distinct_inputs(5), plan, rr,
                               oracle.get());
    auto check = core::check_kset_agreement(run, 2);
    EXPECT_TRUE(check.ok()) << run_summary(run);
}

TEST(QuorumLeader, TerminatesWhenSomeLeaderIsCorrect) {
    algo::QuorumLeaderKSet algorithm;
    FailurePlan plan;
    plan.set_initially_dead(1);  // a faulty leader...
    auto oracle = std::make_unique<fd::ComposedOracle>(
        std::make_unique<fd::CorrectSetQuorum>(5, plan),
        std::make_unique<fd::StableLeaders>(std::vector<ProcessId>{1, 3}, 0));
    RandomScheduler sched(5);
    ksa::Run run = execute_run(algorithm, 5, distinct_inputs(5), plan, sched,
                               oracle.get());
    EXPECT_TRUE(run.all_correct_decided());  // ...p3 carries the run
}

// ------------------------------------------- clone fidelity / fold_state
//
// The snapshot explorer rests on two per-behavior contracts:
//
//   * clone() reproduces the full local state (digest-identical, and
//     fold_state-identical, to the original);
//   * fold_state(h) distinguishes exactly what state_digest()
//     distinguishes -- equal digests must fold to equal hashes and
//     distinct digests to distinct hashes (a 128-bit collision would be
//     astronomically unlikely; an actual under-folding bug is not).
//
// These tests drive real executions and audit both contracts at every
// reached state, for every algorithm that overrides fold_state plus one
// that relies on the string-digest default.

Digest128 fold_hash(const Behavior& b) {
    StateHasher h;
    b.fold_state(h);
    return h.digest();
}

/// Returns how many processes decided by the end of the run.
int audit_clone_and_fold(const Algorithm& algorithm, int n, FailurePlan plan,
                         int rounds, FdOracle* oracle = nullptr) {
    System sys(algorithm, n, distinct_inputs(n), plan, oracle);
    sys.set_recording(false);
    std::map<std::string, Digest128> hash_of_digest;
    std::map<Digest128, std::string> digest_of_hash;

    auto audit = [&] {
        for (ProcessId p = 1; p <= n; ++p) {
            if (sys.crashed(p)) continue;
            const Behavior& live = sys.behavior_of(p);
            const std::string digest = live.state_digest();
            const Digest128 hash = fold_hash(live);

            // Clone fidelity: digest- and fold-identical to the original.
            const auto clone = sys.clone_behavior(p);
            EXPECT_EQ(clone->state_digest(), digest) << "p" << p;
            EXPECT_EQ(fold_hash(*clone), hash) << "p" << p;
            // The live accessor agrees with the behavior it exposes.
            EXPECT_EQ(sys.last_digest(p), digest) << "p" << p;

            // Partition agreement, both directions.
            const auto [it, fresh_digest] = hash_of_digest.emplace(digest, hash);
            if (!fresh_digest) {
                EXPECT_EQ(it->second, hash) << "digest re-folded differently: "
                                            << digest;
            }
            const auto [jt, fresh_hash] = digest_of_hash.emplace(hash, digest);
            if (!fresh_hash) {
                EXPECT_EQ(jt->second, digest)
                        << "fold collision: " << hash.to_string();
            }
        }
    };

    audit();
    for (int r = 0; r < rounds; ++r)
        for (ProcessId p = 1; p <= n; ++p) {
            if (sys.crashed(p)) continue;
            StepChoice choice;
            choice.process = p;
            choice.deliver_all = true;
            sys.apply_choice(choice);
            audit();
        }
    int decided = 0;
    for (ProcessId p = 1; p <= n; ++p) decided += sys.decision_of(p) ? 1 : 0;
    return decided;
}

TEST(CloneAndFold, Flooding) {
    algo::FloodingKSet algorithm(2);
    audit_clone_and_fold(algorithm, 3, {}, 4);
}

TEST(CloneAndFold, TrivialWaitFree) {
    algo::TrivialWaitFree algorithm;
    audit_clone_and_fold(algorithm, 3, {}, 2);
}

TEST(CloneAndFold, InitialCliqueWithInitialDeath) {
    auto algorithm = algo::make_flp_kset(4, 2);
    FailurePlan plan;
    plan.set_initially_dead({2});
    audit_clone_and_fold(*algorithm, 4, plan, 5);
}

TEST(CloneAndFold, InitialCliqueWithMidRunCrash) {
    auto algorithm = algo::make_flp_kset(3, 1);
    FailurePlan plan;
    plan.set_crash(1, CrashSpec{2, {}});  // dies on its second step
    audit_clone_and_fold(*algorithm, 3, plan, 5);
}

TEST(CloneAndFold, InitialCliqueAtSixtyFourProcesses) {
    // The widest system the mask state holds: process 64 is bit 63 of
    // every heard, required and known set that names it.  L = 3, so
    // every process decides within three rounds.
    algo::InitialCliqueKSet algorithm(3);
    EXPECT_EQ(audit_clone_and_fold(algorithm, 64, {}, 3), 64);
}

TEST(CloneAndFold, DefaultFoldStateMatchesDigest) {
    // Paxos does not override fold_state: the Behavior default folds the
    // digest string itself, so the partition agreement is the contract
    // applied to the fallback path (and the clone audit still bites).
    algo::PaxosConsensus algorithm;
    FailurePlan plan;
    auto oracle = benign_oracle(4, plan);
    audit_clone_and_fold(algorithm, 4, plan, 6, oracle.get());
}

// ------------------------------------------------ state_digest literals
//
// Known answers for every algorithm's state_digest(), one case per
// algorithm: the strings a recorded step stores as digest_after and the
// reference explorer keys states on.  Each case renders every process
// after a few seeded random steps (or executed rounds), with inputs
// chosen so the literals cover a `dec=` flag both ways, an empty id set
// and a negative value wherever the state can hold one.  A renderer
// that drifts by a byte fails here.

/// Every process's state_digest() after `steps` steps of
/// RandomScheduler(seed), one line per process.
std::string digests_after(const Algorithm& algorithm, int n,
                          std::vector<Value> inputs, FailurePlan plan,
                          int steps, std::uint64_t seed,
                          FdOracle* oracle = nullptr) {
    System sys(algorithm, n, std::move(inputs), std::move(plan), oracle);
    RandomScheduler sched(seed);
    for (int i = 0; i < steps; ++i) {
        const std::optional<StepChoice> choice = sched.next(sys);
        if (!choice) break;
        sys.apply_choice(*choice);
    }
    std::string out;
    for (ProcessId p = 1; p <= n; ++p) out += sys.last_digest(p) + "\n";
    return out;
}

/// Every record's digest_after of a full-HO round run, one per line.
std::string round_digests(const ho::RoundAlgorithm& algorithm,
                          std::vector<Value> inputs, int rounds) {
    ho::FullHo full;
    const int n = static_cast<int>(inputs.size());
    const ho::HoRun run =
            ho::execute_ho(algorithm, n, std::move(inputs), full, rounds);
    std::string out;
    for (const ho::HoRecord& rec : run.records) out += rec.digest_after + "\n";
    return out;
}

std::unique_ptr<FdOracle> quorum_leaders_oracle(int n, const FailurePlan& plan,
                                                std::vector<ProcessId> leaders) {
    return std::make_unique<fd::ComposedOracle>(
            std::make_unique<fd::CorrectSetQuorum>(n, plan),
            std::make_unique<fd::StableLeaders>(std::move(leaders), 0));
}

TEST(DigestLiterals, InitialClique) {
    const auto algorithm = algo::make_flp_kset(4, 1);  // L = 3
    FailurePlan plan;
    plan.set_initially_dead(2);
    const std::vector<Value> inputs{-7, 4, 0, -12};
    EXPECT_EQ(digests_after(*algorithm, 4, inputs, plan, 0, 1),
              "IC(p1,x=-7,ph=0,heard={},req={},known={})\n"
              "IC(p2,x=4,ph=0,heard={},req={},known={})\n"
              "IC(p3,x=0,ph=0,heard={},req={},known={})\n"
              "IC(p4,x=-12,ph=0,heard={},req={},known={})\n");
    EXPECT_EQ(digests_after(*algorithm, 4, inputs, plan, 9, 3),
              "IC(p1,x=-7,ph=1,heard={3},req={},known={})\n"
              "IC(p2,x=4,ph=0,heard={},req={},known={})\n"
              "IC(p3,x=0,ph=1,heard={},req={},known={})\n"
              "IC(p4,x=-12,ph=2,heard={1,3},req={1,3},known={})\n");
    EXPECT_EQ(digests_after(*algorithm, 4, inputs, plan, 40, 3),
              "IC(p1,x=-7,ph=3,heard={3,4},req={1,3,4},known={3:0:{1,4};4:-12:{1,3}})\n"
              "IC(p2,x=4,ph=0,heard={},req={},known={})\n"
              "IC(p3,x=0,ph=3,heard={1,4},req={1,3,4},known={1:-7:{3,4};4:-12:{1,3}})\n"
              "IC(p4,x=-12,ph=3,heard={1,3},req={1,3,4},known={1:-7:{3,4};3:0:{1,4}})\n");
}

TEST(DigestLiterals, Flooding) {
    algo::FloodingKSet algorithm(2);
    const std::vector<Value> inputs{-3, 5, -9};
    EXPECT_EQ(digests_after(algorithm, 3, inputs, {}, 0, 1),
              "FL(p1,x=-3,ann=0,seen={1:-3})\n"
              "FL(p2,x=5,ann=0,seen={2:5})\n"
              "FL(p3,x=-9,ann=0,seen={3:-9})\n");
    EXPECT_EQ(digests_after(algorithm, 3, inputs, {}, 4, 7),
              "FL(p1,x=-3,ann=1,seen={1:-3,3:-9})\n"
              "FL(p2,x=5,ann=0,seen={2:5})\n"
              "FL(p3,x=-9,ann=1,seen={3:-9})\n");
}

TEST(DigestLiterals, TrivialWaitFree) {
    algo::TrivialWaitFree algorithm;
    EXPECT_EQ(digests_after(algorithm, 2, {-4, 2}, {}, 1, 1),
              "TR(p1,x=-4,dec=1)\n"
              "TR(p2,x=2,dec=0)\n");
}

TEST(DigestLiterals, RankedSetAgreement) {
    algo::RankedSetAgreement algorithm;
    FailurePlan plan;
    auto oracle = std::make_unique<fd::ComposedOracle>(
            std::make_unique<fd::CorrectSetQuorum>(3, plan), nullptr);
    EXPECT_EQ(digests_after(algorithm, 3, {-2, -5, 8}, plan, 5, 99,
                            oracle.get()),
              "RK(p1,x=-2,ann=1,dec=0)\n"
              "RK(p2,x=-5,ann=1,dec=0)\n"
              "RK(p3,x=8,ann=1,dec=1)\n");
}

TEST(DigestLiterals, QuorumLeader) {
    algo::QuorumLeaderKSet algorithm;
    FailurePlan plan;
    auto oracle = quorum_leaders_oracle(4, plan, {1, 3});
    EXPECT_EQ(digests_after(algorithm, 4, {-6, 3, -1, 9}, plan, 7, 5,
                            oracle.get()),
              "QL(p1,x=-6,est=-6,prop=1,acks={1},dec=0)\n"
              "QL(p2,x=3,est=3,prop=0,acks={},dec=0)\n"
              "QL(p3,x=-1,est=-1,prop=1,acks={1,3,4},dec=0)\n"
              "QL(p4,x=9,est=9,prop=0,acks={},dec=0)\n");
    EXPECT_EQ(digests_after(algorithm, 4, {-6, 3, -1, 9}, plan, 30, 5,
                            oracle.get()),
              "QL(p1,x=-6,est=-6,prop=1,acks={1,2,3,4},dec=1)\n"
              "QL(p2,x=3,est=3,prop=0,acks={},dec=1)\n"
              "QL(p3,x=-1,est=-1,prop=1,acks={1,2,3,4},dec=1)\n"
              "QL(p4,x=9,est=9,prop=0,acks={},dec=1)\n");
}

TEST(DigestLiterals, Paxos) {
    algo::PaxosConsensus algorithm;
    FailurePlan plan;
    auto oracle = benign_oracle(3, plan);
    EXPECT_EQ(digests_after(algorithm, 3, {-8, 6, -2}, plan, 8, 11,
                            oracle.get()),
              "PX(p1,x=-8,est=-8,pb=4,ab=0,av=0,b=4,ph=1,prop=0,#prom=2,#acc=0,dec=0)\n"
              "PX(p2,x=6,est=6,pb=0,ab=0,av=0,b=0,ph=0,prop=0,#prom=0,#acc=0,dec=0)\n"
              "PX(p3,x=-2,est=-2,pb=4,ab=0,av=0,b=0,ph=0,prop=0,#prom=0,#acc=0,dec=0)\n");
    EXPECT_EQ(digests_after(algorithm, 3, {-8, 6, -2}, plan, 30, 11,
                            oracle.get()),
              "PX(p1,x=-8,est=-8,pb=4,ab=4,av=-8,b=4,ph=2,prop=-8,#prom=3,#acc=3,dec=1)\n"
              "PX(p2,x=6,est=6,pb=4,ab=4,av=-8,b=0,ph=0,prop=0,#prom=0,#acc=0,dec=1)\n"
              "PX(p3,x=-2,est=-2,pb=4,ab=4,av=-8,b=0,ph=0,prop=0,#prom=0,#acc=0,dec=1)\n");
}

TEST(DigestLiterals, KSetPaxos) {
    algo::KSetPaxos algorithm(2);
    FailurePlan plan;
    auto oracle = quorum_leaders_oracle(3, plan, {1, 2});
    EXPECT_EQ(digests_after(algorithm, 3, {-5, 7, -1}, plan, 8, 13,
                            oracle.get()),
              "KP(p1,x=-5,dec=0;i0:pb=4,ab=0,av=0,b=4,ph=1,#pr=1,#ac=0;i1:pb=5,ab=0,av=0,b=0,ph=0,#pr=0,#ac=0)\n"
              "KP(p2,x=7,dec=0;i0:pb=4,ab=0,av=0,b=0,ph=0,#pr=0,#ac=0;i1:pb=5,ab=0,av=0,b=5,ph=1,#pr=1,#ac=0)\n"
              "KP(p3,x=-1,dec=0;i0:pb=0,ab=0,av=0,b=0,ph=0,#pr=0,#ac=0;i1:pb=0,ab=0,av=0,b=0,ph=0,#pr=0,#ac=0)\n");
    EXPECT_EQ(digests_after(algorithm, 3, {-5, 7, -1}, plan, 40, 13,
                            oracle.get()),
              "KP(p1,x=-5,dec=1;i0:pb=4,ab=4,av=-5,b=4,ph=2,#pr=3,#ac=3;i1:pb=5,ab=5,av=7,b=0,ph=0,#pr=0,#ac=0)\n"
              "KP(p2,x=7,dec=1;i0:pb=4,ab=4,av=-5,b=0,ph=0,#pr=0,#ac=0;i1:pb=5,ab=5,av=7,b=5,ph=2,#pr=3,#ac=3)\n"
              "KP(p3,x=-1,dec=1;i0:pb=4,ab=4,av=-5,b=0,ph=0,#pr=0,#ac=0;i1:pb=5,ab=5,av=7,b=0,ph=0,#pr=0,#ac=0)\n");
}

TEST(DigestLiterals, FloodMin) {
    algo::FloodMin algorithm(2);
    EXPECT_EQ(round_digests(algorithm, {4, -11, 0}, 3),
              "FM(p1,est=-11,dec=0)\n"
              "FM(p2,est=-11,dec=0)\n"
              "FM(p3,est=-11,dec=0)\n"
              "FM(p1,est=-11,dec=1)\n"
              "FM(p2,est=-11,dec=1)\n"
              "FM(p3,est=-11,dec=1)\n");
}

TEST(DigestLiterals, OneThirdRule) {
    algo::OneThirdRule algorithm;
    EXPECT_EQ(round_digests(algorithm, {-3, 2, -3, 5}, 3),
              "OTR(p1,est=-3,dec=0)\n"
              "OTR(p2,est=-3,dec=0)\n"
              "OTR(p3,est=-3,dec=0)\n"
              "OTR(p4,est=-3,dec=0)\n"
              "OTR(p1,est=-3,dec=1)\n"
              "OTR(p2,est=-3,dec=1)\n"
              "OTR(p3,est=-3,dec=1)\n"
              "OTR(p4,est=-3,dec=1)\n");
}

}  // namespace
}  // namespace ksa
