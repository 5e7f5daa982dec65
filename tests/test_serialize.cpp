// Tests for run serialization: round-tripping, schedule extraction and
// replay fidelity.

#include <gtest/gtest.h>

#include "algo/flooding.hpp"
#include "algo/paxos_consensus.hpp"
#include "fd/sources.hpp"
#include "sim/schedulers.hpp"
#include "sim/serialize.hpp"
#include "sim/system.hpp"

namespace ksa {
namespace {

bool runs_equal(const Run& a, const Run& b) {
    if (a.n != b.n || a.algorithm != b.algorithm || a.inputs != b.inputs ||
        a.stop != b.stop || !(a.plan == b.plan) ||
        a.steps.size() != b.steps.size() ||
        a.fd_history.size() != b.fd_history.size())
        return false;
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
        const StepRecord &x = a.steps[i], &y = b.steps[i];
        if (x.time != y.time || x.process != y.process ||
            x.decision != y.decision || x.digest_after != y.digest_after ||
            x.final_crash_step != y.final_crash_step || x.fd != y.fd)
            return false;
        auto msgs_equal = [](const std::vector<Message>& u,
                             const std::vector<Message>& v) {
            if (u.size() != v.size()) return false;
            for (std::size_t j = 0; j < u.size(); ++j)
                if (u[j].id != v[j].id || !content_equal(u[j], v[j]) ||
                    u[j].sent_at != v[j].sent_at)
                    return false;
            return true;
        };
        if (!msgs_equal(x.delivered, y.delivered) ||
            !msgs_equal(x.sent, y.sent) || !msgs_equal(x.omitted, y.omitted))
            return false;
    }
    for (std::size_t i = 0; i < a.fd_history.size(); ++i) {
        const FdEvent &x = a.fd_history[i], &y = b.fd_history[i];
        if (x.time != y.time || x.process != y.process || !(x.sample == y.sample))
            return false;
    }
    return true;
}

TEST(Serialize, RoundTripsSimpleRun) {
    algo::FloodingKSet algorithm(2);
    FailurePlan plan;
    plan.set_crash(3, CrashSpec{1, {1}});
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), plan, rr);
    ksa::Run back = run_from_string(run_to_string(run));
    EXPECT_TRUE(runs_equal(run, back));
}

TEST(Serialize, RoundTripsFdRun) {
    algo::PaxosConsensus algorithm;
    FailurePlan plan;
    auto oracle = fd::make_benign_sigma_omega(3, plan, {2});
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), plan, rr,
                          oracle.get());
    ksa::Run back = run_from_string(run_to_string(run));
    EXPECT_TRUE(runs_equal(run, back));
    EXPECT_FALSE(back.fd_history.empty());
}

TEST(Serialize, RejectsGarbage) {
    EXPECT_THROW(run_from_string("not a run"), UsageError);
    EXPECT_THROW(run_from_string("KSARUN 1\nn 2\n"), UsageError);  // no end
    EXPECT_THROW(run_from_string("KSARUN 1\nwat 1\nend\n"), UsageError);
    // Malformed records fail at their first bad field: no count drives a
    // loop over a failed stream or sizes a container.
    for (const char* record : {
             "crash 1 1 18446744073709551615",  // omit count, no values
             "step 1 1 x 0 0 -",                // non-integer decision
             "step 1",                          // truncated
             "fdev 1 1 5",                      // FD-sample count, no values
             "stop 7",                          // no such stop reason
             "n 2 3",                           // trailing field
         }) {
        EXPECT_THROW(run_from_string(std::string("KSARUN 1\n") + record +
                                     "\nend\n"),
                     UsageError)
                << record;
    }
    // A message line whose int count is 2^40.
    EXPECT_THROW(run_from_string("KSARUN 1\nstep 1 1 - 0 0 %00\n"
                                 "d 1 2 1 0 VAL 1099511627776 5\nend\n"),
                 UsageError);
}

TEST(Serialize, ScheduleReplayReproducesRunExactly) {
    algo::FloodingKSet algorithm(3);
    RandomScheduler random(2024);
    ksa::Run original = execute_run(algorithm, 4, distinct_inputs(4), {}, random);

    ScriptedScheduler replay(schedule_of(original));
    ksa::Run replayed = execute_run(algorithm, 4, distinct_inputs(4), {}, replay);
    // The scripted scheduler stops exactly at the end of the schedule;
    // stop reasons may differ, everything else must match.
    replayed.stop = original.stop;
    EXPECT_TRUE(runs_equal(original, replayed));
}

TEST(Serialize, QueriesWorkOnDeserializedRuns) {
    algo::FloodingKSet algorithm(2);
    PartitionScheduler sched({{1, 2}, {3, 4}});
    ksa::Run run = execute_run(algorithm, 4, distinct_inputs(4), {}, sched);
    ksa::Run back = run_from_string(run_to_string(run));
    EXPECT_EQ(back.distinct_decisions(), run.distinct_decisions());
    EXPECT_EQ(back.decision_time_of(3), run.decision_time_of(3));
    EXPECT_TRUE(indistinguishable_for_all(run, back, {1, 2, 3, 4}));
}

}  // namespace
}  // namespace ksa
