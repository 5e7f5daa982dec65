// A1 -- ablations of the reproduction's design choices.
//
//   (a) Window width in the Theorem 2 split schedule: the cyclic listen
//       window must have width exactly l = n-f -- narrower stalls the
//       f-resilient candidate (it cannot gather n-f proposals), wider
//       merges the minima and the split disappears.  This locates the
//       crossover the construction sits on.
//   (b) Scheduler choice for the possibility results: round-robin vs
//       seeded-random vs partition+release all preserve the FLP
//       protocol's guarantees (the protocol is schedule-insensitive),
//       but differ in steps-to-quiescence.
//   (c) Decision-announcement holdback in the Theorem 10 split: without
//       the "hold DEC" filter the split collapses to one value --
//       demonstrating that the violation needs genuine asynchrony, not
//       just the partition detector.

#include <iomanip>
#include <iostream>

#include "algo/flooding.hpp"
#include "algo/initial_clique.hpp"
#include "algo/quorum_leader_kset.hpp"
#include "core/restriction.hpp"
#include "core/theorem10.hpp"
#include "core/theorem2.hpp"
#include "fd/sources.hpp"
#include "sim/schedulers.hpp"
#include "sim/system.hpp"

int main() {
    using namespace ksa;

    std::cout << "A1a: window width vs split, Theorem 2 at (n,f,k)=(7,4,2), "
                 "candidate threshold 3\n\n";
    std::cout << std::setw(8) << "window" << std::setw(12) << "D stalls"
              << std::setw(14) << "D #values" << std::setw(10) << "split\n";
    {
        const int n = 7, f = 4, k = 2;
        algo::FloodingKSet candidate(n - f);
        core::PartitionSpec spec =
            core::make_partition_spec(n, k, core::theorem2_blocks(n, f, k));
        for (int window = 1; window <= static_cast<int>(spec.d.size());
             ++window) {
            core::RestrictedAlgorithm restricted(candidate, spec.d);
            FailurePlan dead;
            for (const auto& b : spec.blocks)
                for (ProcessId p : b) dead.set_initially_dead(p);
            auto stages = core::window_split_stages(spec.d, window, 600);
            StagedScheduler sched(stages);
            System sys(restricted, n, distinct_inputs(n), dead);
            Run run = sys.execute(sched, {.max_steps = 5000});
            auto values = run.distinct_decisions(spec.d);
            std::cout << std::setw(8) << window << std::setw(12)
                      << (sched.stalled_stages().empty() ? "no" : "YES")
                      << std::setw(14) << values.size() << std::setw(10)
                      << (values.size() >= 2 ? "YES" : "no") << "\n";
        }
    }

    std::cout << "\nA1b: scheduler ablation for the FLP protocol (n=9, two "
                 "initial crashes)\n\n";
    std::cout << std::left << std::setw(24) << "scheduler" << std::right
              << std::setw(10) << "steps" << std::setw(12) << "messages"
              << std::setw(12) << "#values\n";
    {
        auto algorithm = algo::make_flp_consensus(9);
        FailurePlan plan;
        plan.set_initially_dead({4, 8});
        auto report = [&](const char* label, Scheduler& sched) {
            Run run = execute_run(*algorithm, 9, distinct_inputs(9), plan,
                                  sched);
            std::cout << std::left << std::setw(24) << label << std::right
                      << std::setw(10) << run.steps.size() << std::setw(12)
                      << run.messages_sent() << std::setw(12)
                      << run.distinct_decisions().size() << "\n";
        };
        RoundRobinScheduler rr;
        report("round-robin", rr);
        RandomScheduler rnd(11);
        report("random(seed=11)", rnd);
        RandomScheduler rnd2(12);
        report("random(seed=12)", rnd2);
        PartitionScheduler part({{1, 2, 3, 5, 6, 7, 9}});
        report("partition+release", part);
    }

    std::cout << "\nA1c: holdback ablation in Theorem 10 (n=5, k=2)\n\n";
    {
        const int n = 5, k = 2;
        algo::QuorumLeaderKSet candidate;
        auto fd_blocks = core::theorem10_fd_blocks(n, k);
        auto ld = core::theorem10_leader_set(n, k);
        std::vector<ProcessId> d;
        for (ProcessId p = k; p <= n; ++p) d.push_back(p);
        FailurePlan plan;

        auto run_variant = [&](bool hold_dec) {
            auto oracle =
                fd::make_partition_detector(n, k, fd_blocks, plan, ld, 0);
            StagedScheduler::Stage stage;
            stage.active = d;
            stage.filter = [&d, hold_dec](const Message& m, ProcessId) {
                const bool in_d =
                    std::find(d.begin(), d.end(), m.from) != d.end();
                return in_d && (!hold_dec || m.payload->tag != "DEC");
            };
            stage.done = [](const SystemView& v) {
                return v.decided(2) && v.decided(3);
            };
            stage.budget = 2000;
            StagedScheduler sched({stage});
            System sys(candidate, n, distinct_inputs(n), plan, oracle.get());
            Run run = sys.execute(sched, {.max_steps = 8000});
            return run.distinct_decisions(d).size();
        };
        std::cout << "  deliver-all within D (no holdback): "
                  << run_variant(false) << " value(s) in D\n";
        std::cout << "  hold decision announcements:        "
                  << run_variant(true) << " value(s) in D\n";
        std::cout << "  => the k+1-value witness needs the DEC holdback; the\n"
                     "     partition detector alone does not split D.\n";
    }
    return 0;
}
