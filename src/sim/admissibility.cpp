#include "sim/admissibility.hpp"

#include <algorithm>
#include <sstream>

namespace ksa {

AdmissibilityReport check_admissibility(const Run& run) {
    return check_admissibility(run, run.tally());
}

AdmissibilityReport check_admissibility(const Run& run, const RunTally& tally) {
    require(tally.steps.size() == static_cast<std::size_t>(std::max(run.n, 0)),
            "check_admissibility: the tally belongs to another run");
    AdmissibilityReport report;
    if (run.stop == StopReason::kStepLimit) report.conclusive = false;

    for (ProcessId p = 1; p <= run.n; ++p) {
        const std::size_t i = static_cast<std::size_t>(p) - 1;
        const bool faulty = run.plan.is_faulty(p);
        const int steps = tally.steps[i];

        // A Byzantine sender (ByzantineSpec in the effective plan) is
        // outside the crash-model obligations entirely: Byzantine k-set
        // agreement binds correct processes only, so neither a decision
        // nor drained channels are required of it.  Messages *to* a
        // correct receiver that a Byzantine channel forged still count --
        // Run::tally transfers the delivery obligation from the tampered
        // original to the forgery.
        if (!faulty && run.plan.is_byzantine(p)) continue;

        if (faulty) {
            const int allowed = run.plan.allowed_steps(p);
            if (steps > allowed) {
                std::ostringstream out;
                out << "faulty process " << p << " took " << steps
                    << " steps, plan allows " << allowed;
                report.fail(out.str());
            }
            if (report.conclusive && steps < allowed) {
                std::ostringstream out;
                out << "planned crash of process " << p
                    << " not realized: took " << steps << " of " << allowed
                    << " steps";
                report.fail(out.str());
            }
            continue;
        }

        // Correct process: must have kept stepping until it decided.
        if (report.conclusive && !tally.decision[i].has_value()) {
            std::ostringstream out;
            out << "correct process " << p
                << " never decided in a decisive prefix";
            report.fail(out.str());
        }
        // Eventual delivery: nothing addressed to a correct process may
        // remain buffered in a decisive prefix.
        if (report.conclusive) {
            const std::vector<MessageId>& pending = tally.pending[i];
            if (!pending.empty()) {
                std::ostringstream out;
                out << pending.size()
                    << " message(s) to correct process " << p
                    << " never delivered";
                report.fail(out.str());
            }
        }
    }
    return report;
}

}  // namespace ksa
