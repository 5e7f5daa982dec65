#include "core/kset_spec.hpp"

#include <algorithm>
#include <sstream>

namespace ksa::core {

KSetCheck check_kset_agreement(const Run& run, int k) {
    return check_kset_agreement(run, k, run.tally());
}

KSetCheck check_kset_agreement(const Run& run, int k, const RunTally& tally) {
    require(k >= 1, "check_kset_agreement: k must be >= 1");
    require(tally.decision.size() ==
                    static_cast<std::size_t>(std::max(run.n, 0)),
            "check_kset_agreement: the tally belongs to another run");
    KSetCheck check;

    const std::set<Value>& decided = tally.distinct;
    if (static_cast<int>(decided.size()) > k) {
        check.k_agreement = false;
        std::ostringstream out;
        out << "k-agreement violated: " << decided.size()
            << " distinct decisions, k=" << k;
        check.violations.push_back(out.str());
    }

    for (ProcessId p = 1; p <= run.n; ++p) {
        const std::optional<Value>& d = tally.decision[p - 1];
        if (!d) continue;
        if (std::find(run.inputs.begin(), run.inputs.end(), *d) ==
            run.inputs.end()) {
            check.validity = false;
            std::ostringstream out;
            out << "validity violated: p" << p << " decided " << *d
                << ", never proposed";
            check.violations.push_back(out.str());
        }
    }

    for (ProcessId p = 1; p <= run.n; ++p) {
        if (run.plan.is_faulty(p)) continue;
        if (!tally.decision[p - 1]) {
            check.termination = false;
            std::ostringstream out;
            out << "termination violated: correct p" << p << " never decided"
                << (run.stop == StopReason::kStepLimit ? " (step limit hit)"
                                                       : "");
            check.violations.push_back(out.str());
        }
    }
    return check;
}

void expect_kset_agreement(const Run& run, int k) {
    KSetCheck check = check_kset_agreement(run, k);
    if (check.ok()) return;
    std::ostringstream out;
    out << "k-set agreement check failed for " << run.algorithm << ":";
    for (const std::string& v : check.violations) out << "\n  " << v;
    throw UsageError(out.str());
}

}  // namespace ksa::core
