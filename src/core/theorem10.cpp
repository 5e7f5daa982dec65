#include "core/theorem10.hpp"

#include <algorithm>
#include <sstream>

#include "core/bounds.hpp"
#include "fd/sources.hpp"

namespace ksa::core {

std::vector<std::vector<ProcessId>> theorem10_fd_blocks(int n, int k) {
    require(theorem10_applies(n, k), "theorem10: need 2 <= k <= n-2");
    std::vector<std::vector<ProcessId>> blocks;
    for (ProcessId p = 1; p <= k - 1; ++p) blocks.push_back({p});
    std::vector<ProcessId> d;
    for (ProcessId p = k; p <= n; ++p) d.push_back(p);
    blocks.push_back(std::move(d));
    return blocks;
}

std::vector<ProcessId> theorem10_leader_set(int n, int k) {
    require(theorem10_applies(n, k), "theorem10: need 2 <= k <= n-2");
    std::vector<ProcessId> ld;
    for (ProcessId p = 1; p <= k - 2; ++p) ld.push_back(p);
    ld.push_back(k);      // p_s: the smallest member of D
    ld.push_back(k + 1);  // p_t: the second member of D
    return ld;
}

std::string Theorem10Result::summary() const {
    std::ostringstream out;
    out << "Theorem10[n=" << n << ",k=" << k << "]: bound=" << bound_applies
        << " " << certificate.summary()
        << " Def7-history=" << (partition_validation.ok ? "valid" : "INVALID")
        << " (Sigma_k,Omega_k)-history="
        << (sigma_omega_validation.ok ? "valid (Lemma 9)" : "INVALID");
    return out.str();
}

Theorem10Result run_theorem10(const Algorithm& candidate, int n, int k,
                              int stage_budget) {
    Theorem10Result result;
    result.n = n;
    result.k = k;
    result.bound_applies = theorem10_applies(n, k);
    require(result.bound_applies, "run_theorem10: need 2 <= k <= n-2");

    const auto fd_blocks = theorem10_fd_blocks(n, k);
    const auto ld = theorem10_leader_set(n, k);
    const ProcessId ps = k, pt = k + 1;

    // D and the singleton blocks for the Theorem 1 spec.
    std::vector<std::vector<ProcessId>> d_blocks(fd_blocks.begin(),
                                                 fd_blocks.end() - 1);
    PartitionSpec spec = make_partition_spec(n, k, d_blocks);

    // Split schedule inside D: hold back decision announcements until
    // both p_s and p_t have decided, then release them within D.
    std::vector<ProcessId> d = spec.d;
    auto in_d = [d](ProcessId p) {
        return std::binary_search(d.begin(), d.end(), p);
    };
    StagedScheduler::Stage hold;
    hold.active = d;
    hold.filter = [in_d](const Message& m, ProcessId) {
        return in_d(m.from) && m.payload->tag != "DEC";
    };
    hold.done = [ps, pt](const SystemView& v) {
        return v.decided(ps) && v.decided(pt);
    };
    hold.budget = stage_budget;
    StagedScheduler::Stage flush;
    flush.active = d;
    flush.filter = [in_d](const Message& m, ProcessId) { return in_d(m.from); };
    flush.budget = stage_budget;

    // The stabilization time must come after the singleton blocks decide
    // in the beta/violating runs; retry with larger guesses if a slower
    // candidate needs more pre-GST steps.
    for (Time gst : {Time{k}, Time{4 * k + 8}, Time{16 * k + 64}}) {
        Theorem1Inputs in;
        in.algorithm = &candidate;
        in.spec = spec;
        in.inputs = distinct_inputs(n);
        in.plan = FailurePlan{};
        in.split_stages = {hold, flush};
        in.stage_budget = stage_budget;
        in.oracle_factory = [&, gst](CertRun kind, const FailurePlan& plan) {
            // Runs whose interesting activity starts at t = 1 see the
            // stabilized set immediately; runs that must let the
            // singleton blocks decide first stabilize at `gst`.
            const Time when = (kind == CertRun::kBeta ||
                               kind == CertRun::kViolating)
                                  ? gst
                                  : 0;
            return fd::make_partition_detector(n, k, fd_blocks, plan, ld,
                                               when);
        };
        result.certificate = certify_theorem1(in);
        if (result.certificate.complete()) break;
    }

    result.partition_validation = fd::validate_partition_detector(
        result.certificate.violating, fd_blocks, k);
    result.sigma_omega_validation =
        fd::validate_sigma_omega_k(result.certificate.violating, k);
    return result;
}

}  // namespace ksa::core
