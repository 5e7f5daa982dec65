#include "chaos/resilience.hpp"

#include <random>
#include <sstream>
#include <utility>

#include <optional>
#include <set>

#include "algo/initial_clique.hpp"
#include "check/contract.hpp"
#include "exec/clock.hpp"
#include "exec/parallel_map.hpp"
#include "core/bounds.hpp"
#include "core/kset_spec.hpp"
#include "sim/admissibility.hpp"
#include "sim/schedulers.hpp"

namespace ksa::chaos {

namespace {

/// splitmix64: mixes trial coordinates into independent seeds, so
/// neighboring cells do not share schedules.
std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t trial_seed_for(std::uint64_t base, int n, int k, int f,
                             int trial) {
    std::uint64_t s = mix(base);
    s = mix(s ^ static_cast<std::uint64_t>(n));
    s = mix(s ^ (static_cast<std::uint64_t>(k) << 8));
    s = mix(s ^ (static_cast<std::uint64_t>(f) << 16));
    s = mix(s ^ (static_cast<std::uint64_t>(trial) << 24));
    return s;
}

/// Scheduler decorator enforcing a per-trial wall-clock budget: once the
/// deadline passes it stops proposing steps, so the trial ends truncated
/// and classifies as kInconclusive instead of stalling the sweep.  A
/// zero budget makes it fully transparent (no clock reads at all), which
/// is what keeps budget-free reports byte-identical across machines.
class DeadlineScheduler final : public Scheduler {
public:
    DeadlineScheduler(Scheduler& inner, std::int64_t budget_ms)
        : inner_(&inner),
          budget_ms_(budget_ms),
          start_ms_(budget_ms > 0 ? exec::steady_now_ms() : 0) {}

    std::optional<StepChoice> next(const SystemView& view) override {
        if (budget_ms_ > 0 &&
            exec::steady_now_ms() - start_ms_ >= budget_ms_) {
            expired_ = true;
            return std::nullopt;
        }
        return inner_->next(view);
    }

    /// Transparent: archived runs keep the inner scheduler's name.
    std::string name() const override { return inner_->name(); }

    bool expired() const { return expired_; }

private:
    Scheduler* inner_;
    std::int64_t budget_ms_;
    std::int64_t start_ms_;
    bool expired_ = false;
};

/// The retry profile for inconclusive trials: every dice rate halved and
/// delays shortened, so a pathological parameterization gets a second,
/// gentler chance before the trial is recorded as inconclusive.  Budgets
/// stay put, so the profile remains valid under ChaosProfile::validate.
ChaosProfile tighter_profile(ChaosProfile p) {
    p.drop_per_mille /= 2;
    p.duplicate_per_mille /= 2;
    p.delay_per_mille /= 2;
    p.corrupt_per_mille /= 2;
    p.equivocate_per_mille /= 2;
    p.burst_per_mille /= 2;
    p.crash_per_mille /= 2;
    if (p.max_delay > 1) p.max_delay /= 2;
    return p;
}

}  // namespace

std::string to_string(Outcome outcome) {
    switch (outcome) {
        case Outcome::kDecidedCorrectly: return "decided-correctly";
        case Outcome::kAgreementViolated: return "agreement-violated";
        case Outcome::kValidityViolated: return "validity-violated";
        case Outcome::kTimedOut: return "timed-out";
        case Outcome::kInadmissible: return "inadmissible";
        case Outcome::kInconclusive: return "inconclusive";
    }
    return "unknown";
}

Outcome classify_run(const Run& run, int k) {
    if (run.stop == StopReason::kStepLimit) return Outcome::kTimedOut;
    const RunTally tally = run.tally();
    const AdmissibilityReport adm = check_admissibility(run, tally);
    if (!adm.admissible) return Outcome::kInadmissible;

    const std::set<ProcessId>& byz = run.plan.byzantine();
    if (byz.empty()) {
        const core::KSetCheck check = core::check_kset_agreement(run, k, tally);
        if (!check.k_agreement) return Outcome::kAgreementViolated;
        if (!check.validity) return Outcome::kValidityViolated;
        if (!check.termination) return Outcome::kTimedOut;
        return Outcome::kDecidedCorrectly;
    }

    // Byzantine-aware path: the spec's obligations bind honest processes
    // only (crash-faulty ones included, as in the crash path), because a
    // Byzantine process's decision is as untrustworthy as its messages.
    std::vector<ProcessId> honest;
    for (ProcessId p = 1; p <= run.n; ++p)
        if (byz.count(p) == 0) honest.push_back(p);
    if (static_cast<int>(run.distinct_decisions(honest).size()) > k)
        return Outcome::kAgreementViolated;
    const std::set<Value> proposed(run.inputs.begin(), run.inputs.end());
    for (ProcessId p : honest) {
        const std::optional<Value>& d = tally.decision[p - 1];
        if (d && proposed.count(*d) == 0) return Outcome::kValidityViolated;
    }
    for (ProcessId p : honest)
        if (!run.plan.is_faulty(p) && !tally.decision[p - 1])
            return Outcome::kTimedOut;
    return Outcome::kDecidedCorrectly;
}

TrialResult chaos_trial(int n, int k, int f, const ChaosProfile& profile,
                        std::uint64_t trial_seed, ExecutionLimits limits,
                        std::int64_t wall_budget_ms) {
    require(n >= 2, "chaos_trial: n must be >= 2");
    require(k >= 1, "chaos_trial: k must be >= 1");
    require(f >= 0 && f <= n - 1, "chaos_trial: need 0 <= f <= n-1");

    const std::unique_ptr<Algorithm> algorithm = algo::make_flp_kset(n, f);

    // Seeded failure pattern: up to f initial deaths, sampled with a
    // hand-rolled partial Fisher-Yates (std::shuffle's output is
    // implementation-defined; replayability wants ours fixed).
    std::mt19937_64 rng(trial_seed);
    const int dead =
        f > 0 ? static_cast<int>(rng() % static_cast<std::uint64_t>(f + 1))
              : 0;
    std::vector<ProcessId> pids(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) pids[static_cast<std::size_t>(i)] = i + 1;
    FailurePlan plan;
    for (int i = 0; i < dead; ++i) {
        const std::size_t j =
            static_cast<std::size_t>(i) +
            static_cast<std::size_t>(rng() %
                                     static_cast<std::uint64_t>(n - i));
        std::swap(pids[static_cast<std::size_t>(i)], pids[j]);
        plan.set_initially_dead(pids[static_cast<std::size_t>(i)]);
    }

    ChaosProfile trial_profile = profile;
    trial_profile.seed = mix(trial_seed ^ 0xc2b2ae3d27d4eb4full);

    RandomScheduler base(trial_seed);
    FaultInjector injector(base, trial_profile);
    DeadlineScheduler deadline(injector, wall_budget_ms);

    TrialResult result;
    result.run = execute_run(*algorithm, n, distinct_inputs(n),
                             std::move(plan), deadline, nullptr, limits);
    result.stats = injector.stats();
    result.outcome = deadline.expired() ? Outcome::kInconclusive
                                        : classify_run(result.run, k);
    return result;
}

TrialResult byzantine_trial(int n, int k, int f, const ChaosProfile& profile,
                            std::uint64_t trial_seed, ExecutionLimits limits,
                            std::int64_t wall_budget_ms) {
    require(n >= 2, "byzantine_trial: n must be >= 2");
    require(k >= 1, "byzantine_trial: k must be >= 1");
    require(f >= 0 && f <= n - 1, "byzantine_trial: need 0 <= f <= n-1");

    const std::unique_ptr<Algorithm> algorithm = algo::make_flp_kset(n, f);

    // No initial deaths: the adversary's whole budget is value faults.
    // The victim cap is forced to the cell's f; f = 0 additionally
    // zeroes the Byzantine dice so the profile stays valid.
    ChaosProfile trial_profile = profile;
    trial_profile.seed = mix(trial_seed ^ 0x8ebc6af09c88c6e3ull);
    trial_profile.max_byzantine = f;
    if (f == 0) {
        trial_profile.corrupt_per_mille = 0;
        trial_profile.equivocate_per_mille = 0;
    }

    RandomScheduler base(trial_seed);
    FaultInjector injector(base, trial_profile);
    DeadlineScheduler deadline(injector, wall_budget_ms);

    TrialResult result;
    result.run = execute_run(*algorithm, n, distinct_inputs(n), FailurePlan{},
                             deadline, nullptr, limits);
    result.stats = injector.stats();
    result.outcome = classify_run(result.run, k);
    // Under value faults a step-limit stop is indistinguishable from
    // "needed a larger budget" -- a lied-to receiver may merely be slow
    // to reach closure -- so budget exhaustion of either kind degrades
    // to inconclusive rather than claiming a termination violation.
    if (deadline.expired() || result.run.stop == StopReason::kStepLimit)
        result.outcome = Outcome::kInconclusive;
    return result;
}

int SweepReport::total_trials() const {
    int c = 0;
    for (const CellResult& cell : cells) c += cell.trials;
    return c;
}

bool SweepReport::boundary_clean() const {
    for (const CellResult& cell : cells)
        if (cell.solvable && !cell.clean()) return false;
    return true;
}

bool SweepReport::complete() const {
    for (const CellResult& cell : cells) {
        const int classified = cell.decided + cell.agreement_violations +
                               cell.validity_violations + cell.timeouts +
                               cell.inadmissible + cell.inconclusive;
        if (cell.trials != config.seeds_per_cell ||
            classified != cell.trials)
            return false;
    }
    return true;
}

SweepReport resilience_sweep(const SweepConfig& config) {
    require(config.min_n >= 2, "resilience_sweep: min_n must be >= 2");
    require(config.max_n >= config.min_n,
            "resilience_sweep: max_n must be >= min_n");
    require(config.seeds_per_cell >= 1,
            "resilience_sweep: seeds_per_cell must be >= 1");
    config.profile.validate();

    SweepReport report;
    report.config = config;

    // Step 1 of the parallel-sweep recipe (exec/parallel_map.hpp):
    // materialize the iteration space.  Every trial's seed is derived
    // from its cell coordinates alone, so cells are independent work
    // items and the cell-parallel report is byte-identical to the
    // sequential one.
    struct CellCoord {
        int n, k, f;
    };
    std::vector<CellCoord> coords;
    for (int n = config.min_n; n <= config.max_n; ++n)
        for (int k = 1; k <= n - 1; ++k)
            for (int f = 0; f <= n - 1; ++f) coords.push_back({n, k, f});

    const bool byzantine =
        config.model == SweepConfig::FaultModel::kByzantine;
    const auto run_trial = [&](int n, int k, int f,
                               const ChaosProfile& profile,
                               std::uint64_t seed) {
        return byzantine
                   ? byzantine_trial(n, k, f, profile, seed, config.limits,
                                     config.trial_wall_budget_ms)
                   : chaos_trial(n, k, f, profile, seed, config.limits,
                                 config.trial_wall_budget_ms);
    };

    // Cells are few and wildly uneven (cost grows with n, and the
    // retry pass is per-cell), so they go through the work-stealing
    // scheduler at grain 1: while a worker is stuck on an expensive
    // high-n cell, idle peers claim the unclaimed cells of its block
    // instead of leaving them queued behind it (a static partition
    // measured 0.979x "speedup" at 4 threads on exactly this skew).
    exec::TaskScheduler sched(config.threads);
    report.cells = exec::parallel_map_grained(
            sched, coords.size(), /*grain=*/1, [&](std::size_t i, int) {
                const auto [n, k, f] = coords[i];
                CellResult cell;
                cell.n = n;
                cell.k = k;
                cell.f = f;
                cell.solvable = byzantine
                                    ? core::byzantine_kset_necessary(n, f, k)
                                    : core::theorem8_solvable(n, f, k);
                for (int t = 0; t < config.seeds_per_cell; ++t) {
                    const std::uint64_t seed =
                        trial_seed_for(config.base_seed, n, k, f, t);
                    TrialResult trial =
                        run_trial(n, k, f, config.profile, seed);
                    if (trial.outcome == Outcome::kInconclusive &&
                        config.retry_inconclusive) {
                        // One tighter-profile retry, salted seed.  Local
                        // to the trial, so cell parallelism stays
                        // deterministic.
                        ++cell.retries;
                        trial = run_trial(n, k, f,
                                          tighter_profile(config.profile),
                                          mix(seed ^ 0x5bf03635aca33d2aull));
                    }
                    ++cell.trials;
                    cell.faults_injected += trial.stats.total_faults();
                    switch (trial.outcome) {
                        case Outcome::kDecidedCorrectly: ++cell.decided; break;
                        case Outcome::kAgreementViolated:
                            ++cell.agreement_violations;
                            break;
                        case Outcome::kValidityViolated:
                            ++cell.validity_violations;
                            break;
                        case Outcome::kTimedOut: ++cell.timeouts; break;
                        case Outcome::kInadmissible:
                            ++cell.inadmissible;
                            break;
                        case Outcome::kInconclusive:
                            ++cell.inconclusive;
                            break;
                    }
                }
                return cell;
            });
    return report;
}

std::string SweepReport::to_json() const {
    std::ostringstream out;
    out << "{\n";
    out << "  \"config\": {\"min_n\": " << config.min_n
        << ", \"max_n\": " << config.max_n
        << ", \"seeds_per_cell\": " << config.seeds_per_cell
        << ", \"base_seed\": " << config.base_seed << ", \"model\": \""
        << (config.model == SweepConfig::FaultModel::kByzantine
                ? "byzantine"
                : "crash")
        << "\", \"trial_wall_budget_ms\": " << config.trial_wall_budget_ms
        << ", \"profile\": \"" << config.profile.describe() << "\"},\n";
    out << "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult& c = cells[i];
        out << "    {\"n\": " << c.n << ", \"k\": " << c.k
            << ", \"f\": " << c.f
            << ", \"solvable\": " << (c.solvable ? "true" : "false")
            << ", \"trials\": " << c.trials << ", \"decided\": " << c.decided
            << ", \"agreement_violations\": " << c.agreement_violations
            << ", \"validity_violations\": " << c.validity_violations
            << ", \"timeouts\": " << c.timeouts
            << ", \"inadmissible\": " << c.inadmissible
            << ", \"inconclusive\": " << c.inconclusive
            << ", \"retries\": " << c.retries
            << ", \"faults_injected\": " << c.faults_injected << "}"
            << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"summary\": {\"total_trials\": " << total_trials()
        << ", \"boundary_clean\": " << (boundary_clean() ? "true" : "false")
        << ", \"complete\": " << (complete() ? "true" : "false") << "}\n";
    out << "}\n";
    return out.str();
}

std::string SweepReport::to_markdown() const {
    const bool byz = config.model == SweepConfig::FaultModel::kByzantine;
    std::ostringstream out;
    out << (byz ? "# Byzantine resilience sweep (Bouzid-Imbs-Raynal "
                  "boundary under value faults)\n\n"
                : "# Resilience sweep (Theorem 8 boundary under chaos)\n\n");
    out << "Profile: `" << config.profile.describe() << "`, "
        << config.seeds_per_cell << " seeds/cell, n in [" << config.min_n
        << ", " << config.max_n << "].\n\n";
    if (byz)
        out << "`solvable` marks cells satisfying the *necessary* "
               "condition k*n > (2k+1)*f; the initial-clique algorithm "
               "under test makes no Byzantine tolerance claim, so "
               "violations on either side are reports, not verdicts.\n\n";
    out << "| n | k | f | solvable | decided | agreement | validity | "
           "timeout | inadmissible | inconclusive | faults |\n";
    out << "|---|---|---|----------|---------|-----------|----------|"
           "---------|--------------|--------------|--------|\n";
    for (const CellResult& c : cells) {
        out << "| " << c.n << " | " << c.k << " | " << c.f << " | "
            << (c.solvable ? "yes" : "no") << " | " << c.decided << " | "
            << c.agreement_violations << " | " << c.validity_violations
            << " | " << c.timeouts << " | " << c.inadmissible << " | "
            << c.inconclusive << " | " << c.faults_injected << " |\n";
    }
    if (byz) {
        out << "\nTotal trials: " << total_trials() << ".  "
            << (complete() ? "COMPLETE: every trial was classified; "
                             "budget-exhausted trials degraded to "
                             "inconclusive instead of hanging."
                           : "INCOMPLETE: some trial went unaccounted -- "
                             "investigate before trusting the grid.")
            << "\n";
    } else {
        out << "\nTotal trials: " << total_trials() << ".  Solvable side "
            << (boundary_clean()
                    ? "CLEAN: every guarded-chaos trial decided "
                      "correctly, matching Theorem 8."
                    : "NOT CLEAN: some solvable cell shows a "
                      "violation -- investigate before trusting "
                      "the engine.")
            << "\n";
    }
    return out.str();
}

}  // namespace ksa::chaos
