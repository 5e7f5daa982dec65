// ksa_perfbench -- the measuring program behind perfbench/run.py.
//
// Usage: ksa_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      --scratch DIR --report FILE [--threads T]
//
// Set-up (timed from process start) builds the algorithm and
// configuration from the seed, starts a TaskScheduler and makes one
// untimed, smaller warm-up call.  Then:
//
//   --trace 0  repeats the workload's operation, each followed by a
//              fresh timed set-up round, until S seconds have passed
//              and reports the end-to-end metrics;
//   --trace 1  alternates untraced and traced operations for S/2
//              seconds, runs the operation once on 1 thread, runs the
//              layer probes (probes.hpp), reports the per-layer metrics
//              with an attribution of the 1-thread wall time, and
//              writes every span to DIR/trace-<workload>-<seed>.json.
//
// Metrics go to FILE as a bench::BenchReport, each an exact num/den
// ratio; run.py divides, checks the names and prints the result line.
// Exit status: 0 when the run completed (failed checks are counted in
// the report, not in the status), 1 on an error, 2 on bad usage.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "exec/task_scheduler.hpp"
#include "metrics.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace ksa::perfbench {

namespace {

constexpr std::int64_t kNsPerS = 1000 * 1000 * 1000;

struct Args {
    std::string workload, scratch, report;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    int threads = 0;  ///< 0 = min(4, hardware threads)
};

std::optional<Args> parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* v = argv[i + 1];
        if (key == "--workload") a.workload = v;
        else if (key == "--seed") a.seed = std::strtoull(v, nullptr, 10);
        else if (key == "--seconds") a.seconds = std::atof(v);
        else if (key == "--trace") a.trace = std::atoi(v);
        else if (key == "--threads") a.threads = std::atoi(v);
        else if (key == "--scratch") a.scratch = v;
        else if (key == "--report") a.report = v;
        else return std::nullopt;
    }
    if (argc % 2 == 0 || a.workload.empty() || a.scratch.empty() ||
        a.report.empty() || a.seconds <= 0 || (a.trace != 0 && a.trace != 1))
        return std::nullopt;
    return a;
}

std::int64_t peak_rss_bytes() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<std::int64_t>(u.ru_maxrss) * 1024;  // Linux: KiB
}

/// Ratio a/b - 1 in percent, for two medians.
Ratio pct_over(Ratio a, Ratio b) {
    return {(a.num * b.den - b.num * a.den) * 100, b.num * a.den};
}

/// What one set-up round builds: the algorithm and configuration from
/// the seed and a started TaskScheduler, after the untimed warm-up call.
struct Session {
    Prepared prepared;
    std::unique_ptr<exec::TaskScheduler> sched;
};

Session set_up(const WorkloadSpec& spec, const Args& args, int threads) {
    Session s;
    s.prepared = prepare(spec, args.seed, threads, args.scratch);
    s.sched = std::make_unique<exec::TaskScheduler>(threads);
    warm_up(spec, s.prepared);
    return s;
}

/// Operations of one run: attempted/failed tallies and the counts every
/// exploration must repeat.
struct Tally {
    const WorkloadSpec& spec;
    const Prepared& prepared;
    std::int64_t attempted = 0, failed = 0;
    std::optional<Counts> reference;

    OpResult run(int threads, Tracer* tracer) {
        OpResult r = run_op(spec, prepared, threads, tracer, reference);
        ++attempted;
        if (!r.ok) {
            ++failed;
            std::printf("  FAILED operation %lld: %s\n",
                        static_cast<long long>(attempted), r.error.c_str());
        } else if (!reference && !spec.sweep) {
            reference = r.counts;
        }
        return r;
    }
};

/// The untraced run.  A fresh set-up round follows every operation, so
/// the set-up samples, like the operations, span the whole run: the
/// machine's speed drifts over seconds, and rounds made back to back
/// would all see one moment of it.  `setup_ns` holds the first round,
/// timed from process start.
void report_untraced(Metrics& m, Tally& tally, const Args& args, int threads,
                     std::vector<std::int64_t> setup_ns) {
    std::vector<std::int64_t> ns;
    OpResult last;
    const std::int64_t deadline =
            now_ns() + static_cast<std::int64_t>(args.seconds * kNsPerS);
    do {
        last = tally.run(threads, nullptr);
        ns.push_back(last.ns);
        const std::int64_t t0 = now_ns();
        const Session fresh = set_up(tally.spec, args, threads);
        setup_ns.push_back(now_ns() - t0);
    } while (now_ns() < deadline);
    auto print_seconds = [](const char* label, const std::vector<std::int64_t>& samples) {
        std::printf("  %s (s):", label);
        for (std::int64_t t : samples) std::printf(" %.4f", static_cast<double>(t) / kNsPerS);
        std::printf("\n");
    };
    print_seconds("operations", ns);
    print_seconds("set-ups", setup_ns);
    const Ratio verdict = median(ns);
    const std::string samples = "median of " + std::to_string(ns.size()) + " operations";
    m.put("verdict_s", "s", {verdict.num, verdict.den * kNsPerS}, samples);
    const Ratio setup = median(setup_ns);
    m.put("setup_s", "s", {setup.num, setup.den * kNsPerS},
          "median of " + std::to_string(setup_ns.size()) + " set-ups");
    m.put("peak_rss_mb", "MB", peak_rss_bytes(), 1000 * 1000);
    if (tally.spec.sweep)
        std::printf("  (trials_per_s = %.1f: %d trials per sweep)\n",
                    last.sweep.total_trials() * static_cast<double>(kNsPerS) /
                            verdict.value(),
                    last.sweep.total_trials());
    else
        std::printf("  (explore_s = verdict_s; %zu states, %zu dedup hits, "
                    "%zu por skips, %llu spilled records, exhaustive=%d)\n",
                    last.explore.states_explored, last.explore.dedup_hits,
                    last.explore.por_skips,
                    static_cast<unsigned long long>(last.explore.spilled_records),
                    last.explore.exhaustive ? 1 : 0);
}

void report_traced(Metrics& m, Tally& tally, const Args& args, int threads,
                   exec::TaskScheduler& sched, const Prepared& prepared) {
    const WorkloadSpec& spec = tally.spec;
    Tracer tracer;
    std::vector<std::int64_t> plain_ns, traced_ns;
    OpResult last;
    const std::int64_t deadline =
            now_ns() + static_cast<std::int64_t>(args.seconds / 2 * kNsPerS);
    do {
        plain_ns.push_back(tally.run(threads, nullptr).ns);
        tracer.next_op();
        last = tally.run(threads, &tracer);
        traced_ns.push_back(last.ns);
    } while (now_ns() < deadline);
    tracer.next_op();
    const OpResult single = tally.run(1, &tracer);

    tracer.next_op();
    std::mt19937_64 rng(mix(args.seed ^ 0x9e0b5eedull));
    ProbeEnv env{prepared.subject, rng, &tracer, sched, args.scratch};
    const std::uint64_t steals_before = sched.steal_count();
    const SimCosts sim = probe_sim(env);
    const DigestCosts digest = probe_digest(env);
    const core::ExploreResult& e = last.explore;
    const auto states = static_cast<std::int64_t>(e.states_explored);
    const std::int64_t candidates =
            states + static_cast<std::int64_t>(e.dedup_hits) - (states > 0 ? 1 : 0);
    const StoreCosts store = spec.sweep ? probe_store(env, std::int64_t(1) << 18, {1, 4})
                                        : probe_store(env, candidates, {states, candidates});
    const Ratio canon = probe_canon(env, std::max(2, prepared.subject.depth - 2));
    const PerCall region = probe_region(env);
    std::vector<Cell> cells;
    int trials = 256;
    if (spec.sweep) {
        for (int n = prepared.sweep.min_n; n <= prepared.sweep.max_n; ++n)
            for (int k = 1; k < n; ++k)
                for (int f = 0; f < n; ++f) cells.push_back({n, k, f});
        trials = prepared.sweep.seeds_per_cell;
    } else {
        cells.push_back({spec.n, 1, 1});
    }
    const ChaosCosts chaos = probe_chaos(env, cells, trials);
    const std::uint64_t exec_steals = sched.steal_count() - steals_before;

    const Ratio plain = median(plain_ns);
    const Ratio traced = median(traced_ns);
    const bool oversubscribed = args.threads > exec::hardware_threads();
    const std::string why = "more threads requested than the hardware has";

    std::printf("per-layer metrics (core.* and store counters from the last "
                "traced %d-thread operation):\n", threads);
    m.put("core.states", "count", states);
    m.put("core.expansions", "count", static_cast<std::int64_t>(e.schedules_expanded));
    m.put("core.dedup_hits", "count", static_cast<std::int64_t>(e.dedup_hits));
    m.put("core.accept_ratio", "ratio", states, std::max<std::int64_t>(candidates, 1),
          "states / candidates");
    m.put("core.por_skips", "count", static_cast<std::int64_t>(e.por_skips));
    if (oversubscribed) {
        m.unmeasured("core.states_per_s", why);
        m.unmeasured("core.steals", why);
    } else {
        m.put("core.states_per_s", "1/s", {states * traced.den * kNsPerS, traced.num});
        m.put("core.steals", "count", static_cast<std::int64_t>(e.parallel_steals));
    }
    m.put("sim.ghost_step_us", "us", sim.ghost_step.in(1000),
          "clone_behavior + deliver_prefix + on_step");
    m.put("sim.fork_us", "us", sim.fork.in(1000));
    m.put("sim.apply_choice_us", "us", sim.apply_choice.in(1000));
    m.put("sim.execute_us", "us", sim.execute.in(1000), "recording run to decision");
    m.put("digest.ns_per_byte", "ns/B", digest.per_byte.in(1));
    m.put("digest.fold_state_us", "us", digest.fold_state.in(1000));
    m.put("digest.key_bytes", "B", digest.key_bytes, "per sampled state");
    m.put("store.insert_ns_per_key", "ns", store.insert.in(1),
          std::to_string(store.insert.calls) + " keys");
    m.put("store.filter_fp_rate", "ratio",
          static_cast<std::int64_t>(e.filter_false_positives),
          std::max<std::int64_t>(
                  static_cast<std::int64_t>(e.filter_false_positives + e.filter_definite_new), 1));
    m.put("store.peak_resident_mb", "MB", static_cast<std::int64_t>(e.peak_resident_bytes),
          1000 * 1000);
    m.put("store.spilled_records", "count", static_cast<std::int64_t>(e.spilled_records));
    m.put("store.spill_append_ns", "ns", store.spill_append.in(1));
    m.put("store.spill_read_ns", "ns", store.spill_read.in(1));
    m.put("store.materialize_us", "us", store.materialize.in(1000));
    m.put("store.replay_steps_per_state", "ratio", static_cast<std::int64_t>(e.replay_steps),
          std::max<std::int64_t>(static_cast<std::int64_t>(e.schedules_expanded), 1));
    m.put("reduction.canon_us_per_state", "us", canon, "1 thread, symmetry on - off");
    m.put("exec.region_us", "us", region.in(1000));
    if (oversubscribed) {
        m.unmeasured("exec.speedup", why);
        m.unmeasured("exec.steals", why);
    } else {
        m.put("exec.speedup", "x", {single.ns * plain.den, plain.num},
              "1 thread / " + std::to_string(sched.size()) + " threads");
        m.put("exec.steals", "count", static_cast<std::int64_t>(exec_steals));
    }
    m.put("exec.threads", "count", sched.size());
    std::string tail_label;
    const std::int64_t tail_ns = tail(chaos.trial_ns, tail_label);
    const auto trial_count = static_cast<std::int64_t>(chaos.trial_ns.size());
    const Ratio trial = median(chaos.trial_ns);
    m.put("chaos.trial_us", "us", trial.num, trial.den * 1000,
          "median of " + std::to_string(trial_count) + " trials");
    m.put("chaos.trial_tail_us", "us", tail_ns, 1000, tail_label);
    m.put("chaos.classify_us", "us", chaos.classify.in(1000));
    m.put("chaos.faults_per_trial", "count", chaos.faults, trial_count);
    m.put("chaos.cell_s_max", "s", chaos.cell_ns_max, kNsPerS);
    m.put("trace.overhead_pct", "%", pct_over(traced, plain),
          std::to_string(traced_ns.size()) + " traced vs " +
                  std::to_string(plain_ns.size()) + " untraced");

    // Attribution of the 1-thread operation's wall time: count x
    // per-call cost for each probed layer; the rest stays visible.
    std::vector<std::pair<std::string, double>> parts;
    if (spec.sweep) {
        std::int64_t sum = 0;
        for (std::int64_t t : chaos.trial_ns) sum += t;
        parts.emplace_back("chaos.chaos_trial (mean cost)",
                           single.sweep.total_trials() * static_cast<double>(sum) /
                                   static_cast<double>(std::max<std::int64_t>(trial_count, 1)));
    } else {
        const core::ExploreResult& s1 = single.explore;
        const double c1 = static_cast<double>(s1.states_explored + s1.dedup_hits) - 1;
        parts.emplace_back("sim.ghost_step", c1 * sim.ghost_step.ns());
        parts.emplace_back("digest (fold_state + key bytes)",
                           c1 * (digest.fold_state.ns() +
                                 digest.key_bytes.value() * digest.per_byte.ns()));
        parts.emplace_back("store.insert_batch", c1 * store.insert.ns());
        parts.emplace_back("store.materialize",
                           static_cast<double>(s1.schedules_expanded) * store.materialize.ns());
        parts.emplace_back("store.spill_io",
                           static_cast<double>(s1.spilled_records) * store.spill_append.ns() +
                                   static_cast<double>(s1.spill_reads) * store.spill_read.ns());
        if (spec.mode == core::ExploreMode::kReduced)
            parts.emplace_back("reduction.canon",
                               static_cast<double>(s1.states_explored) * canon.value() * 1000);
    }
    double remainder = static_cast<double>(single.ns);
    std::printf("attribution of the 1-thread operation (%.3f s):\n",
                static_cast<double>(single.ns) / kNsPerS);
    for (const auto& [name, ns] : parts) {
        remainder -= ns;
        std::printf("  %-34s %10.3f s %7.1f %%\n", name.c_str(), ns / kNsPerS,
                    100 * ns / static_cast<double>(single.ns));
    }
    std::printf("  %-34s %10.3f s %7.1f %%\n", "(unattributed)", remainder / kNsPerS,
                100 * remainder / static_cast<double>(single.ns));
    m.put("trace.unattributed_pct", "%", std::llround(remainder * 100), single.ns);

    std::printf("span self time by name:\n");
    for (const auto& [name, ns] : tracer.self_ns_by_name())
        std::printf("  %-40s %10.3f s\n", name.c_str(), static_cast<double>(ns) / kNsPerS);
    tracer.write(args.scratch + "/trace-" + spec.name + "-" + std::to_string(args.seed) +
                 ".json");
}

int run(const Args& args) {
    const std::int64_t start = now_ns();
    const WorkloadSpec* spec = find_workload(args.workload);
    if (spec == nullptr) {
        std::fprintf(stderr, "ksa_perfbench: unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    const int nproc = exec::hardware_threads();
    const int threads = args.threads > 0 ? args.threads : std::min(4, nproc);

    const Session session = set_up(*spec, args, threads);
    const std::int64_t first_setup_ns = now_ns() - start;
    exec::TaskScheduler& sched = *session.sched;
    std::printf("workload %s  seed %llu  nproc %d  threads requested %d  "
                "effective TaskScheduler::size() %d%s\n",
                spec->name.c_str(), static_cast<unsigned long long>(args.seed), nproc,
                threads, sched.size(),
                threads > nproc ? "  (oversubscribed: multi-thread numbers unmeasured)" : "");

    bench::BenchReport report("perfbench");
    Metrics m(report);
    Tally tally{*spec, session.prepared, 0, 0, std::nullopt};
    if (args.trace == 0)
        report_untraced(m, tally, args, threads, {first_setup_ns});
    else
        report_traced(m, tally, args, threads, sched, session.prepared);
    std::printf("  error_rate = %lld failed / %lld attempted\n",
                static_cast<long long>(tally.failed), static_cast<long long>(tally.attempted));
    report.entry("run")
            .str("kind", "run")
            .num("attempted", tally.attempted)
            .num("failed", tally.failed)
            .num("nproc", nproc)
            .num("threads", threads)
            .num("effective_threads", sched.size());
    report.write(args.report);
    return 0;
}

}  // namespace

}  // namespace ksa::perfbench

int main(int argc, char** argv) {
    ksa::perfbench::now_ns();  // fix the clock origin at process start
    const auto args = ksa::perfbench::parse(argc, argv);
    if (!args) {
        std::fprintf(stderr,
                     "usage: ksa_perfbench --workload NAME --seed N --seconds S "
                     "--trace 0|1 --scratch DIR --report FILE [--threads T]\n");
        return 2;
    }
    try {
        return ksa::perfbench::run(*args);
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "ksa_perfbench: %s\n", ex.what());
        return 1;
    }
}
