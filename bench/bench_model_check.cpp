// M2 -- bounded exhaustive model checking of small instances.
//
// The dual of the impossibility theorems, executed: for a fixed
// algorithm and tiny n, enumerate EVERY adversarial schedule (up to the
// bound) and report either a violation witness (impossible side: some
// schedule breaks k-agreement) or exhaustive absence of violations
// (possible side: a verified small-case instance of Theorem 8's
// possibility half for the given crash plan).
//
// Every verdict holds against prefix-delivery adversaries only: at each
// step the adversary delivers nothing, the oldest buffered message or
// the whole buffer (core/explorer.hpp).
//
// Second half: the engine comparison.  Every case is explored by every
// engine -- the in-RAM reference mode, the store path as kFast (1
// thread and N threads) and as kReduced -- with wall times and
// cross-engine agreement written to a BENCH_explorer.json artifact
// (schema: doc/performance.md).  The reference keys states on
// collision-free canonical strings, so its verdict is the oracle the
// store path's hashed keys must reproduce exactly.
//
// Usage: bench_model_check [--out FILE] [--threads N] [--quick]
//                          [--check FILE] [--deep]
//   --quick caps depths for the CI smoke (label `perf`); the committed
//   BENCH_explorer.json comes from a full run.
//   --check re-runs the full-depth cases and compares them against a
//   committed BENCH_explorer.json: every deterministic count must match
//   exactly, wall times must stay within 3x of the committed numbers
//   (sub-threshold timings are skipped -- timer noise, not regressions),
//   and the flagship's >= 2x reduction ratio is re-asserted.  This is
//   the bench-regression gate ctest runs under the `perf` label.
//   --deep appends the out-of-core flagship row: an exhaustive n=5
//   initial-clique exploration past 10^7 canonical states, run under an
//   enforced 64 MB frontier ceiling so the delta store demonstrably
//   spills (doc/performance.md §6).  It takes minutes and is
//   meant for regenerating the committed artifact, not for CI; --check
//   ignores deep rows (their counts are pinned by the committed entry
//   itself, their runtime by nobody).

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>

#include "algo/flooding.hpp"
#include "algo/initial_clique.hpp"
#include "bench_util.hpp"
#include "core/bounds.hpp"
#include "core/explorer.hpp"
#include "exec/task_scheduler.hpp"
#include "sim/system.hpp"
#include "sim/types.hpp"

namespace {

using namespace ksa;

/// Agreement criterion for the reduced engine: it explores a quotient,
/// so only the three observables are comparable.  On an exhaustive full
/// run they must match exactly; on a truncated full run (the --quick
/// smoke caps depths) the reduced engine may legitimately see MORE --
/// everything the truncated run saw must still be contained.
bool reduced_covers(const core::ExploreResult& full,
                    const core::ExploreResult& red) {
    if (full.exhaustive)
        return full.violation_found == red.violation_found &&
               full.quiescent_outcomes == red.quiescent_outcomes &&
               full.reachable_decision_sets == red.reachable_decision_sets;
    if (full.violation_found && !red.violation_found) return false;
    return std::includes(red.quiescent_outcomes.begin(),
                         red.quiescent_outcomes.end(),
                         full.quiescent_outcomes.begin(),
                         full.quiescent_outcomes.end()) &&
           std::includes(red.reachable_decision_sets.begin(),
                         red.reachable_decision_sets.end(),
                         full.reachable_decision_sets.begin(),
                         full.reachable_decision_sets.end());
}

// ---------------------------------------------------------------------
// --check mode: field scanner for the committed BENCH_explorer.json.
//
// The file is produced by this very binary through BenchReport, whose
// output shape is fixed: one flat entry object per line, `"key": value`
// pairs with numeric / boolean / quoted-string values.  That contract
// (doc/performance.md, bench_util.hpp) lets the regression gate re-read
// its own artifact with a few lines of string scanning instead of
// pulling a JSON library into the tree.  The needle includes the
// opening quote, so `"states"` never matches inside
// `"canonical_states"`.

/// Extracts the raw (unquoted-value) text of `key` from one entry line.
bool scan_raw(const std::string& line, const std::string& key,
              std::string& out) {
    const std::string needle = "\"" + key + "\": ";
    const std::size_t pos = line.find(needle);
    if (pos == std::string::npos) return false;
    const std::size_t start = pos + needle.size();
    const std::size_t end = line.find_first_of(",}", start);
    if (end == std::string::npos) return false;
    out = line.substr(start, end - start);
    return true;
}

/// Extracts a numeric field.
bool scan_num(const std::string& line, const std::string& key, double& out) {
    std::string raw;
    if (!scan_raw(line, key, raw)) return false;
    out = std::strtod(raw.c_str(), nullptr);
    return true;
}

/// Extracts a boolean field.
bool scan_bool(const std::string& line, const std::string& key, bool& out) {
    std::string raw;
    if (!scan_raw(line, key, raw)) return false;
    out = raw == "true";
    return true;
}

/// Extracts a quoted string field (used for "name"; entry names may
/// contain commas, so this stops at the closing quote, not at `,`).
bool scan_str(const std::string& line, const std::string& key,
              std::string& out) {
    const std::string needle = "\"" + key + "\": \"";
    const std::size_t pos = line.find(needle);
    if (pos == std::string::npos) return false;
    const std::size_t start = pos + needle.size();
    const std::size_t end = line.find('"', start);
    if (end == std::string::npos) return false;
    out = line.substr(start, end - start);
    return true;
}

/// Timing tolerance of the regression gate: a current wall time may be
/// at most this multiple of the committed one.  3x absorbs machine and
/// load variation while still catching an accidentally quadratic hot
/// path or a lost reduction axis.
constexpr double kTimeToleranceX = 3.0;
/// Committed timings below this are not enforced: for sub-5ms cases a
/// cold cache or one scheduler hiccup exceeds 3x without any real
/// regression, and the exact state counts already pin their behaviour.
constexpr double kTimeFloorMs = 5.0;

}  // namespace

int main(int argc, char** argv) try {
    using namespace ksa;

    std::string out_path;
    std::string check_path;
    int threads = exec::hardware_threads();
    bool quick = false;
    bool deep = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out_path = argv[++i];
        else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
            threads = bench::parse_threads(argv[++i]);
        else if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc)
            check_path = argv[++i];
        else if (std::strcmp(argv[i], "--deep") == 0)
            deep = true;
        else {
            std::cerr << "usage: bench_model_check [--out FILE] "
                         "[--threads N] [--quick] [--check FILE] [--deep]\n";
            return 2;
        }
    }
    // The regression gate compares full-depth counts; --quick would
    // change every number it checks.
    if (!check_path.empty()) quick = false;

    if (check_path.empty()) {
        std::cout << "M2: bounded exhaustive schedule exploration\n\n";
        std::cout << std::left << std::setw(26) << "algorithm" << std::right
                  << std::setw(4) << "n" << std::setw(4) << "k" << std::setw(7)
                  << "dead" << std::setw(10) << "states" << std::setw(9)
                  << "exhst" << std::setw(11) << "violation" << std::setw(12)
                  << "expected\n";
    }

    struct Case {
        std::unique_ptr<Algorithm> algorithm;
        int n;
        int k;
        std::vector<ProcessId> dead;
        int depth;
        bool expect_violation;
        /// Timing repetitions: sub-millisecond cases repeat the
        /// exploration and report the mean, so the engine comparison is
        /// not dominated by timer resolution.
        int reps;
        const char* why;
        /// Uniform inputs (all processes propose the same value) open
        /// the full symmetric group for the reduced engine's symmetry
        /// axis; the default distinct inputs leave it trivial.
        bool uniform_inputs = false;
    };
    std::vector<Case> cases;
    // Impossible side: flooding is no consensus protocol (k=1, f=1).
    cases.push_back({std::make_unique<algo::FloodingKSet>(2), 3, 1, {}, 10,
                     true, 5, "flooding != consensus"});
    // Flooding does achieve 2-set agreement at n=3, f=1: no schedule
    // reaches 3 distinct decisions while respecting the threshold.
    cases.push_back({std::make_unique<algo::FloodingKSet>(2), 3, 2, {}, 10,
                     false, 5, "flooding = (f+1)-set"});
    // Possible side: the FLP protocol with one initial crash stays
    // consensus under EVERY schedule (Theorem 8, k=1, n=3, f=1).
    cases.push_back({algo::make_flp_kset(3, 1), 3, 1, {3}, 14, false, 30,
                     "Thm 8 possibility"});
    cases.push_back({algo::make_flp_kset(3, 1), 3, 1, {}, 14, false, 3,
                     "Thm 8, no crash"});
    // k-set generalization: L=2 on n=4 bounds decisions by 2.
    cases.push_back({algo::make_flp_kset(4, 2), 4, 2, {1, 2}, 12, false, 30,
                     "Thm 8, k=2"});
    // Trivial protocol: n distinct decisions immediately.
    cases.push_back({std::make_unique<algo::TrivialWaitFree>(), 3, 2, {}, 4,
                     true, 100, "n-set only"});
    // Symmetric instance: same protocol, uniform inputs.  The full
    // engines see the identical 3430-state space (they key on ids);
    // the reduced engine's symmetry axis gets the whole S_3 to quotient
    // by and collapses it by an order of magnitude.
    cases.push_back({algo::make_flp_kset(3, 1), 3, 1, {}, 14, false, 3,
                     "Thm 8, uniform inputs", true});

    auto config_for = [&](const Case& c) {
        core::ExploreConfig cfg;
        cfg.n = c.n;
        cfg.inputs = c.uniform_inputs ? std::vector<Value>(c.n, 1)
                                      : distinct_inputs(c.n);
        cfg.plan.set_initially_dead(c.dead);
        cfg.k = c.k;
        cfg.max_depth = quick ? std::min(c.depth, 8) : c.depth;
        cfg.max_states = 400000;
        return cfg;
    };

    // ------------------------------------------------------------------
    // --check: bench-regression gate against a committed report.
    if (!check_path.empty()) {
        std::ifstream in(check_path);
        if (!in) {
            std::cerr << "cannot open " << check_path << "\n";
            return 2;
        }
        std::map<std::string, std::string> committed;  // name -> entry line
        std::string line;
        while (std::getline(in, line)) {
            std::string name;
            if (scan_str(line, "name", name)) committed[name] = line;
        }

        std::cout << "bench regression check against " << check_path << "\n"
                  << "counts must match the committed report exactly; "
                  << "timings within " << kTimeToleranceX << "x (committed >= "
                  << kTimeFloorMs << " ms only)\n\n";
        std::cout << std::left << std::setw(26) << "case" << std::right
                  << std::setw(10) << "states" << std::setw(10) << "canon"
                  << std::setw(10) << "fast ms" << std::setw(10) << "red ms"
                  << std::setw(8) << "gate\n";

        bool ok = true;
        for (const Case& c : cases) {
            const auto it = committed.find(c.why);
            if (it == committed.end()) {
                std::cout << "[" << c.why << "] MISSING from committed report\n";
                ok = false;
                continue;
            }
            const std::string& entry = it->second;
            bool case_ok = true;
            auto fail = [&](const std::string& what) {
                std::cout << "[" << c.why << "] REGRESSION: " << what << "\n";
                case_ok = false;
            };

            core::ExploreConfig cfg = config_for(c);
            cfg.threads = 1;
            core::ExploreResult fast_r, red_r, red_mt_r;
            // Best-of-3 wall times: the gate compares against committed
            // single-machine numbers, so take the least noisy sample.
            double fast_ms = 1e300, reduced_ms = 1e300;
            double reduced_mt_ms = 1e300;
            cfg.mode = core::ExploreMode::kFast;
            for (int r = 0; r < 3; ++r)
                fast_ms = std::min(fast_ms, ksa::bench::time_call_ms([&] {
                              fast_r = core::explore_schedules(*c.algorithm,
                                                               cfg);
                          }));
            cfg.mode = core::ExploreMode::kReduced;
            for (int r = 0; r < 3; ++r)
                reduced_ms =
                    std::min(reduced_ms, ksa::bench::time_call_ms([&] {
                                 red_r = core::explore_schedules(*c.algorithm,
                                                                 cfg);
                             }));
            cfg.threads = threads;
            for (int r = 0; r < 3; ++r)
                reduced_mt_ms =
                    std::min(reduced_mt_ms,
                             ksa::bench::time_call_ms([&] {
                                 red_mt_r = core::explore_schedules(
                                     *c.algorithm, cfg);
                             }));

            // Deterministic counts: exact match, no tolerance.
            const std::pair<const char*, std::uint64_t> counts[] = {
                {"states", fast_r.states_explored},
                {"expansions", fast_r.schedules_expanded},
                {"canonical_states", red_r.states_explored},
                {"reduced_expansions", red_r.schedules_expanded},
                {"por_skips", red_r.por_skips},
                {"dedup_hits", red_r.dedup_hits},
                // Store-tier counters are part of the determinism
                // contract (visited_store.hpp): pure functions of the
                // key stream, thread-count invariant, so they are
                // pinned exactly like the state counts.
                {"filter_definite_new", red_r.filter_definite_new},
                {"filter_false_positives", red_r.filter_false_positives},
                {"spilled_records", red_r.spilled_records},
            };
            for (const auto& [key, got] : counts) {
                double want = 0;
                if (!scan_num(entry, key, want))
                    fail(std::string(key) + " missing from committed entry");
                else if (static_cast<double>(got) != want)
                    fail(std::string(key) + " = " + std::to_string(got) +
                         ", committed " + std::to_string(want));
            }
            bool want_violation = false;
            if (!scan_bool(entry, "violation", want_violation))
                fail("violation missing from committed entry");
            else if (fast_r.violation_found != want_violation)
                fail("violation verdict flipped");
            if (!reduced_covers(fast_r, red_r))
                fail("reduced engine no longer covers the fast engine");
            if (red_r.verdict() != red_mt_r.verdict())
                fail("reduced engine differs across thread counts");

            // Timing regression: current <= 3x committed, above the floor.
            const std::pair<const char*, double> timings[] = {
                {"fast_ms", fast_ms},
                {"reduced_ms", reduced_ms},
                {"reduced_mt_ms", reduced_mt_ms},
            };
            for (const auto& [key, got_ms] : timings) {
                double want_ms = 0;
                if (!scan_num(entry, key, want_ms))
                    fail(std::string(key) + " missing from committed entry");
                else if (want_ms >= kTimeFloorMs &&
                         got_ms > kTimeToleranceX * want_ms)
                    fail(std::string(key) + " = " + std::to_string(got_ms) +
                         " ms, committed " + std::to_string(want_ms) +
                         " ms (limit " +
                         std::to_string(kTimeToleranceX * want_ms) + " ms)");
            }

            // The flagship acceptance criterion stays pinned: wherever
            // the committed report claims a >= 2x reduction, a fresh run
            // must still achieve one.
            double want_ratio = 0;
            if (scan_num(entry, "reduction_ratio", want_ratio) &&
                want_ratio >= 2.0) {
                const double got_ratio =
                    red_r.schedules_expanded > 0
                        ? static_cast<double>(fast_r.schedules_expanded) /
                              static_cast<double>(red_r.schedules_expanded)
                        : 0.0;
                if (got_ratio < 2.0)
                    fail("reduction ratio fell below 2x (got " +
                         std::to_string(got_ratio) + ")");
            }

            std::cout << std::left << std::setw(26) << c.why << std::right
                      << std::setw(10) << fast_r.states_explored
                      << std::setw(10) << red_r.states_explored
                      << std::setw(10) << std::fixed << std::setprecision(1)
                      << fast_ms << std::setw(10) << reduced_ms
                      << std::setw(8) << (case_ok ? "ok" : "FAIL") << "\n";
            std::cout.unsetf(std::ios::fixed);
            ok = ok && case_ok;
        }
        std::cout << "\n"
                  << (ok ? "bench regression check passed"
                         : "BENCH REGRESSION DETECTED")
                  << "\n";
        return ok ? 0 : 1;
    }

    bool all = true;
    for (const Case& c : cases) {
        core::ExploreConfig cfg = config_for(c);
        cfg.threads = threads;
        core::ExploreResult r = core::explore_schedules(*c.algorithm, cfg);
        // Quick mode caps depths, so exhaustiveness and violation
        // expectations (which assume the full depth) are not enforced.
        const bool as_expected =
            quick || r.violation_found == c.expect_violation;
        all = all && as_expected &&
              (quick || r.exhaustive || r.violation_found);
        std::cout << std::left << std::setw(26) << c.algorithm->name()
                  << std::right << std::setw(4) << c.n << std::setw(4) << c.k
                  << std::setw(7) << c.dead.size() << std::setw(10)
                  << r.states_explored << std::setw(9)
                  << (r.exhaustive ? "yes" : "cut") << std::setw(11)
                  << (r.violation_found ? "FOUND" : "none") << std::setw(12)
                  << (as_expected ? "matches" : "MISMATCH") << "  ["
                  << c.why << "]\n";
    }
    std::cout << "\n"
              << (all ? "every verdict matches the theory "
                        "(prefix-delivery adversary)"
                      : "MISMATCH AGAINST THEORY")
              << "\n";

    // ------------------------------------------------------------------
    // Engine comparison.
    std::cout << "\nengine comparison (reference vs store path, "
              << threads << " threads)\n\n";
    std::cout << std::left << std::setw(26) << "case" << std::right
              << std::setw(7) << "depth" << std::setw(10) << "states"
              << std::setw(10) << "ref ms" << std::setw(10) << "fast ms"
              << std::setw(11) << "fast-N ms" << std::setw(8) << "agree\n";

    ksa::bench::BenchReport report("explorer");
    bool engines_agree = true;
    /// Reduction-engine rows, collected during the main loop and
    /// printed as a dedicated table after it.
    struct ReducedRow {
        const char* why;
        std::size_t fast_expansions;
        std::size_t canonical_states;
        std::size_t por_skips;
        std::size_t dedup_hits;
        double reduced_ms;
        double reduced_mt_ms;
        double fast_ms;
        double ratio;
        bool covers;
    };
    std::vector<ReducedRow> reduced_rows;
    for (const Case& c : cases) {
        core::ExploreConfig cfg = config_for(c);
        const int reps = quick ? 1 : c.reps;

        core::ExploreResult ref_r, fast_r, fast_mt_r;
        cfg.mode = core::ExploreMode::kReference;
        cfg.threads = 1;
        const double ref_ms =
            ksa::bench::time_call_ms([&] {
                for (int r = 0; r < reps; ++r)
                    ref_r = core::explore_schedules(*c.algorithm, cfg);
            }) /
            reps;
        cfg.mode = core::ExploreMode::kFast;
        cfg.threads = 1;
        const double fast_ms =
            ksa::bench::time_call_ms([&] {
                for (int r = 0; r < reps; ++r)
                    fast_r = core::explore_schedules(*c.algorithm, cfg);
            }) /
            reps;
        cfg.threads = threads;
        const double fast_mt_ms =
            ksa::bench::time_call_ms([&] {
                for (int r = 0; r < reps; ++r)
                    fast_mt_r = core::explore_schedules(*c.algorithm, cfg);
            }) /
            reps;

        core::ExploreResult red_r, red_mt_r;
        cfg.mode = core::ExploreMode::kReduced;
        cfg.threads = 1;
        const double reduced_ms =
            ksa::bench::time_call_ms([&] {
                for (int r = 0; r < reps; ++r)
                    red_r = core::explore_schedules(*c.algorithm, cfg);
            }) /
            reps;
        cfg.threads = threads;
        const double reduced_mt_ms =
            ksa::bench::time_call_ms([&] {
                for (int r = 0; r < reps; ++r)
                    red_mt_r = core::explore_schedules(*c.algorithm, cfg);
            }) /
            reps;

        // Thread-count identity inside the reduced engine is exact --
        // same quotient, same counts, same witness -- unlike the
        // quotient-vs-full comparison below, which only shares
        // observables.
        const bool red_mt_ok = red_r.verdict() == red_mt_r.verdict();
        const bool red_ok = reduced_covers(fast_r, red_r) && red_mt_ok;
        const double red_ratio =
            red_r.schedules_expanded > 0
                ? static_cast<double>(fast_r.schedules_expanded) /
                      static_cast<double>(red_r.schedules_expanded)
                : 0.0;
        reduced_rows.push_back({c.why, fast_r.schedules_expanded,
                                red_r.states_explored, red_r.por_skips,
                                red_r.dedup_hits, reduced_ms, reduced_mt_ms,
                                fast_ms, red_ratio, red_ok});

        const bool agree = ref_r.verdict() == fast_r.verdict() &&
                           ref_r.verdict() == fast_mt_r.verdict() && red_ok;
        engines_agree = engines_agree && agree;

        std::cout << std::left << std::setw(26) << c.why << std::right
                  << std::setw(7) << cfg.max_depth << std::setw(10)
                  << fast_r.states_explored << std::setw(10) << std::fixed
                  << std::setprecision(1) << ref_ms << std::setw(10)
                  << fast_ms << std::setw(11) << fast_mt_ms << std::setw(8)
                  << (agree ? "yes" : "NO") << "\n";
        std::cout.unsetf(std::ios::fixed);

        report.entry(c.why)
            .str("algorithm", c.algorithm->name())
            .num("n", c.n)
            .num("k", c.k)
            .num("dead", c.dead.size())
            .num("max_depth", cfg.max_depth)
            .num("timing_reps", reps)
            .num("states", fast_r.states_explored)
            .num("expansions", fast_r.schedules_expanded)
            .boolean("violation", fast_r.violation_found)
            .num("threads", threads)
            .num("reference_ms", ref_ms)
            .num("fast_ms", fast_ms)
            .num("fast_mt_ms", fast_mt_ms)
            .boolean("engines_agree", agree)
            .num("reduced_ms", reduced_ms)
            .num("reduced_mt_ms", reduced_mt_ms)
            .num("canonical_states", red_r.states_explored)
            .num("reduced_expansions", red_r.schedules_expanded)
            .num("por_skips", red_r.por_skips)
            .num("dedup_hits", red_r.dedup_hits)
            .num("reduction_ratio", red_ratio)
            .boolean("reduced_agrees", red_ok)
            // Out-of-core store observability (deterministic tallies;
            // replay_steps / spill_reads are timing-dependent and
            // deliberately excluded, like steal counts).
            .num("store_shards", red_r.store_shards)
            .num("filter_definite_new", red_r.filter_definite_new)
            .num("filter_false_positives", red_r.filter_false_positives)
            .num("spilled_records", red_r.spilled_records)
            .num("spill_bytes", red_r.spill_bytes)
            .num("peak_resident_kb", red_r.peak_resident_bytes / 1024);
    }
    // ------------------------------------------------------------------
    // Reduction engine: quotient sizes and agreement (observables only;
    // counts are SUPPOSED to shrink).
    std::cout << "\nreduction engine (kReduced vs kFast; red-N = " << threads
              << " threads)\n\n";
    std::cout << std::left << std::setw(26) << "case" << std::right
              << std::setw(10) << "fast exp" << std::setw(10) << "red exp"
              << std::setw(8) << "ratio" << std::setw(10) << "por skip"
              << std::setw(9) << "dedup" << std::setw(10) << "fast ms"
              << std::setw(9) << "red ms" << std::setw(10) << "red-N ms"
              << std::setw(8) << "agree\n";
    for (const ReducedRow& row : reduced_rows) {
        std::cout << std::left << std::setw(26) << row.why << std::right
                  << std::setw(10) << row.fast_expansions << std::setw(10)
                  << row.canonical_states << std::setw(7) << std::fixed
                  << std::setprecision(1) << row.ratio << "x" << std::setw(10)
                  << row.por_skips << std::setw(9) << row.dedup_hits
                  << std::setw(10) << row.fast_ms << std::setw(9)
                  << row.reduced_ms << std::setw(10) << row.reduced_mt_ms
                  << std::setw(8) << (row.covers ? "yes" : "NO") << "\n";
        std::cout.unsetf(std::ios::fixed);
    }

    std::cout << "\n"
              << (engines_agree
                      ? "all engines agree bit-identically on every case"
                      : "ENGINE DISAGREEMENT -- the store path is wrong")
              << "\n";

    // ------------------------------------------------------------------
    // --deep: the out-of-core flagship row.  An n=5 initial-clique
    // instance whose quotient space passes 10^7 canonical states before
    // exhausting -- two orders of magnitude past what the in-RAM
    // frontier could hold -- explored under an enforced 64 MB frontier
    // ceiling so the run demonstrably spills and re-materializes
    // (doc/performance.md §6).  Single repetition (it runs for tens of
    // minutes); the deterministic counts in the committed entry are the
    // regression anchor, not the wall time.
    bool deep_ok = true;
    if (deep && check_path.empty()) {
        std::cout << "\nout-of-core flagship (--deep): n=5 initial clique, "
                  << "64 MB frontier ceiling\n";
        auto algorithm = algo::make_flp_kset(5, 1);
        core::ExploreConfig cfg;
        cfg.n = 5;
        cfg.inputs = distinct_inputs(5);
        cfg.k = 1;
        cfg.max_depth = 20;
        cfg.max_states = 100u * 1000 * 1000;
        cfg.mode = core::ExploreMode::kReduced;
        cfg.threads = threads;
        cfg.store.frontier_ram_bytes = std::size_t(64) << 20;
        core::ExploreResult r;
        const double deep_ms = ksa::bench::time_call_ms(
            [&] { r = core::explore_schedules(*algorithm, cfg); });
        deep_ok = r.exhaustive && !r.violation_found &&
                  r.states_explored >= 10u * 1000 * 1000;
        std::cout << "  canonical states " << r.states_explored
                  << ", expansions " << r.schedules_expanded << ", "
                  << (r.exhaustive ? "exhaustive" : "TRUNCATED") << ", "
                  << (r.violation_found ? "VIOLATION" : "no violation")
                  << " (prefix-delivery adversary)\n  spilled "
                  << r.spilled_records << " records ("
                  << r.spill_bytes / (1024 * 1024) << " MB), peak resident "
                  << r.peak_resident_bytes / (1024 * 1024) << " MB, "
                  << std::fixed << std::setprecision(0) << deep_ms / 1000.0
                  << " s\n"
                  << (deep_ok ? "  deep row ok"
                              : "  DEEP ROW FAILED ACCEPTANCE")
                  << "\n";
        std::cout.unsetf(std::ios::fixed);
        report.entry("out-of-core, n=5 deep")
            .str("algorithm", algorithm->name())
            .num("n", 5)
            .num("k", 1)
            .num("dead", 0)
            .num("max_depth", cfg.max_depth)
            .num("timing_reps", 1)
            .num("threads", threads)
            .num("hardware_threads", exec::hardware_threads())
            .boolean("violation", r.violation_found)
            .boolean("exhaustive", r.exhaustive)
            .num("canonical_states", r.states_explored)
            .num("reduced_expansions", r.schedules_expanded)
            .num("por_skips", r.por_skips)
            .num("dedup_hits", r.dedup_hits)
            .num("reduced_ms", deep_ms)
            .num("store_shards", r.store_shards)
            .num("filter_definite_new", r.filter_definite_new)
            .num("filter_false_positives", r.filter_false_positives)
            .num("frontier_ram_mb", cfg.store.frontier_ram_bytes >> 20)
            .num("spilled_records", r.spilled_records)
            .num("spill_bytes", r.spill_bytes)
            .num("peak_resident_kb", r.peak_resident_bytes / 1024);
    }

    if (!out_path.empty()) report.write(out_path);
    return all && engines_agree && deep_ok ? 0 : 1;
} catch (const ksa::Error& e) {
    std::cerr << "bench_model_check: " << e.what() << "\n";
    return 2;
}
