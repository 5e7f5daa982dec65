// ksa_chaos: the chaos-engineering front door.
//
//   $ ksa_chaos sweep  [--min-n A] [--max-n B] [--seeds S] [--base-seed X]
//                      [--trial-budget-ms T] [--out DIR]
//       Runs the resilience sweep over the Theorem 8 grid under
//       guard-mode chaos and writes DIR/sweep.json + DIR/sweep.md
//       (default DIR = chaos-report).  Exits non-zero if any
//       solvable-side cell shows a violation.  Each trial gets a
//       wall-clock budget (default 2000 ms; 0 disables) so pathological
//       profiles degrade to inconclusive cells instead of stalling.
//
//   $ ksa_chaos byzantine-sweep [--min-n A] [--max-n B] [--seeds S]
//                      [--base-seed X] [--max-steps M]
//                      [--trial-budget-ms T] [--out DIR]
//       Runs the Byzantine resilience sweep: no crash faults, up to f
//       corrupting/equivocating victim senders per (n, k, f) cell, each
//       cell labeled with the Bouzid-Imbs-Raynal necessary condition
//       k*n > (2k+1)*f.  Writes DIR/sweep.json + DIR/sweep.md (default
//       DIR = chaos-byzantine).  Exits non-zero only if some trial went
//       unaccounted -- budget-exhausted trials degrade to inconclusive.
//
//   $ ksa_chaos demo-shrink [--out DIR]
//       Plants an agreement violation on the impossible side of the
//       boundary (n=4, k=1, f=2: 1*4 > 2*2 fails) with a partition
//       schedule under guard-mode chaos, shrinks it, and archives
//       original.run / shrunk.run / shrink.md into DIR (default
//       chaos-demo).  Both runs replay bit-identically.
//
//   $ ksa_chaos replay FILE.run [--k K]
//       Reads an archived chaos run, replays its extracted trace
//       through a fresh System, verifies byte-identity and classifies
//       the outcome.
//
//   $ ksa_chaos shrink FILE.run --k K [--out DIR]
//       Reads an archived violating run and minimizes it.
//
// replay/shrink reconstruct the algorithm from the run's recorded label
// (currently the initial-clique family, `initial-clique(L=...)`).

#include <charconv>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "algo/initial_clique.hpp"
#include "chaos/chaos_trace.hpp"
#include "chaos/fault_injector.hpp"
#include "chaos/profile.hpp"
#include "chaos/resilience.hpp"
#include "chaos/shrink.hpp"
#include "check/determinism.hpp"
#include "core/kset_spec.hpp"
#include "sim/schedulers.hpp"
#include "sim/serialize.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

namespace {

using namespace ksa;

struct Args {
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;

    static Args parse(int argc, char** argv, int from) {
        Args args;
        for (int i = from; i < argc; ++i) {
            std::string a = argv[i];
            if (a.rfind("--", 0) == 0) {
                const std::string key = a.substr(2);
                if (i + 1 < argc) {
                    args.flags[key] = argv[++i];
                } else {
                    args.flags[key] = "";
                }
            } else {
                args.positional.push_back(a);
            }
        }
        return args;
    }

    /// The integer value of --key, or `fallback` when the flag is absent.
    /// Anything but a whole int in range is a UsageError naming both.
    int geti(const std::string& key, int fallback) const {
        auto it = flags.find(key);
        return it == flags.end() ? fallback : parse_int_flag(key, it->second);
    }
    std::string get(const std::string& key, std::string fallback) const {
        auto it = flags.find(key);
        return it == flags.end() ? fallback : it->second;
    }
};

void write_file(const std::filesystem::path& path, const std::string& body) {
    std::ofstream out(path);
    out << body;
    std::cout << "  wrote " << path.string() << " (" << body.size()
              << " bytes)\n";
}

/// Reconstructs the algorithm a run was recorded against from its
/// label.  Currently understands the initial-clique family.
std::unique_ptr<Algorithm> algorithm_of(const Run& run) {
    const std::string& label = run.algorithm;
    const std::string prefix = "initial-clique(L=";
    if (label.rfind(prefix, 0) == 0) {
        const char* last = label.data() + label.size();
        int l = 0;
        const auto [end, ec] =
                std::from_chars(label.data() + prefix.size(), last, l);
        if (ec != std::errc() || std::string_view(end, last) != ")")
            throw UsageError("L is not an integer in '" + label + "'");
        return std::make_unique<algo::InitialCliqueKSet>(l);
    }
    throw UsageError("ksa_chaos: cannot reconstruct algorithm '" + label +
                     "' (supported: initial-clique(L=...))");
}

/// Byte-identity audit of a run's extracted trace.
void audit_or_die(const Algorithm& algorithm, const Run& run) {
    check::DeterminismAuditor auditor(algorithm, {});
    const check::ReplayReport report = auditor.audit_replay(run);
    if (!report.deterministic)
        throw UsageError("ksa_chaos: replay diverged: " + report.divergence);
}

int cmd_sweep(const Args& args) {
    chaos::SweepConfig config;
    config.min_n = args.geti("min-n", 2);
    config.max_n = args.geti("max-n", 7);
    config.seeds_per_cell = args.geti("seeds", 20);
    config.base_seed = static_cast<std::uint64_t>(args.geti("base-seed", 1));
    config.profile = chaos::guarded_profile(config.base_seed);
    config.trial_wall_budget_ms = args.geti("trial-budget-ms", 2000);

    std::cout << "resilience sweep: n in [" << config.min_n << ", "
              << config.max_n << "], " << config.seeds_per_cell
              << " seeds/cell, profile " << config.profile.describe() << "\n";
    const chaos::SweepReport report = chaos::resilience_sweep(config);

    const std::filesystem::path dir = args.get("out", "chaos-report");
    std::filesystem::create_directories(dir);
    write_file(dir / "sweep.json", report.to_json());
    write_file(dir / "sweep.md", report.to_markdown());

    std::cout << report.total_trials() << " trials, solvable side "
              << (report.boundary_clean() ? "clean" : "NOT CLEAN") << "\n";
    return report.boundary_clean() ? 0 : 1;
}

int cmd_byzantine_sweep(const Args& args) {
    chaos::SweepConfig config;
    config.model = chaos::SweepConfig::FaultModel::kByzantine;
    config.min_n = args.geti("min-n", 2);
    config.max_n = args.geti("max-n", 5);
    config.seeds_per_cell = args.geti("seeds", 12);
    config.base_seed = static_cast<std::uint64_t>(args.geti("base-seed", 1));
    // The per-trial victim cap is forced to each cell's f inside
    // byzantine_trial; -1 here just keeps the template profile valid.
    config.profile = chaos::byzantine_profile(config.base_seed, -1);
    config.limits.max_steps = args.geti("max-steps", 6000);
    config.trial_wall_budget_ms = args.geti("trial-budget-ms", 1000);

    std::cout << "byzantine sweep: n in [" << config.min_n << ", "
              << config.max_n << "], " << config.seeds_per_cell
              << " seeds/cell, profile " << config.profile.describe() << "\n";
    const chaos::SweepReport report = chaos::resilience_sweep(config);

    const std::filesystem::path dir = args.get("out", "chaos-byzantine");
    std::filesystem::create_directories(dir);
    write_file(dir / "sweep.json", report.to_json());
    write_file(dir / "sweep.md", report.to_markdown());

    int inconclusive = 0, violations = 0;
    for (const chaos::CellResult& c : report.cells) {
        inconclusive += c.inconclusive;
        violations += c.agreement_violations + c.validity_violations;
    }
    std::cout << report.total_trials() << " trials, " << violations
              << " spec violations witnessed, " << inconclusive
              << " inconclusive; grid "
              << (report.complete() ? "complete" : "INCOMPLETE") << "\n";
    return report.complete() ? 0 : 1;
}

/// The planted violation: impossible side of the Theorem 8 boundary
/// (n=4, f=2, k=1), partition {1,2} | {3,4}, guard-mode chaos on top.
Run planted_violation(std::uint64_t seed) {
    const int n = 4, f = 2;
    const auto algorithm = algo::make_flp_kset(n, f);  // L = 2
    PartitionScheduler partition({{1, 2}, {3, 4}});
    chaos::ChaosProfile profile = chaos::guarded_profile(seed);
    profile.duplicate_per_mille = 300;
    profile.max_duplicates = 24;
    chaos::FaultInjector injector(partition, profile);
    return execute_run(*algorithm, n, distinct_inputs(n), FailurePlan{},
                       injector);
}

int cmd_demo_shrink(const Args& args) {
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.geti("seed", 7));
    Run original = planted_violation(seed);
    const auto algorithm = algorithm_of(original);
    audit_or_die(*algorithm, original);

    const int k = 1;
    std::cout << "planted violation: " << run_summary(original) << "\n";
    const chaos::ChaosTrace trace = chaos::extract_chaos_trace(original);
    const chaos::ShrinkResult shrunk = chaos::shrink_chaos_trace(
        *algorithm, trace, chaos::violates_k_agreement(k));
    audit_or_die(*algorithm, shrunk.run);
    std::cout << shrunk.to_string() << "\n";

    const std::filesystem::path dir = args.get("out", "chaos-demo");
    std::filesystem::create_directories(dir);
    write_file(dir / "original.run", run_to_string(original));
    write_file(dir / "shrunk.run", run_to_string(shrunk.run));
    std::ostringstream md;
    md << "# Shrunk chaos counterexample\n\n"
       << "Planted on the impossible side of Theorem 8 (n=4, f=2, k=1; "
       << "1*4 > 2*2 fails), partition {1,2} | {3,4} under guard-mode "
       << "chaos, seed " << seed << ".\n\n"
       << "* " << shrunk.to_string() << "\n"
       << "* original: " << run_summary(original) << "\n"
       << "* shrunk:   " << run_summary(shrunk.run) << "\n\n"
       << "Shrunk trace:\n\n```\n"
       << trace_string(shrunk.run) << "```\n";
    write_file(dir / "shrink.md", md.str());
    return 0;
}

int cmd_replay(const Args& args) {
    if (args.positional.empty())
        throw UsageError("ksa_chaos replay: missing FILE.run");
    std::ifstream in(args.positional[0]);
    if (!in) throw UsageError("ksa_chaos: cannot open " + args.positional[0]);
    const Run run = read_run(in);
    const auto algorithm = algorithm_of(run);
    audit_or_die(*algorithm, run);
    const int k = args.geti("k", 1);
    std::cout << run_summary(run) << "\n";
    std::cout << "replay byte-identical; outcome (k=" << k
              << "): " << chaos::to_string(chaos::classify_run(run, k))
              << ", fault events: " << run.num_fault_events() << "\n";
    return 0;
}

int cmd_shrink(const Args& args) {
    if (args.positional.empty())
        throw UsageError("ksa_chaos shrink: missing FILE.run");
    std::ifstream in(args.positional[0]);
    if (!in) throw UsageError("ksa_chaos: cannot open " + args.positional[0]);
    const Run run = read_run(in);
    const auto algorithm = algorithm_of(run);
    const int k = args.geti("k", 1);
    const chaos::ShrinkResult shrunk = chaos::shrink_chaos_trace(
        *algorithm, chaos::extract_chaos_trace(run),
        chaos::violates_k_agreement(k));
    audit_or_die(*algorithm, shrunk.run);
    std::cout << shrunk.to_string() << "\n";
    const std::filesystem::path dir = args.get("out", "chaos-shrunk");
    std::filesystem::create_directories(dir);
    write_file(dir / "shrunk.run", run_to_string(shrunk.run));
    return 0;
}

int usage() {
    std::cerr << "usage: ksa_chaos "
                 "<sweep|byzantine-sweep|demo-shrink|replay|shrink> "
                 "[options]\n"
                 "  sweep           [--min-n A] [--max-n B] [--seeds S] "
                 "[--base-seed X]\n"
                 "                  [--trial-budget-ms T] [--out DIR]\n"
                 "  byzantine-sweep [--min-n A] [--max-n B] [--seeds S] "
                 "[--base-seed X]\n"
                 "                  [--max-steps M] [--trial-budget-ms T] "
                 "[--out DIR]\n"
                 "  demo-shrink     [--seed S] [--out DIR]\n"
                 "  replay          FILE.run [--k K]\n"
                 "  shrink          FILE.run [--k K] [--out DIR]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    const Args args = Args::parse(argc, argv, 2);
    try {
        if (cmd == "sweep") return cmd_sweep(args);
        if (cmd == "byzantine-sweep") return cmd_byzantine_sweep(args);
        if (cmd == "demo-shrink") return cmd_demo_shrink(args);
        if (cmd == "replay") return cmd_replay(args);
        if (cmd == "shrink") return cmd_shrink(args);
        return usage();
    } catch (const std::exception& e) {
        std::cerr << "ksa_chaos: " << e.what() << "\n";
        return 1;
    }
}
