#include "workloads.hpp"

#include <algorithm>
#include <random>
#include <sstream>

#include "algo/initial_clique.hpp"
#include "chaos/profile.hpp"
#include "sim/system.hpp"

namespace ksa::perfbench {

const std::vector<WorkloadSpec>& workloads() {
    static const std::vector<WorkloadSpec> table = [] {
        std::vector<WorkloadSpec> t;
        WorkloadSpec spill;
        spill.name = "reduced-n5-spill";
        spill.n = 5;
        spill.depth = 6;
        spill.mode = core::ExploreMode::kReduced;
        spill.frontier_ram_bytes = std::size_t(256) << 10;
        t.push_back(spill);

        WorkloadSpec sym;
        sym.name = "symmetric-n5";
        sym.n = 5;
        sym.depth = 6;
        sym.uniform_inputs = true;
        sym.mode = core::ExploreMode::kReduced;
        t.push_back(sym);

        WorkloadSpec fast;
        fast.name = "fast-n4";
        fast.n = 4;
        fast.depth = 8;
        fast.mode = core::ExploreMode::kFast;
        fast.pins = {104321, 104321, 327484};
        t.push_back(fast);

        WorkloadSpec sweep;
        sweep.name = "chaos-sweep";
        sweep.sweep = true;
        sweep.max_n = 7;
        sweep.seeds_per_cell = 50;
        t.push_back(sweep);
        return t;
    }();
    return table;
}

const WorkloadSpec* find_workload(const std::string& name) {
    for (const WorkloadSpec& w : workloads())
        if (w.name == name) return &w;
    return nullptr;
}

std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

namespace {

/// The seed picks the order and offset of the distinct inputs, or the
/// uniform value.  Either way the state space is isomorphic to the
/// unseeded one, so every count is seed-independent.
std::vector<Value> seeded_inputs(int n, bool uniform, std::uint64_t seed) {
    std::mt19937_64 rng(mix(seed));
    const auto offset = static_cast<Value>(rng() % 1000);
    if (uniform) return uniform_inputs(n, 1 + offset);
    std::vector<Value> inputs = distinct_inputs(n);
    for (Value& v : inputs) v += offset;
    std::shuffle(inputs.begin(), inputs.end(), rng);
    return inputs;
}

/// Cells of the crash-model sweep over n in [2, max_n].
int sweep_cells(int max_n) {
    int cells = 0;
    for (int n = 2; n <= max_n; ++n) cells += n * (n - 1);
    return cells;
}

}  // namespace

Prepared prepare(const WorkloadSpec& spec, std::uint64_t seed, int threads,
                 const std::string& spill_dir) {
    Prepared p;
    if (spec.sweep) {
        p.sweep.min_n = 2;
        p.sweep.max_n = spec.max_n;
        p.sweep.seeds_per_cell = spec.seeds_per_cell;
        p.sweep.base_seed = mix(seed ^ 0x5eedull);
        p.sweep.profile = chaos::guarded_profile(1);
        p.sweep.threads = threads;
        p.subject.algorithm = algo::make_flp_kset(5, 1);
        p.subject.n = 5;
        p.subject.inputs = seeded_inputs(5, false, seed);
        p.subject.depth = 6;
        return p;
    }
    p.algorithm = algo::make_flp_kset(spec.n, 1);
    p.explore.n = spec.n;
    p.explore.k = 1;
    p.explore.inputs = seeded_inputs(spec.n, spec.uniform_inputs, seed);
    p.explore.max_depth = spec.depth;
    p.explore.max_states = std::size_t(100) * 1000 * 1000;
    p.explore.mode = spec.mode;
    p.explore.threads = threads;
    if (spec.frontier_ram_bytes != 0)
        p.explore.store.frontier_ram_bytes = spec.frontier_ram_bytes;
    p.explore.store.spill_dir = spill_dir;
    p.subject.algorithm = algo::make_flp_kset(spec.n, 1);
    p.subject.n = spec.n;
    p.subject.inputs = p.explore.inputs;
    p.subject.depth = spec.depth;
    return p;
}

namespace {

void check_explore(const WorkloadSpec& spec, OpResult& r,
                   const std::optional<Counts>& reference) {
    std::ostringstream why;
    const core::ExploreResult& e = r.explore;
    if (e.violation_found)
        why << "violation found (Theorem 8 says k=1, f=1 is solvable); ";
    if (e.states_explored == 0) why << "no states explored; ";
    const Pins& pin = spec.pins;
    if (pin.states != 0 && (e.states_explored != pin.states ||
                            e.schedules_expanded != pin.expansions ||
                            e.dedup_hits != pin.dedup_hits))
        why << "pinned counts " << pin.states << "/" << pin.expansions << "/"
            << pin.dedup_hits << " != " << e.states_explored << "/"
            << e.schedules_expanded << "/" << e.dedup_hits << "; ";
    if (reference && !(r.counts == *reference))
        why << "counts differ from the run's first operation; ";
    r.error = why.str();
    r.ok = r.error.empty();
}

void check_sweep(const WorkloadSpec& spec, OpResult& r) {
    std::ostringstream why;
    const chaos::SweepReport& s = r.sweep;
    const int expected = sweep_cells(spec.max_n) * spec.seeds_per_cell;
    if (!s.boundary_clean()) why << "solvable-side cell not clean; ";
    if (!s.complete()) why << "unclassified trials; ";
    if (s.total_trials() != expected)
        why << s.total_trials() << " trials, expected " << expected << "; ";
    r.error = why.str();
    r.ok = r.error.empty();
}

}  // namespace

OpResult run_op(const WorkloadSpec& spec, const Prepared& prepared,
                int threads, Tracer* tracer,
                const std::optional<Counts>& reference) {
    OpResult r;
    try {
        if (spec.sweep) {
            chaos::SweepConfig cfg = prepared.sweep;
            cfg.threads = threads;
            const std::int64_t t0 = now_ns();
            {
                ScopedSpan span(tracer, "chaos.resilience_sweep");
                r.sweep = chaos::resilience_sweep(cfg);
            }
            r.ns = now_ns() - t0;
            check_sweep(spec, r);
            return r;
        }
        core::ExploreConfig cfg = prepared.explore;
        cfg.threads = threads;
        const std::int64_t t0 = now_ns();
        {
            ScopedSpan span(tracer, "core.explore_schedules");
            r.explore = core::explore_schedules(*prepared.algorithm, cfg);
        }
        r.ns = now_ns() - t0;
        const core::ExploreResult& e = r.explore;
        r.counts = {e.states_explored, e.schedules_expanded, e.dedup_hits,
                    e.por_skips, e.spilled_records};
        check_explore(spec, r, reference);
    } catch (const std::exception& ex) {
        r.ok = false;
        r.error = std::string("exception: ") + ex.what();
    }
    return r;
}

void warm_up(const WorkloadSpec& spec, const Prepared& prepared) {
    if (spec.sweep) {
        chaos::SweepConfig cfg = prepared.sweep;
        cfg.seeds_per_cell = 4;
        chaos::resilience_sweep(cfg);
        return;
    }
    // One level shallower: large enough that the explorer runs its
    // layers in parallel, as the timed operation does.  A smaller call
    // runs almost sequentially, and its time then follows the speed of
    // one core, which on a shared machine drifts by up to 2x.
    core::ExploreConfig cfg = prepared.explore;
    cfg.max_depth = std::max(1, spec.depth - 1);
    core::explore_schedules(*prepared.algorithm, cfg);
}

}  // namespace ksa::perfbench
