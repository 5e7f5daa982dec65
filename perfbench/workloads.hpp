#pragma once
// The benchmark's workloads: what set-up builds from a seed, the one
// operation each workload times, and the checks every operation passes.
//
// perfbench/README.md records why each workload was chosen.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/resilience.hpp"
#include "core/explorer.hpp"
#include "sim/behavior.hpp"
#include "trace.hpp"

namespace ksa::perfbench {

/// Exact-engine counts a workload pins (0 = not pinned).
struct Pins {
    std::size_t states = 0;
    std::size_t expansions = 0;
    std::size_t dedup_hits = 0;
};

struct WorkloadSpec {
    std::string name;
    bool sweep = false;  ///< chaos::resilience_sweep instead of an exploration
    // Explorer workloads.
    int n = 0;
    int depth = 0;
    bool uniform_inputs = false;
    core::ExploreMode mode = core::ExploreMode::kFast;
    std::size_t frontier_ram_bytes = 0;  ///< 0 = StoreOptions default
    Pins pins;
    // The sweep workload.
    int max_n = 0;
    int seeds_per_cell = 0;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// splitmix64: derives independent seeds from the workload seed.
std::uint64_t mix(std::uint64_t x);

/// What the layer probes drive: an algorithm instance, n, inputs and a
/// schedule depth.  Explorer workloads probe their own configuration;
/// the sweep probes the n=5 Theorem 8 instance.
struct Subject {
    std::unique_ptr<Algorithm> algorithm;
    int n = 0;
    std::vector<Value> inputs;
    int depth = 0;
};

/// Everything set-up builds from the seed.
struct Prepared {
    std::unique_ptr<Algorithm> algorithm;  ///< explorer workloads only
    core::ExploreConfig explore;
    chaos::SweepConfig sweep;
    Subject subject;
};

Prepared prepare(const WorkloadSpec& spec, std::uint64_t seed, int threads,
                 const std::string& spill_dir);

/// The deterministic counts of one exploration (identical for every op
/// of a run; the pins are a subset).
struct Counts {
    std::size_t states = 0, expansions = 0, dedup_hits = 0, por_skips = 0;
    std::uint64_t spilled_records = 0;
    friend bool operator==(const Counts&, const Counts&) = default;
};

struct OpResult {
    std::int64_t ns = 0;
    bool ok = true;
    std::string error;  ///< why the checks failed (empty when ok)
    core::ExploreResult explore;
    chaos::SweepReport sweep;
    Counts counts;
};

/// Runs the workload's operation once with `threads` worker threads and
/// checks its output.  `reference` (the counts of the run's first
/// operation) must repeat exactly.
OpResult run_op(const WorkloadSpec& spec, const Prepared& prepared,
                int threads, Tracer* tracer,
                const std::optional<Counts>& reference);

/// The untimed warm-up call of set-up: the same operation, smaller.
void warm_up(const WorkloadSpec& spec, const Prepared& prepared);

}  // namespace ksa::perfbench
