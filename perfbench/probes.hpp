#pragma once
// Isolated layer probes for the traced run.
//
// Each probe drives one layer's public functions on states reached by
// seeded random schedules of the workload's own algorithm, n and inputs
// (the Subject), and returns a per-call cost: the median over a few
// batches of a fixed call count.  Every batch -- or, for calls slow
// enough to time alone, every call -- is a span in the run's Tracer.
//
// Built from public headers only.  The reduction layer is private
// (src/lint/layers.def), so it is measured through its public switch,
// core::ReductionOptions::symmetry.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace ksa::exec {
class TaskScheduler;
}  // namespace ksa::exec

namespace ksa::perfbench {

/// Per-call cost: the median time of a batch of `calls` calls.
struct PerCall {
    Ratio batch_ns;
    std::int64_t calls = 1;
    double ns() const { return batch_ns.value() / static_cast<double>(calls); }
    /// As a metric in ns (unit_ns = 1) or us (unit_ns = 1000).
    Ratio in(std::int64_t unit_ns) const {
        return {batch_ns.num, batch_ns.den * calls * unit_ns};
    }
};

struct ProbeEnv {
    const Subject& subject;
    std::mt19937_64& rng;
    Tracer* tracer;
    exec::TaskScheduler& sched;  ///< the run's N-thread scheduler
    std::string spill_dir;
};

struct SimCosts {
    PerCall ghost_step, fork, apply_choice, execute;
};
SimCosts probe_sim(ProbeEnv& env);

struct DigestCosts {
    PerCall per_byte;    ///< StateHasher::bytes
    PerCall fold_state;  ///< Behavior::fold_state into a fresh hasher
    Ratio key_bytes;     ///< bytes a hashed state key feeds, per state
};
DigestCosts probe_digest(ProbeEnv& env);

struct StoreCosts {
    PerCall insert;        ///< ShardedVisitedStore::insert_batch, per key
    PerCall spill_append;  ///< DeltaStore::append with a tiny RAM window
    PerCall spill_read;    ///< DeltaStore::Reader::get of a spilled id
    PerCall materialize;   ///< Rematerializer::materialize, BFS id order
};
/// `keys` candidate keys of which a fraction `accept` is new.
StoreCosts probe_store(ProbeEnv& env, std::int64_t keys, Ratio accept);

/// Per-state cost of symmetry canonicalization: the per-state wall time
/// of a 1-thread kReduced exploration with symmetry on minus with it
/// off, at `depth`, each side the median of five alternating rounds.
Ratio probe_canon(ProbeEnv& env, int depth);

/// One empty TaskScheduler::run_chunked round trip.
PerCall probe_region(ProbeEnv& env);

struct ChaosCosts {
    std::vector<std::int64_t> trial_ns;  ///< every chaos_trial call
    PerCall classify;
    std::int64_t faults = 0;
    std::int64_t cell_ns_max = 0;
};
struct Cell {
    int n = 0, k = 0, f = 0;
};
/// Runs `trials` chaos trials of every (n, k, f) cell in `cells`, one
/// after another on the calling thread: per-trial costs are then
/// single-thread costs, like those of the attributed 1-thread operation.
ChaosCosts probe_chaos(ProbeEnv& env, const std::vector<Cell>& cells,
                       int trials);

}  // namespace ksa::perfbench
