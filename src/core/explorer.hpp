#pragma once
// Bounded exhaustive schedule exploration.
//
// The universal quantifier of an impossibility theorem ("no algorithm")
// cannot be executed, but for a *fixed* algorithm and small n the dual
// quantifier ("no schedule violates / some schedule violates") can: this
// module enumerates every adversarial schedule up to a depth bound,
// where at each step the adversary picks (a) which live process steps
// and (b) one of three delivery modes for that step -- nothing, the
// oldest buffered message, or the whole buffer.  Each mode delivers a
// prefix of the buffer, which keeps the branching factor at 3n.  The
// modes do NOT realize every schedule the paper's constructions use: a
// pasted run can deliver a set that is not a buffer prefix (the
// partition scheduler releases intra-block messages while older
// cross-block messages wait -- step 6 of the Theorem 8 border run at
// n = 4, f = 2, k = 1 does).  Every verdict below therefore holds
// against prefix delivery only.
//
// States reached by different schedules are deduplicated by
// configuration digest, so the search explores the reachable
// configuration space rather than the schedule tree.  Results:
//
//   * every decision set reachable at quiescence (the "valence" of the
//     initial configuration);
//   * a violation witness schedule if some reachable decisive state has
//     more than k distinct decisions -- the executable form of "this
//     candidate algorithm allows runs that make k-set agreement
//     impossible" (the remark after Theorem 1);
//   * whether the bound was exhaustive (no frontier node hit the depth
//     cap), in which case the absence of a violation is a *verified*
//     small-case possibility result for the fixed plan against
//     prefix-delivery adversaries -- not against every schedule.
//
// Engine (see doc/performance.md for the full design):
//
//   * the default store path (kFast, kReduced) keeps each frontier node
//     as a 16-byte delta record in the out-of-core store (src/store/)
//     and re-materializes it on one live System per worker, undoing
//     and redoing steps along an undo trail (store/rematerialize.hpp)
//     -- it never forks; candidate children are keyed by ghost
//     stepping -- one cloned behavior, no fork -- and only keys that
//     survive deduplication become records.  A node at max_depth is
//     never expanded, so it is not re-materialized either: its parent
//     classifies it (decisions, quiescence) when it keys it;
//   * the in-RAM reference (kReference) is one sequential FIFO BFS
//     whose frontier nodes are schedules: popping a node replays its
//     schedule on a fresh System, and each child is keyed as
//     System::fork() + one apply_choice on collision-free canonical
//     strings, the fork dropped at once.  It is the oracle the store
//     path is cross-checked against;
//   * the store path expands its frontier layers in parallel on the
//     work-stealing scheduler (exec/task_scheduler.hpp, via
//     exec/parallel_map.hpp) and merges them sequentially in input
//     order, so N-thread output is byte-identical to 1-thread output;
//   * deduplication keys are deterministic 128-bit hashes
//     (sim/digest.hpp) on the store path and canonical strings in the
//     reference, and every mode inserts states in the same BFS order --
//     the max_states truncation cuts the same frontier regardless of
//     mode or thread count.

#include <array>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/reduction_options.hpp"
#include "sim/behavior.hpp"
#include "sim/failure_plan.hpp"
#include "sim/run.hpp"
#include "sim/scheduler.hpp"
#include "store/store_options.hpp"

namespace ksa {
class System;
}  // namespace ksa

namespace ksa::core {

/// One process's delivery menu (see the file comment): the lengths of
/// the buffer prefixes its moves deliver -- nothing, the oldest
/// message, and the whole buffer when it holds more than one message --
/// in the canonical order every engine enumerates children in, so that
/// BFS insertion order, and with it witness selection and max_states
/// truncation, is engine-independent.  Iterable; never allocates.
struct PrefixMenu {
    static constexpr std::size_t kMaxMoves = 3;

    std::array<std::size_t, kMaxMoves> prefix{};
    std::size_t size = 0;

    const std::size_t* begin() const { return prefix.data(); }
    const std::size_t* end() const { return prefix.data() + size; }
};

/// The menu of process p in `sys`.  Empty when p cannot step, and when
/// p is a correct process that has decided and buffers nothing: such a
/// step provably changes nothing.
PrefixMenu prefix_menu(const System& sys, ProcessId p);

/// Which engine the exploration uses.  kFast and kReference produce
/// identical ExploreVerdicts on the same config (the golden equivalence
/// suite in tests/test_explorer_equiv.cpp enforces it); they differ
/// only in speed and memory.
enum class ExploreMode {
    /// The store path (default): delta-record frontier, ghost stepping
    /// and incremental 128-bit hash dedup -- kReduced with every
    /// reduction axis off (ExploreConfig::reduction is ignored).
    kFast,
    /// A sequential in-RAM BFS with canonical-string dedup: the
    /// reference the store path is cross-checked against.  A frontier
    /// node is its schedule, replayed on a fresh System when popped;
    /// each candidate child is a fork plus one step, keyed by a full
    /// string rendering and dropped at once.  Slower than the store
    /// path, bounded by RAM (the visited strings and the schedule
    /// links), collision-free by construction.  Ignores
    /// ExploreConfig::threads and ExploreConfig::store.
    kReference,
    /// The store path plus the reduction axes ExploreConfig::reduction
    /// selects (core/reduction.hpp): symmetry canonicalization of dedup
    /// keys, an observational absorption quotient (decided-process
    /// collapse + dead-message deletion) and persistent-set
    /// partial-order reduction.  UNLIKE the other modes it explores a
    /// *quotient* of the configuration space: states_explored /
    /// schedules_expanded shrink, while violation_found,
    /// reachable_decision_sets and quiescent_outcomes are preserved
    /// (exactly on exhaustive explorations; doc/performance.md spells
    /// out what weakens under max_depth / max_states truncation).
    /// With every axis off it runs exactly as kFast does.
    kReduced,
};

/// Renders an ExploreMode for reports ("fast" / "reference" /
/// "reduced").
std::string to_string(ExploreMode mode);

/// Exploration parameters.
struct ExploreConfig {
    int n = 0;
    std::vector<Value> inputs;
    FailurePlan plan;      ///< fixed crash plan (explore plans separately)
    int k = 1;             ///< violation threshold: > k distinct decisions
    int max_depth = 12;    ///< schedule length bound
    std::size_t max_states = 200000;  ///< safety cap on distinct states
    ExploreMode mode = ExploreMode::kFast;
    /// Worker threads for the store path's layer-parallel expansion
    /// (1 = sequential; kReference is always sequential and ignores
    /// it).  Output is byte-identical for every value.
    int threads = 1;
    /// Which reductions kReduced applies (ignored by every other mode,
    /// kFast included).
    ReductionOptions reduction;
    /// Sizing of the out-of-core store behind the store path
    /// (kFast/kReduced): visited-set sharding, the probabilistic dedup
    /// tier, the delta-frontier spill budget and the expansion block
    /// size.  Every knob trades CPU or resident memory only -- verdicts
    /// are identical for every setting (the equivalence suite sweeps
    /// them).  kReference ignores this: it is the deliberately simple
    /// in-RAM cross-check.
    store::StoreOptions store;
};

/// What an exploration established: the semantic result, a pure
/// function of the algorithm, the config's exploration parameters and
/// the mode.  kFast and kReference produce equal verdicts on every
/// config, and every mode's verdict is identical for every thread count
/// and store setting (the golden equivalence suite compares verdicts
/// with ==).
struct ExploreVerdict {
    std::size_t states_explored = 0;
    std::size_t schedules_expanded = 0;
    /// Candidate children rejected because their key was already in the
    /// visited set -- the edge-over-vertex surplus of the reachable
    /// graph.  In kReduced it additionally counts symmetry-orbit merges.
    std::size_t dedup_hits = 0;
    /// Step choices skipped by the reduction layer (kReduced only; 0
    /// in every other mode): persistent-set sibling moves plus the
    /// skipped moves of absorbed (decided, decisions-final) processes.
    std::size_t por_skips = 0;
    bool exhaustive = true;  ///< no node was cut off by max_depth/max_states
    bool violation_found = false;
    std::vector<StepChoice> witness;  ///< schedule reaching the violation
    /// All decision-vectors (one optional value per process, kNoValue for
    /// undecided) observed at quiescent states.
    std::set<std::vector<Value>> quiescent_outcomes;
    /// All distinct decision-value sets observed anywhere.
    std::set<std::set<Value>> reachable_decision_sets;

    friend bool operator==(const ExploreVerdict&,
                           const ExploreVerdict&) = default;

    /// One-line report.  It names the adversary class the verdict was
    /// checked against (prefix delivery, see the file comment), so no
    /// report says "no violation" without it.
    std::string summary() const;
};

/// How an exploration ran: observability that depends on the engine,
/// the machine, the timing or the store configuration, so it stays out
/// of the verdict.  The store-path engine (kFast/kReduced) fills all of
/// it; the sequential in-RAM reference leaves every field 0.
struct ExploreStats {
    /// Steals during this exploration: chunks a worker claimed from
    /// another worker slot's block (timing-dependent by design).
    std::uint64_t parallel_steals = 0;
    /// Visited-store shard count in effect (2^StoreOptions::shard_bits).
    std::size_t store_shards = 0;
    /// Dedup probes the probabilistic tier answered "definitely new"
    /// without touching the exact table.
    std::uint64_t filter_definite_new = 0;
    /// Dedup probes the filter passed through but the exact table
    /// rejected as absent -- the filter's false positives (observed
    /// FPR = fp / (fp + definite_new)).
    std::uint64_t filter_false_positives = 0;
    /// Frontier delta records spilled to disk / their byte volume.
    std::uint64_t spilled_records = 0;
    std::uint64_t spill_bytes = 0;
    // The tier counters and spill tallies above are pure functions of
    // the key/record streams, so for a fixed StoreOptions they are
    // identical across thread counts (the equivalence suite pins them);
    // the two below depend on which worker materialized which node.
    /// Delta-chain steps replayed by re-materialization (undo-trail
    /// misses).
    std::uint64_t replay_steps = 0;
    /// Spill-file block fetches during re-materialization: each is one
    /// seek and one read of up to DeltaStore::Reader::kBlockRecords
    /// records, however many spilled records it then serves.
    std::uint64_t spill_reads = 0;
    /// Peak bytes resident in the store-owned structures (visited
    /// shards + delta window), sampled per expansion block.
    std::size_t peak_resident_bytes = 0;
};

/// Exploration outcome: the verdict plus how it was reached.
struct ExploreResult : ExploreVerdict, ExploreStats {
    const ExploreVerdict& verdict() const { return *this; }
};

/// Runs the exploration for `algorithm` (which must not use a failure
/// detector -- exploring oracle nondeterminism is out of scope).  A
/// crash plan that names a process outside 1..n is a UsageError, from
/// the System every mode builds.
ExploreResult explore_schedules(const Algorithm& algorithm,
                                const ExploreConfig& config);

}  // namespace ksa::core
