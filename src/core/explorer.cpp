#include "core/explorer.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "core/ghost_step.hpp"
#include "core/reduction.hpp"
#include "exec/parallel_map.hpp"
#include "exec/task_scheduler.hpp"
#include "sim/digest.hpp"
#include "sim/system.hpp"
#include "sim/text_writer.hpp"
#include "store/delta_store.hpp"
#include "store/rematerialize.hpp"
#include "store/visited_store.hpp"

namespace ksa::core {

PrefixMenu prefix_menu(const System& sys, ProcessId p) {
    PrefixMenu menu;
    if (!sys.can_step(p)) return menu;
    const std::size_t buffered = sys.buffer(p).size();
    // Skip steps that provably change nothing: a decided correct
    // process with an empty buffer.
    if (buffered == 0 && sys.decision_of(p) && !sys.plan().is_faulty(p))
        return menu;
    menu.prefix[menu.size++] = 0;
    if (buffered >= 1) menu.prefix[menu.size++] = 1;
    if (buffered > 1) menu.prefix[menu.size++] = buffered;
    return menu;
}

namespace {

// ---------------------------------------------------------------------
// Shared predicates (identical across all engines).

bool quiescent(const System& sys, const ExploreConfig& cfg) {
    for (ProcessId p = 1; p <= cfg.n; ++p) {
        if (cfg.plan.is_faulty(p)) {
            if (sys.can_step(p)) return false;
        } else {
            if (!sys.decision_of(p) || !sys.buffer(p).empty()) return false;
        }
    }
    return true;
}

std::set<Value> decision_set(const System& sys, int n) {
    std::set<Value> out;
    for (ProcessId p = 1; p <= n; ++p) {
        auto d = sys.decision_of(p);
        if (d) out.insert(*d);
    }
    return out;
}

/// The outcome vector a quiescent configuration records: each process's
/// decision, kNoValue where it has none.
std::vector<Value> outcome_of(const System& sys, int n) {
    std::vector<Value> out(static_cast<std::size_t>(n), kNoValue);
    for (ProcessId p = 1; p <= n; ++p)
        if (auto d = sys.decision_of(p)) out[p - 1] = *d;
    return out;
}

// ---------------------------------------------------------------------
// State keys.
//
// All engines deduplicate on the same logical state:
//
//   per process: crash flag, decision (if any), buffer contents in
//   arrival order (sender + payload; message ids are simulator
//   bookkeeping and intentionally excluded so content-equal states
//   reached by different schedules deduplicate), and -- iff the process
//   has stepped at least once -- its canonical behavior digest.
//
// "Iff stepped" is the convention every engine keys on: an unstepped
// process contributes no behavior state (the empty string in the
// reference's canonical strings, an unset BehaviorMark on the store
// path), so it keys apart from a stepped process whose local state
// equals its initial one.  Every engine follows it exactly, so all
// modes partition the state space identically, state counts match, and
// the golden equivalence suite can require equal verdicts.  The counts
// BENCH_explorer.json pins rest on it too.
//
// A behavior digest walks the whole local state of its process.  A
// child configuration differs from its parent by exactly one step of
// one process, so the engines re-render only the stepped process's
// entry: the reference renders a popped node's n digests once, the
// store path carries them along its undo trail, and a child's key costs
// one behavior rendering, not n.

/// Canonical string key (reference mode).  `digests[p-1]` must be
/// steps_of(p) > 0 ? last_digest(p) : "" (the iff-stepped convention).
std::string canonical_state_string(const System& sys, int n,
                                   const std::vector<std::string>& digests) {
    std::string key;
    TextWriter out(key);
    for (ProcessId p = 1; p <= n; ++p) {
        out << '|' << (sys.crashed(p) ? "X" : "");
        auto d = sys.decision_of(p);
        if (d) out << "D" << *d;
        out << ';';
        for (const Message& m : sys.buffer(p)) {
            out << m.from << ':';
            m.payload->render(out);
            out << ',';
        }
    }
    out << '#';
    for (const std::string& d : digests) out << d << '|';
    return key;
}

/// The store path keys behavior state on behavior_hash()
/// (sim/behavior.hpp) instead of digest strings; the fold_state
/// contract ("distinguishes exactly what state_digest distinguishes")
/// makes the partition identical to the reference mode's, modulo hash
/// collisions.  Buffered messages are keyed by core/reduction.hpp's
/// message_digest.
///
/// Per-process behavior-state entry and per-node buffered-message
/// digest cache of a hashed key: shared with the out-of-core store
/// (src/store/rematerialize.hpp), whose delta-replay path advances the
/// same caches the in-RAM frontier used to carry per node.
using store::BehaviorMark;
using store::MessageHashes;

// ---------------------------------------------------------------------
// Ghost stepping (store path).
//
// The reference forks and destroys a System for every candidate child,
// most of which deduplication then rejects (the reachable graph has far
// more edges than vertices).
// The store path therefore computes a child's dedup key WITHOUT
// forking: it clones only the stepping process's behavior, runs the
// step on the clone, and hashes the parent's configuration with the
// step's effects patched in -- p's delivered prefix removed from its
// buffer, the step's surviving sends appended to their destination
// buffers, p's decision/crash flag/behavior digest updated.  An
// accepted child is never realized either: it is a 16-byte delta
// record (src/store/), redone on its worker's live System only when its
// own expansion comes up.  The ghost step itself, and the per-worker
// memo of local transitions that serves most candidates without
// stepping, live in core/ghost_step.hpp.

/// True iff the ghost step `g` reaches its node's own configuration: it
/// delivers nothing, sends nothing and decides nothing, it is not its
/// process's final crash step, and it leaves the process's behavior
/// digest where the node's mark `m` has it (an unstepped process's
/// first step changes its stepped flag, so the process must have
/// stepped before).  The child's key is then the node's key, which the
/// visited store already holds (doc/performance.md §2.2).
bool stutters(const GhostStep& g, const BehaviorMark& m) {
    return g.delivered == 0 && g.sends.empty() && !g.decision &&
           !g.final_crash && m.stepped && g.bhash == m.hash;
}

/// One process of the node being expanded, read from its System once
/// per node.  The child layouts, the persistent-set test and the leaf
/// classifier read these for every candidate instead of asking the
/// System, whose accessors check the process id out of line (and
/// `crashed` looks the plan up in a std::map) on every call.
struct NodeProcess {
    std::optional<Value> decision;
    const Behavior* behavior = nullptr;
    bool crashed = false;
    bool can_step = false;
    bool faulty = false;  ///< in the crash plan
};

/// Fills `procs` with the processes of the node `sys`.
void read_processes(const System& sys, int n,
                    std::vector<NodeProcess>& procs) {
    procs.resize(static_cast<std::size_t>(n));
    for (ProcessId q = 1; q <= n; ++q) {
        NodeProcess& f = procs[q - 1];
        f.decision = sys.decision_of(q);
        f.behavior = &sys.behavior_of(q);
        f.crashed = sys.crashed(q);
        f.can_step = sys.can_step(q);
        f.faulty = sys.plan().is_faulty(q);
    }
}

/// Lays out the child configuration the ghost step `g` of `stepper`
/// reaches from `node` (ChildLayout, core/reduction.hpp): the one place
/// where a move meets the key.  `procs` are the node's processes
/// (read_processes) and `node` carries its trail caches.  The stepper's
/// delivered prefix leaves its buffer, the step's surviving sends join
/// their receivers' buffers behind the survivors in emission order (as
/// apply_choice appends them), and the stepper's decision, crash flag
/// and behavior digest are the step's.  The absorption quotient applies
/// as configured: under abs.decided_final a decided process collapses
/// to its decision, and under abs.strip_inert dead messages leave every
/// buffer.  Only the stepper's behavior changed, so another process's
/// buffered messages keep the node's liveness `live` (read only under
/// strip_inert); the stepper's remaining buffer is judged by its
/// stepped clone, and each arriving send once, by its receiver in the
/// child.  With `abs` all off this is the plain configuration.
///
/// Returns the child's identity key.  Each process is folded into it as
/// soon as it is laid out, so that the hash's multiply chain can
/// overlap the loads of the next process: profiled at n = 4, a second
/// pass over the finished layout took about as long per candidate as
/// the whole child key had before there was a layout.
Digest128 lay_out_child(const store::MaterializedNode& node,
                        const std::vector<NodeProcess>& procs,
                        ProcessId stepper, const GhostStep& g,
                        const NodeLiveness& live, const AbsorptionContext& abs,
                        ChildLayout& child) {
    const auto n = static_cast<ProcessId>(procs.size());
    child.stepper = stepper;
    child.stepped = g.behavior.get();
    child.processes.resize(procs.size());
    child.runs.clear();
    StateHasher h;
    auto fold = [&](const ChildLayout::Process& c) {
        fold_child_process(h, c, [&](StateHasher& f) {
            for (std::size_t r = c.begin; r < c.end; ++r)
                for (std::uint32_t k = 0; k < child.runs[r].size; ++k)
                    f.fold(child.runs[r].digests[k]);
        });
    };
    for (ProcessId q = 1; q <= n; ++q) {
        ChildLayout::Process& c = child.processes[q - 1];
        const NodeProcess& f = procs[q - 1];
        const bool stepping = q == stepper;
        const std::optional<Value>& d =
                stepping && g.decision ? g.decision : f.decision;
        c.begin = c.end = static_cast<std::uint32_t>(child.runs.size());
        c.collapsed = abs.decided_final && d.has_value();
        if (c.collapsed) {
            c.head[0] = 2;
            c.head[1] = static_cast<std::uint64_t>(*d);
            c.head_words = 2;
            fold(c);
            continue;
        }
        const bool crashed = stepping ? g.final_crash : f.crashed;
        c.head_words = 0;
        c.head[c.head_words++] = crashed ? 1 : 0;
        c.head[c.head_words++] = d ? 1 : 0;
        if (d) c.head[c.head_words++] = static_cast<std::uint64_t>(*d);
        c.stepped = stepping || (*node.marks)[q - 1].stepped;
        c.behavior = stepping ? g.bhash : (*node.marks)[q - 1].hash;
        // The child's buffer of q: the live runs of its buffer at the
        // node past the delivered prefix, then q's surviving arrivals.
        const auto& mh = (*node.mhash)[q - 1];
        const std::deque<Message>* rejudged =
                abs.strip_inert && stepping ? &node.sys->buffer(q) : nullptr;
        auto dead = [&](std::size_t i) {
            if (rejudged != nullptr)
                return dead_message((*rejudged)[i].from,
                                    *(*rejudged)[i].payload, *g.behavior, abs);
            return abs.strip_inert && !live.live(live.begin(q) + i);
        };
        std::uint64_t count = 0;
        for (std::size_t i = stepping ? g.delivered : 0; i < mh.size();) {
            if (dead(i)) {
                ++i;
                continue;
            }
            std::size_t end = i + 1;
            while (end < mh.size() && !dead(end)) ++end;
            child.runs.push_back({mh.data() + i,
                                  static_cast<std::uint32_t>(end - i),
                                  static_cast<std::uint32_t>(i), nullptr});
            count += end - i;
            i = end;
        }
        if (g.send_survives(q)) {
            for (const GhostSend& s : g.sends) {
                if (s.dest != q) continue;
                if (abs.strip_inert &&
                    dead_message(stepper, **s.payload,
                                 stepping ? *g.behavior : *f.behavior, abs))
                    continue;
                child.runs.push_back(
                        {&s.hash, 1, ChildLayout::kArriving, s.payload});
                ++count;
            }
        }
        c.end = static_cast<std::uint32_t>(child.runs.size());
        c.head[c.head_words++] = count;
        fold(c);
    }
    for (const ChildLayout::Process& c : child.processes)
        fold_child_behavior(h, c, [&] { return c.behavior; });
    return h.digest();
}

// ---------------------------------------------------------------------
// Reference engine (kReference): a sequential FIFO BFS.
//
// A frontier node is only its schedule -- a script link and its depth.
// Popping a node replays its schedule on a fresh non-recording System
// and renders the node's behavior digests once; each (process,
// prefix_menu move) child is then keyed as fork() + one apply_choice +
// canonical_state_string, and the fork is dropped at once.  Only the
// visited keys and the script links outlive a pop, so no System outlives
// the pop that made it.  Deliberately simple and entirely in-RAM: this
// is the collision-free cross-check the hashed store-path engine is
// validated against, so it shares none of its machinery but the move
// menu (prefix_menu), which by design is the one both engines
// enumerate.  Its bookkeeping order -- pop-time max_states check,
// counting at pop time, (process, menu) child order, first-in-BFS-order
// witness -- is the order the store path's merge reproduces.

/// One link of a shared schedule-prefix chain.  Frontier nodes share
/// their prefixes structurally instead of copying O(depth) StepChoices
/// per node.
struct ScriptLink {
    std::shared_ptr<const ScriptLink> parent;
    StepChoice choice;
};

std::vector<StepChoice> materialize_script(const ScriptLink* tail) {
    std::vector<StepChoice> out;
    for (const ScriptLink* l = tail; l != nullptr; l = l->parent.get())
        out.push_back(l->choice);
    std::reverse(out.begin(), out.end());
    return out;
}

struct Node {
    std::shared_ptr<const ScriptLink> script;  ///< nullptr at the root
    int depth = 0;
};

ExploreResult explore_reference(const Algorithm& algorithm,
                                const ExploreConfig& cfg) {
    ExploreResult result;
    // Deterministic container on purpose (ksa-verify): the frontier is
    // cut off by max_states, so *which* states fall inside the explored
    // set must not depend on hash-iteration order or hash seeding --
    // two runs of the explorer must produce identical reports.
    std::set<std::string> visited;
    std::vector<std::string> digests(static_cast<std::size_t>(cfg.n));
    visited.insert(canonical_state_string(
            System(algorithm, cfg.n, cfg.inputs, cfg.plan), cfg.n, digests));
    std::deque<Node> frontier(1);  // the root
    while (!frontier.empty()) {
        if (visited.size() > cfg.max_states) {
            result.exhaustive = false;
            break;
        }
        const Node node = std::move(frontier.front());
        frontier.pop_front();
        ++result.schedules_expanded;

        std::vector<StepChoice> script = materialize_script(node.script.get());
        System sys(algorithm, cfg.n, cfg.inputs, cfg.plan);
        sys.set_recording(false);
        for (const StepChoice& choice : script) sys.apply_choice(choice);

        std::set<Value> decided = decision_set(sys, cfg.n);
        if (static_cast<int>(decided.size()) > cfg.k &&
            !result.violation_found) {
            result.violation_found = true;
            result.witness = std::move(script);
        }
        result.reachable_decision_sets.insert(std::move(decided));
        if (quiescent(sys, cfg)) {
            result.quiescent_outcomes.insert(outcome_of(sys, cfg.n));
            continue;
        }
        if (node.depth >= cfg.max_depth) {
            result.exhaustive = false;
            continue;
        }

        for (ProcessId p = 1; p <= cfg.n; ++p)
            digests[p - 1] = sys.steps_of(p) > 0 ? sys.last_digest(p) : "";
        for (ProcessId p = 1; p <= cfg.n; ++p) {
            const std::string own = digests[p - 1];
            for (const std::size_t count : prefix_menu(sys, p)) {
                StepChoice choice = sys.prefix_choice(p, count);
                std::string key;
                {
                    const std::unique_ptr<System> child = sys.fork();
                    child->apply_choice(choice);
                    // Only process p stepped: every other behavior
                    // digest is the node's.
                    digests[p - 1] = child->last_digest(p);
                    key = canonical_state_string(*child, cfg.n, digests);
                }
                if (visited.insert(std::move(key)).second)
                    frontier.push_back(
                            {std::make_shared<const ScriptLink>(
                                     ScriptLink{node.script, std::move(choice)}),
                             node.depth + 1});
                else
                    ++result.dedup_hits;
            }
            digests[p - 1] = own;
        }
    }
    result.states_explored = visited.size();
    return result;
}

// ---------------------------------------------------------------------
// Layer-parallel plumbing of the store path (the reference is
// sequential).
//
// The store path owns one work-stealing TaskScheduler for the whole
// exploration; per-worker scratch is sized to sched.size() and reused
// across every block a worker touches.  Blocks below
// exec::TaskScheduler::sequential_threshold run inline: per-region
// handoff overhead dwarfs the work on tiny blocks.  Dispatched work is
// chunked with the scheduler's auto grain and rebalanced by stealing.
// The steal count is recorded into the result as observability -- it
// describes the machine and the timing, not the exploration, so it
// stays out of every report and equivalence comparison.

// ---------------------------------------------------------------------
// Store-path engine (kFast and kReduced): the layered ghost-step BFS
// over the out-of-core store (src/store/, doc/performance.md §6) with
// the reduction layer (core/reduction.hpp) on top.  kReduced applies
// the ExploreConfig::reduction axes; kFast is the same engine with
// every axis off.
//
// A frontier node is a 16-byte DeltaRecord -- (parent id, stepper,
// delivered-prefix length) -- not a live System; node ids are BFS
// acceptance sequence numbers, so a layer is a contiguous id interval
// of the append-only DeltaStore and "popping the next layer" is
// advancing an id range.  Each layer is processed in blocks of
// StoreOptions::expand_block nodes through three phases:
//
//   1. EXPAND (parallel): each worker re-materializes its nodes from
//      delta records through a per-worker store::Rematerializer --
//      which moves the worker's one live System along an undo trail of
//      the root path, so the common case undoes one step and redoes
//      one -- and ghost-steps every (process, prefix_menu move)
//      candidate into a dedup key, except stutter moves (stutters()),
//      which reach the node's own key and are counted as dedup hits
//      unkeyed.  At max_depth - 1 it also classifies each candidate as
//      the leaf it would be (classify_leaf).  Pure reads of the shared
//      stores.
//
//   2. DEDUP (parallel): the block's candidate keys, flattened in
//      BFS candidate order, go through ShardedVisitedStore::
//      insert_batch -- one task per shard, each shard owned by exactly
//      one worker and processing its candidates in ascending global
//      order, so the verdict vector is byte-identical to sequential
//      insertion for every thread/shard/block configuration.
//
//   3. MERGE (sequential): consumes expansions + verdicts in input
//      order and keeps the exact bookkeeping order of the in-RAM
//      reference -- pop-order max_states check, expansion counting,
//      first-in-BFS-order witness (materialized on demand by delta
//      replay), child append order.  Appends to the DeltaStore happen
//      only here, which is the entire concurrency protocol: expansion
//      phases read, the merge phase writes, nothing overlaps.  The
//      merge of the layer at max_depth - 1 also folds each accepted
//      leaf's pop (LeafLayer) and commits them after its last block:
//      the leaf layer itself never runs these phases.
//
// Block boundaries affect CPU and resident memory only, never results:
// the candidate stream seen by the visited store and the record stream
// appended to the delta store are byte-identical for every
// expand_block, and truncation (max_states) cuts both at the same
// pop-order point the sequential engine would.
//
// The reduction axes (doc/performance.md carries the full soundness
// argument; in brief):
//
//   * SYMMETRY -- dedup keys are canonicalized to the minimum digest
//     over the symmetry group G (permutations fixing inputs + plan that
//     the algorithm declares equivariance under): one representative
//     per G-orbit is explored.  Every key of a candidate is a fold of
//     its one layout (lay_out_child): the identity element folds the
//     incremental caches the layout copied, the non-identity elements
//     renamed behavior and message digests from a per-worker memo
//     (RenamedNodeDigests), which renames each local state once per
//     exploration, on its first appearance.  Decision-value sets are
//     G-invariant; per-process quiescent outcome vectors are
//     orbit-expanded over G before the result is returned.
//
//   * ABSORPTION -- the observational quotient of core/reduction.hpp:
//     when the algorithm declares decisions final, a decided process
//     folds to its decision value alone (buffer, crash flag and
//     internal bookkeeping leave the key), its step choices are
//     skipped, and quiescence classification treats it as drained --
//     the absorbed representative itself records the outcome its
//     drain-only descendants would have recorded.  Independently,
//     messages the receiver declares inert (Behavior::message_inert)
//     are deleted from every key, wherever they sit in the buffer.
//
//   * PARTIAL ORDER -- a persistent-set filter: when some enumerable
//     process's every delivery-mode move neither decides a fresh value
//     nor sends to a process that can still step (decided processes
//     of a decisions-are-final algorithm count as stopped), and every
//     OTHER steppable process is send-quiescent (Behavior::may_send),
//     that process's moves commute with everything the rest of the
//     system can ever do.  Only that process is expanded; the other
//     processes' moves are skipped and counted as por_skips.
//
// With any axis on this explores a QUOTIENT of the reachable space:
// states_explored / schedules_expanded shrink, while violation_found,
// reachable_decision_sets and quiescent_outcomes are preserved (exactly
// so on exhaustive explorations).  With every axis off it partitions
// states exactly like the in-RAM reference.

/// A candidate child, described without materializing it: the
/// (stepper, delivered-prefix-length) pair fully describes the step --
/// exactly the payload of the DeltaRecord appended if the key survives
/// deduplication.
struct StoreChild {
    Digest128 key{};
    ProcessId stepper = 0;
    std::uint32_t delivered = 0;  ///< length of the delivered buffer prefix
};
// A layer's candidates are held in these until its merge: no leaf
// classification rides in them (LeafEffect).
static_assert(sizeof(StoreChild) == 24, "StoreChild grew");

/// What popping a leaf -- a child at max_depth, never expanded -- adds
/// to the result beyond its parent's pop, for the leaves that add
/// anything but their count and "not quiescent": those whose step
/// decides a value outside the parent's decision set, making a set no
/// pop has recorded yet, and the quiescent ones.  A leaf without one is
/// not quiescent, and its decision set was recorded: by its parent's
/// pop, or by an earlier pop whose set, if it exceeded k, was a
/// violation already.
struct LeafEffect {
    std::uint32_t child = 0;    ///< index into StoreExpansion::children
    std::uint32_t outcome = 0;  ///< LeafArena::outcomes offset, if quiescent
    Value decision = kNoValue;  ///< the step's decision, if any
    bool fresh = false;         ///< `decision` is not in the parent's set
    bool quiescent = false;
};

/// The leaf effects of the nodes one worker expands in one block, in
/// expansion order: a node's are a contiguous range of `effects`.  One
/// per worker, cleared per block, so a leaf-parent node allocates
/// nothing of its own.
struct LeafArena {
    std::vector<LeafEffect> effects;
    /// A quiescent leaf's outcome: n values from LeafEffect::outcome.
    std::vector<Value> outcomes;
};

struct StoreExpansion {
    std::set<Value> decided;
    std::vector<Value> outcome;  ///< filled iff is_quiescent
    std::vector<StoreChild> children;
    std::size_t por_skips = 0;
    /// Stutter moves (stutters()): dedup hits of the node itself, never
    /// keyed or probed.
    std::size_t stutters = 0;
    bool is_quiescent = false;
    bool at_depth = false;
    /// At max_depth - 1 only: the effects of its children that have one,
    /// in child order, are [leaves_begin, leaves_end) of the LeafArena of
    /// the worker that expanded it.
    std::uint32_t worker = 0;
    std::uint32_t leaves_begin = 0;
    std::uint32_t leaves_end = 0;
};

/// The pops of the leaf layer, folded leaf by leaf in id order while the
/// layer above it merges.  explore_reduced commits them once that merge
/// is over, if the pop-order max_states cut lets every leaf pop.
struct LeafLayer {
    LeafLayer(int n, int k) : n(n), k(k) {}

    int n = 0;
    int k = 0;
    std::size_t leaves = 0;
    bool open = false;  ///< some leaf is not quiescent
    std::set<std::set<Value>> decision_sets;
    std::set<std::vector<Value>> quiescent_outcomes;
    std::optional<std::uint64_t> violator;  ///< the first violating leaf

    /// Folds the pop of leaf `id`, a child of a node whose decision set
    /// is `decided`, whose effect is `effect` (nullptr: it has none) in
    /// `arena`.
    void pop(std::uint64_t id, const std::set<Value>& decided,
             const LeafEffect* effect, const LeafArena& arena) {
        ++leaves;
        const bool fresh = effect != nullptr && effect->fresh;
        const bool quiescent = effect != nullptr && effect->quiescent;
        const Value* outcome =
                quiescent ? arena.outcomes.data() + effect->outcome : nullptr;
        if (!quiescent) open = true;
        if (fresh) {
            std::set<Value> set = decided;
            set.insert(effect->decision);
            if (static_cast<int>(set.size()) > k && !violator) violator = id;
            decision_sets.insert(std::move(set));
        }
        if (quiescent) quiescent_outcomes.emplace(outcome, outcome + n);
#ifndef NDEBUG
        Pop& p = pops.emplace_back();
        p.decided = decided;
        if (fresh) p.decided.insert(effect->decision);
        p.quiescent = quiescent;
        if (quiescent) p.outcome.assign(outcome, outcome + n);
#endif
    }

    /// Adds the folded pops to `result`.  `remat` scripts the witness.
    void commit(ExploreResult& result, store::Rematerializer& remat) {
        result.schedules_expanded += leaves;
        result.reachable_decision_sets.merge(decision_sets);
        result.quiescent_outcomes.merge(quiescent_outcomes);
        if (open) result.exhaustive = false;
        if (violator && !result.violation_found) {
            result.violation_found = true;
            result.witness = remat.script_of(*violator);
        }
    }

#ifndef NDEBUG
    /// Each leaf's pop as folded, in id order: check_leaf_pops's oracle.
    struct Pop {
        std::set<Value> decided;
        bool quiescent = false;
        std::vector<Value> outcome;
    };
    std::vector<Pop> pops;
#endif
};

/// The reductions one exploration applies, resolved once from the mode,
/// ExploreConfig::reduction and the algorithm's declarations.
struct Reductions {
    SymmetryGroup group;
    AbsorptionContext abs;
    bool por = false;
};

#ifndef NDEBUG
/// The executable form of the rematerializer contract: the trail's
/// incrementally advanced caches equal a fresh recompute from the live
/// System.  An accepted child's ghost key is a pure function of these
/// caches, so this checks "ghost key == realized state hash" one node
/// later, without realizing any rejected candidate.
void check_node_caches(const store::MaterializedNode& node, int n) {
    for (ProcessId q = 1; q <= n; ++q) {
        const BehaviorMark& m = (*node.marks)[q - 1];
        require(m.stepped == (node.sys->steps_of(q) > 0),
                "store path: stale stepped flag in trail cache");
        if (m.stepped)
            require(m.hash == behavior_hash(node.sys->behavior_of(q)),
                    "store path: stale behavior digest in trail cache");
        const auto& mh = (*node.mhash)[q - 1];
        const auto& buf = node.sys->buffer(q);
        require(mh.size() == buf.size(),
                "store path: message-digest cache length mismatch");
        for (std::size_t i = 0; i < mh.size(); ++i)
            require(mh[i] == message_digest(buf[i].from, *buf[i].payload),
                    "store path: stale message digest in trail cache");
    }
}
#endif

/// Quotient-aware quiescence: a process that has decided under a
/// decisions-are-final algorithm is absorbed -- its undrained buffer
/// and remaining (skipped) steps cannot change any decision, so the
/// configuration's outcome vector is already the outcome vector of the
/// fully drained configurations it represents.  Without absorption this
/// is exactly quiescent().  Classifying quiescence on the quotient is
/// what keeps outcomes observable at all: drain-only children hash
/// equal to their parent and are deduplicated away, so the absorbed
/// representative itself must be the state that records the outcome.
bool quiescent_reduced(const System& sys, const ExploreConfig& cfg,
                       const AbsorptionContext& abs) {
    for (ProcessId p = 1; p <= cfg.n; ++p) {
        if (abs.decided_final && sys.decision_of(p)) continue;  // absorbed
        if (cfg.plan.is_faulty(p)) {
            if (sys.can_step(p)) return false;
        } else {
            if (!sys.decision_of(p)) return false;
            // Dead (inert) leftovers don't block quiescence: the state
            // keys equal to its fully drained counterpart, so it must
            // also CLASSIFY like it, or the orbit's outcome would be
            // recorded by neither representative.
            const auto& buf = sys.buffer(p);
            const Behavior& recv = sys.behavior_of(p);
            for (const Message& m : buf)
                if (!dead_message(m.from, *m.payload, recv, abs))
                    return false;
        }
    }
    return true;
}

/// True iff `sets` holds `decided` plus `v`, a value outside it.
bool holds_extension(const std::set<std::set<Value>>& sets,
                     const std::set<Value>& decided, Value v) {
    for (const std::set<Value>& s : sets)
        if (s.size() == decided.size() + 1 && s.count(v) != 0 &&
            std::includes(s.begin(), s.end(), decided.begin(), decided.end()))
            return true;
    return false;
}

/// Classifies the leaf `child` lays out, reached from a node with
/// processes `procs` and decision set `decided` by the ghost step `g`:
/// its pop reads only its decision set and quiescent_reduced's verdict,
/// and both follow from the layout and the step (doc/performance.md
/// §2.4).  `recorded` are the decision sets popped so far.  If the leaf
/// has an effect (LeafEffect), appends it to `arena` with `index`, its
/// index among the node's children.
///
/// quiescent_reduced, process by process: an absorbed process is
/// exactly a collapsed one; a faulty process is quiescent iff it cannot
/// step in the child, where only the stepper's step count moved; a
/// correct one iff it has decided and its layout holds no live message,
/// the layout having judged every message as quiescent_reduced judges
/// it, by its receiver in the child.
void classify_leaf(const std::vector<NodeProcess>& procs,
                   const std::set<Value>& decided,
                   const std::set<std::set<Value>>& recorded,
                   const GhostStep& g, const ChildLayout& child,
                   std::size_t index, LeafArena& arena) {
    const ProcessId stepper = child.stepper;
    // System::transition's write-once check: no System ever redoes a
    // leaf's step.
    require(!(g.decision && procs[stepper - 1].decision),
            "protocol bug: process decided twice (output is write-once)");
    const bool fresh = g.decision && decided.count(*g.decision) == 0 &&
                       !holds_extension(recorded, decided, *g.decision);
    bool quiescent = true;
    for (std::size_t i = 0; i < procs.size() && quiescent; ++i) {
        const ChildLayout::Process& c = child.processes[i];
        if (c.collapsed) continue;  // absorbed
        const bool stepping = static_cast<ProcessId>(i + 1) == stepper;
        if (procs[i].faulty)
            quiescent = stepping ? g.final_crash : !procs[i].can_step;
        else
            quiescent = (procs[i].decision || (stepping && g.decision)) &&
                        c.live_messages() == 0;
    }
    if (!fresh && !quiescent) return;
    LeafEffect& effect = arena.effects.emplace_back();
    effect.child = static_cast<std::uint32_t>(index);
    effect.decision = g.decision ? *g.decision : kNoValue;
    effect.fresh = fresh;
    effect.quiescent = quiescent;
    if (quiescent) {
        effect.outcome = static_cast<std::uint32_t>(arena.outcomes.size());
        for (const NodeProcess& f : procs)
            arena.outcomes.push_back(f.decision ? *f.decision : kNoValue);
        if (g.decision)
            arena.outcomes[effect.outcome + stepper - 1] = *g.decision;
    }
}

#ifndef NDEBUG
/// The oracle of leaf classification: materializes each leaf of the
/// layer whose first id is `first` and requires the pop it was folded
/// with -- decision set, quiescent verdict and outcome -- to be the pop
/// of the realized leaf.  A leaf whose fresh decision set an earlier
/// pop had recorded was folded without it (LeafEffect): its set must be
/// in `recorded`, the sets popped above the leaf layer, and must not
/// exceed k unless `violation` was found there.
void check_leaf_pops(store::Rematerializer& remat, std::uint64_t first,
                     const std::vector<LeafLayer::Pop>& pops,
                     const std::set<std::set<Value>>& recorded,
                     bool violation, const ExploreConfig& cfg,
                     const AbsorptionContext& abs) {
    for (std::size_t i = 0; i < pops.size(); ++i) {
        const store::MaterializedNode node = remat.materialize(first + i);
        check_node_caches(node, cfg.n);
        const System& sys = *node.sys;
        const std::set<Value> decided = decision_set(sys, cfg.n);
        const bool over_k = static_cast<int>(decided.size()) > cfg.k;
        const bool folded_out =
                recorded.count(decided) != 0 && (violation || !over_k);
        require(decided == pops[i].decided || folded_out,
                "store path: a leaf's decision set differs from its "
                "classification");
        const bool quiescent = quiescent_reduced(sys, cfg, abs);
        require(quiescent == pops[i].quiescent,
                "store path: a leaf's quiescence differs from its "
                "classification");
        if (quiescent)
            require(outcome_of(sys, cfg.n) == pops[i].outcome,
                    "store path: a leaf's outcome differs from its "
                    "classification");
    }
}
#endif

/// Runs a worker's child layout holds before it first grows: more than
/// any child of the benchmarked instances needs.
constexpr std::size_t kLayoutRuns = 64;

/// Per-worker state of the store path: the delta rematerializer plus
/// all expansion scratch, reused across every node a worker expands so
/// that a node costs no container allocation of its own.  Each worker
/// owns exactly one: nothing is shared.
struct ReducedWorker {
    std::unique_ptr<store::Rematerializer> remat;
    std::optional<GhostStepper> stepper;
    NodeLiveness live;  ///< the node's liveness, absorption or non-trivial G
    /// The renamed-digest memo, non-trivial G only.
    std::optional<RenamedNodeDigests> renamed;
    std::vector<Digest128> behavior_digests;  ///< the node's marks' digests
    std::vector<NodeProcess> procs;  ///< the node's processes
    ChildLayout child;  ///< the candidate being keyed
    LeafArena leaves;   ///< the block's leaf effects, at max_depth - 1
    /// The node's enumerable processes and their menus.
    std::vector<std::pair<ProcessId, PrefixMenu>> moves;
    /// One process's ghost-stepped moves, in menu order.
    std::array<GhostStep, PrefixMenu::kMaxMoves> ghosts;
};

/// Ghost-steps every move of p's `menu` from `node` into
/// wk.ghosts[0 .. menu.size).
void ghost_moves(const store::MaterializedNode& node, ProcessId p,
                 const PrefixMenu& menu, ReducedWorker& wk) {
    for (std::size_t m = 0; m < menu.size; ++m)
        wk.stepper->ghost_step(*node.sys, p, menu.prefix[m],
                               (*node.marks)[p - 1], (*node.mhash)[p - 1],
                               wk.ghosts[m]);
}

/// Classify, pick the persistent set, ghost-step and key the surviving
/// candidates of one materialized node, and at max_depth - 1 classify
/// them as leaves too (classify_leaf, which reads `recorded`, the
/// decision sets popped so far).  Reads the node, the calling worker's
/// scratch and clones single behaviors only -- safe to run concurrently
/// on distinct nodes.  `algorithm` is read by the Debug key checks only.
StoreExpansion expand_reduced(const store::MaterializedNode& node, int depth,
                              const ExploreConfig& cfg,
                              [[maybe_unused]] const Algorithm& algorithm,
                              const Reductions& red,
                              const std::set<std::set<Value>>& recorded,
                              ReducedWorker& wk) {
    StoreExpansion e;
    const System& sys = *node.sys;
    const AbsorptionContext& abs = red.abs;
    e.decided = decision_set(sys, cfg.n);
    if (quiescent_reduced(sys, cfg, abs)) {
        e.is_quiescent = true;
        e.outcome = outcome_of(sys, cfg.n);
        return e;
    }
    if (depth >= cfg.max_depth) {
        e.at_depth = true;
        return e;
    }
    const bool leaves = depth + 1 == cfg.max_depth;
    read_processes(sys, cfg.n, wk.procs);

    // The enumerable moves, in the canonical (process, menu) order
    // every engine uses.
    wk.moves.clear();
    std::size_t total_moves = 0;
    for (ProcessId p = 1; p <= cfg.n; ++p) {
        const PrefixMenu menu = prefix_menu(sys, p);
        if (menu.size == 0) continue;
        if (abs.decided_final && sys.decision_of(p)) {
            // Absorbed: a decided process of a decisions-are-final
            // algorithm never sends or decides again, so every one of
            // its moves reaches a state whose quotient key equals the
            // parent's.  Skip them outright (counted with the POR
            // skips) instead of generating self-deduplicating children.
            e.por_skips += menu.size;
            continue;
        }
        total_moves += menu.size;
        wk.moves.emplace_back(p, menu);
    }

    // The liveness every candidate of this node reuses, judged once, and
    // the node's renamed digests, resolved in the worker's memo
    // (core/reduction.hpp).
    const bool symmetric = !red.group.is_trivial();
    if ((abs.strip_inert || symmetric) && total_moves > 0)
        wk.live.build(sys, cfg.n, abs);
    if (symmetric && total_moves > 0) {
        wk.behavior_digests.clear();
        for (const BehaviorMark& m : *node.marks)
            wk.behavior_digests.push_back(m.hash);
        wk.renamed->build(sys, wk.live, wk.behavior_digests, *node.mhash);
    }

    auto child_key = [&](const GhostStep& g, ProcessId p) {
        Digest128 key =
                lay_out_child(node, wk.procs, p, g, wk.live, abs, wk.child);
        if (symmetric) {
            key = wk.renamed->min_child_key(wk.child, key);
#ifndef NDEBUG
            // The renamed counterpart of check_node_caches: the ghost
            // key folded from the memo equals a from-scratch canonical
            // walk of the realized child.
            std::unique_ptr<System> realized = sys.fork(false);
            realized->apply_choice(sys.prefix_choice(p, g.delivered));
            RenameScratch scratch;
            require(key == canonical_state_key(*realized, cfg.n, algorithm,
                                               red.group, scratch, abs),
                    "store path: renamed child key differs from the "
                    "realized child's canonical key");
#endif
        }
        return key;
    };

    auto emit_child = [&](const GhostStep& g, ProcessId p) {
        if (stutters(g, (*node.marks)[p - 1])) {
#ifndef NDEBUG
            // The skipped key is the node's own: the key the move would
            // have been probed with equals a from-scratch canonical walk
            // of the node.
            RenameScratch scratch;
            require(child_key(g, p) == canonical_state_key(sys, cfg.n,
                                                           algorithm,
                                                           red.group,
                                                           scratch, abs),
                    "store path: a stutter move's key differs from its "
                    "node's canonical key");
#endif
            ++e.stutters;
            return;
        }
        StoreChild child;
        child.key = child_key(g, p);
        child.stepper = p;
        child.delivered = static_cast<std::uint32_t>(g.delivered);
        e.children.push_back(child);
        if (leaves)
            classify_leaf(wk.procs, e.decided, recorded, g, wk.child,
                          e.children.size() - 1, wk.leaves);
    };

    // Partial-order reduction: find the smallest-id safe process.  A
    // process p is safe when (a) every steppable process other than p
    // is send-quiescent -- so nothing can ever send to p or to anyone
    // else before p moves -- and (b) every move of p sends only to p
    // itself or to processes that can never step again, and either
    // does not decide or decides a value that is already in the
    // state's decision set (so hoisting the move past any interleaving
    // changes no intermediate decision set).  Then p's moves commute
    // with every future move of the rest of the system and expanding p
    // alone loses no decision set, no quiescent outcome and no
    // violation (doc/performance.md gives the full argument).
    if (red.por) {
        // Condition (b) for the process p whose moves wk.ghosts holds.
        auto moves_commute = [&](ProcessId p, const PrefixMenu& menu) {
            for (std::size_t m = 0; m < menu.size; ++m) {
                const GhostStep& g = wk.ghosts[m];
                if (g.decision && e.decided.count(*g.decision) == 0)
                    return false;
                // A decided destination of a decisions-are-final
                // algorithm is as good as stopped: the send lands in a
                // buffer the quotient never reads.
                for (const GhostSend& s : g.sends) {
                    const NodeProcess& dest = wk.procs[s.dest - 1];
                    if (g.send_survives(s.dest) && s.dest != p &&
                        dest.can_step &&
                        !(abs.decided_final && dest.decision))
                        return false;
                }
            }
            return true;
        };
        // Two senders (steppable and may still send): whichever process
        // we pick, some OTHER process may still send -- nobody is safe.
        // One sender: only it can be.  None: try every enumerable
        // process in id order.
        ProcessId sender = 0;
        int senders = 0;
        for (ProcessId q = 1; q <= cfg.n && senders < 2; ++q)
            if (wk.procs[q - 1].can_step &&
                wk.procs[q - 1].behavior->may_send())
                if (senders++ == 0) sender = q;
        for (const auto& [p, menu] : wk.moves) {
            if (senders > 1) break;
            if (senders == 1 && sender != p) continue;
            ghost_moves(node, p, menu, wk);
            if (!moves_commute(p, menu)) continue;
            // Only this process's moves are expanded.
            e.por_skips += total_moves - menu.size;
            for (std::size_t m = 0; m < menu.size; ++m)
                emit_child(wk.ghosts[m], p);
            return e;
        }
    }

    e.children.reserve(total_moves);
    for (const auto& [p, menu] : wk.moves) {
        ghost_moves(node, p, menu, wk);
        for (std::size_t m = 0; m < menu.size; ++m)
            emit_child(wk.ghosts[m], p);
    }
    return e;
}

ExploreResult explore_reduced(const Algorithm& algorithm,
                              const ExploreConfig& cfg) {
    ExploreResult result;

    // kFast is this engine with every reduction axis off: it ignores
    // cfg.reduction.
    const ReductionOptions axes =
            cfg.mode == ExploreMode::kReduced
                    ? cfg.reduction
                    : ReductionOptions{false, false, false};
    Reductions red;
    red.group = axes.symmetry ? SymmetryGroup::compute(algorithm, cfg.n,
                                                       cfg.inputs, cfg.plan)
                              : SymmetryGroup::trivial(cfg.n);
    red.abs.strip_inert = axes.absorption;
    red.abs.decided_final = axes.absorption && algorithm.decided_is_final();
    red.por = axes.por;
    // With absorption off and G trivial, child keys read nothing but the
    // ghost steps' outputs, so the transition memo may serve them
    // (core/ghost_step.hpp).
    const bool memoize = !red.abs.strip_inert && red.group.is_trivial();

    exec::TaskScheduler sched(cfg.threads < 1 ? 1 : cfg.threads);
    const std::size_t threshold =
            exec::TaskScheduler::sequential_threshold(sched.size());

    store::ShardedVisitedStore visited(cfg.store);
    store::DeltaStore deltas(cfg.store);
    std::vector<ReducedWorker> workers(static_cast<std::size_t>(sched.size()));
    for (ReducedWorker& w : workers) {
        w.remat = std::make_unique<store::Rematerializer>(
                algorithm, cfg.n, cfg.inputs, cfg.plan, deltas,
                &message_digest);
        w.stepper.emplace(&message_digest, memoize);
        // Every candidate is laid out in this storage: sized once here
        // rather than grown in steps by the first candidates.
        w.child.processes.resize(static_cast<std::size_t>(cfg.n));
        w.child.runs.reserve(kLayoutRuns);
        if (!red.group.is_trivial())
            w.renamed.emplace(cfg.n, algorithm, red.group, red.abs);
    }

    {
        System root(algorithm, cfg.n, cfg.inputs, cfg.plan);
        RenameScratch scratch;
        visited.insert(canonical_state_key(root, cfg.n, algorithm, red.group,
                                           scratch, red.abs));
    }
    deltas.append(store::DeltaRecord{});  // the root: id 0, no real step
    // Pop-order truncation bookkeeping.  The in-RAM reference checks
    // `visited.size() > max_states` when popping a node; insert_batch
    // pre-inserts a whole block's survivors at once, so the equivalent
    // sequential quantity -- root + children accepted by the merge so
    // far -- is carried explicitly, and states_explored is reported
    // from it for the same reason.
    std::size_t states_accepted = 1;

    const std::size_t block_cap =
            cfg.store.expand_block == 0 ? 1 : cfg.store.expand_block;
    std::vector<Digest128> keys;        // flattened candidate keys
    std::vector<std::uint8_t> verdict;  // 1 = new, in candidate order

    std::uint64_t layer_begin = 0;
    std::uint64_t layer_end = 1;
    int depth = 0;
    bool truncated = false;
    while (layer_begin < layer_end && !truncated) {
        // The layer above the leaves pops them as it accepts them.
        const bool leaf_parents = depth + 1 == cfg.max_depth;
        LeafLayer leaves(cfg.n, cfg.k);
        for (std::uint64_t block = layer_begin;
             block < layer_end && !truncated; block += block_cap) {
            const std::size_t count = static_cast<std::size_t>(
                    std::min<std::uint64_t>(block_cap, layer_end - block));
            for (ReducedWorker& w : workers) {
                w.leaves.effects.clear();
                w.leaves.outcomes.clear();
            }
            // Phase 1 (parallel): materialize + ghost-expand the block.
            std::vector<StoreExpansion> expansions =
                    exec::parallel_map_grained(
                            sched, count, /*grain=*/0,
                            [&](std::size_t i, int w) {
                                ReducedWorker& wk =
                                        workers[static_cast<std::size_t>(w)];
                                const store::MaterializedNode node =
                                        wk.remat->materialize(block + i);
#ifndef NDEBUG
                                check_node_caches(node, cfg.n);
#endif
                                const auto begin = static_cast<std::uint32_t>(
                                        wk.leaves.effects.size());
                                StoreExpansion e = expand_reduced(
                                        node, depth, cfg, algorithm, red,
                                        result.reachable_decision_sets, wk);
                                e.worker = static_cast<std::uint32_t>(w);
                                e.leaves_begin = begin;
                                e.leaves_end = static_cast<std::uint32_t>(
                                        wk.leaves.effects.size());
                                return e;
                            },
                            threshold);

            // Phase 2 (parallel): dedup the block's candidates in one
            // sharded batch.
            keys.clear();
            for (const StoreExpansion& e : expansions)
                for (const StoreChild& c : e.children) keys.push_back(c.key);
            visited.insert_batch(sched, keys, verdict);

            // Phase 3 (sequential merge, input order = the sequential
            // engine's pop order).
            std::size_t vi = 0;
            for (std::size_t i = 0; i < count; ++i) {
                if (states_accepted > cfg.max_states) {
                    result.exhaustive = false;
                    truncated = true;
                    break;
                }
                ++result.schedules_expanded;
                StoreExpansion& e = expansions[i];
                result.por_skips += e.por_skips;
                result.reachable_decision_sets.insert(e.decided);
                if (static_cast<int>(e.decided.size()) > cfg.k &&
                    !result.violation_found) {
                    result.violation_found = true;
                    result.witness = workers[0].remat->script_of(block + i);
                }
                if (e.is_quiescent) {
                    result.quiescent_outcomes.insert(std::move(e.outcome));
                    continue;
                }
                if (e.at_depth) {
                    result.exhaustive = false;
                    continue;
                }
                result.dedup_hits += e.stutters;
                const LeafArena& arena = workers[e.worker].leaves;
                std::uint32_t effect = e.leaves_begin;
                for (std::size_t j = 0; j < e.children.size(); ++j) {
                    const StoreChild& c = e.children[j];
                    if (verdict[vi++] == 0) {
                        ++result.dedup_hits;
                        continue;
                    }
                    ++states_accepted;
                    const std::uint64_t id = deltas.append(store::DeltaRecord{
                            block + i, static_cast<std::uint32_t>(c.stepper),
                            c.delivered});
                    if (!leaf_parents) continue;
                    while (effect < e.leaves_end &&
                           arena.effects[effect].child < j)
                        ++effect;
                    const bool has_effect = effect < e.leaves_end &&
                                            arena.effects[effect].child == j;
                    leaves.pop(id, e.decided,
                               has_effect ? &arena.effects[effect] : nullptr,
                               arena);
                }
            }
            const std::size_t resident =
                    visited.stats().resident_bytes + deltas.resident_bytes();
            if (resident > result.peak_resident_bytes)
                result.peak_resident_bytes = resident;
        }
        if (leaf_parents) {
            // Pop the leaf layer: every leaf was classified when its
            // parent expanded it, so none is materialized or expanded.
            // A leaf layer accepts no state, so the pop-order cut fires
            // at its first leaf or never: its leaves pop all or none.
#ifndef NDEBUG
            check_leaf_pops(*workers[0].remat, layer_end, leaves.pops,
                            result.reachable_decision_sets,
                            result.violation_found, cfg, red.abs);
#endif
            if (!truncated && leaves.leaves > 0) {
                if (states_accepted > cfg.max_states)
                    result.exhaustive = false;
                else
                    leaves.commit(result, *workers[0].remat);
            }
            break;
        }
        layer_begin = layer_end;
        layer_end = deltas.size();
        ++depth;
    }

    result.states_explored = states_accepted;
    result.parallel_steals = sched.steal_count();
    const store::VisitedStats vs = visited.stats();
    result.store_shards = vs.shards;
    result.filter_definite_new = vs.filter_negatives;
    result.filter_false_positives = vs.filter_false_positives;
    result.spilled_records = deltas.spilled_records();
    result.spill_bytes = deltas.spill_bytes();
    for (const ReducedWorker& w : workers) {
        result.replay_steps += w.remat->replay_steps();
        result.spill_reads += w.remat->spill_reads();
    }

    // Orbit-expand the quiescent outcomes: a pruned orbit member's runs
    // are the renamed runs of its explored representative, so its
    // outcome vectors are the renamed outcome vectors.
    if (!red.group.is_trivial()) {
        std::set<std::vector<Value>> expanded;
        for (const std::vector<Value>& o : result.quiescent_outcomes)
            for (std::size_t g = 0; g < red.group.size(); ++g)
                expanded.insert(red.group.apply_to_outcome(g, o));
        result.quiescent_outcomes = std::move(expanded);
    }
    return result;
}

}  // namespace

std::string to_string(ExploreMode mode) {
    switch (mode) {
        case ExploreMode::kFast: return "fast";
        case ExploreMode::kReference: return "reference";
        case ExploreMode::kReduced: return "reduced";
    }
    return "unknown";
}

std::string ExploreVerdict::summary() const {
    std::ostringstream out;
    out << "explored " << states_explored << " states ("
        << schedules_expanded << " expansions, "
        << dedup_hits << " dedup hits";
    if (por_skips > 0) out << ", " << por_skips << " POR skips";
    out << "), " << (exhaustive ? "exhaustive" : "TRUNCATED") << ", "
        << quiescent_outcomes.size() << " quiescent outcomes, "
        << reachable_decision_sets.size() << " reachable decision sets, "
        << (violation_found ? "VIOLATION FOUND" : "no violation")
        << " (prefix-delivery adversary)";
    return out.str();
}

ExploreResult explore_schedules(const Algorithm& algorithm,
                                const ExploreConfig& cfg) {
    require(!algorithm.needs_failure_detector(),
            "explore_schedules: detector-using algorithms are not supported");
    require(static_cast<int>(cfg.inputs.size()) == cfg.n,
            "explore_schedules: need n inputs");

    switch (cfg.mode) {
        case ExploreMode::kReference:
            return explore_reference(algorithm, cfg);
        case ExploreMode::kFast:
        case ExploreMode::kReduced:
            return explore_reduced(algorithm, cfg);
    }
    throw UsageError("explore_schedules: unknown ExploreMode");
}

}  // namespace ksa::core
