#pragma once
// State-space reduction for the explorer (core/explorer.hpp).
//
// The reduced exploration mode (ExploreMode::kReduced) shrinks the
// explored configuration space along two orthogonal axes; this module
// holds the machinery shared by both.  doc/performance.md carries the
// full soundness argument; the short form:
//
//   * SYMMETRY.  Process ids are wiring labels: permuting them permutes
//     runs.  For the subgroup G of permutations that fix the inputs
//     vector and the FailurePlan (and that the algorithm declares
//     itself equivariant under -- Algorithm::symmetry), two states in
//     the same G-orbit have renamed-isomorphic futures, so the explorer
//     keeps one representative per orbit.  The dedup key of a state is
//     the MINIMUM over G of the renamed state's 128-bit digest; decision
//     VALUE sets are G-invariant, and per-process quiescent outcome
//     vectors are recovered by orbit-expanding the representatives'
//     outcomes over G.
//
//   * ABSORPTION.  Some of what a configuration records is
//     observationally dead: a decided process of an algorithm whose
//     decisions are final (Algorithm::decided_is_final) never emits
//     anything again, so its internal bookkeeping, buffered messages
//     and crash flag cannot influence any future decision or outcome;
//     and a message the receiver provably ignores forever
//     (Behavior::message_inert) is dead weight wherever it sits --
//     delivering a prefix that spans dead messages is
//     indistinguishable from delivering its live subsequence.  The
//     reduced engine keys decided processes on their decision value
//     alone, deletes dead messages from buffer keys, skips decided
//     processes' step choices, and treats decided processes as
//     drained when classifying quiescence.  States that differ only
//     in dead bookkeeping collapse to one representative whose
//     explored futures cover (up to empty-delivery stutter steps,
//     available everywhere) the futures of them all.
//
//   * PARTIAL ORDER.  Two step choices of different processes commute
//     when neither decides and neither's surviving sends touch the
//     other's buffer or a common destination; interleavings that differ
//     only in the order of commuting steps reach the same state through
//     the same multiset of decision events.  The reduced engine
//     exploits this with a persistent-set style filter (explorer.cpp,
//     expand_reduced): when some process's every delivery-mode move is
//     decision-free and send-free toward live processes, and every
//     OTHER live process is send-quiescent (Behavior::may_send), that
//     process's moves commute with everything the rest of the system
//     can ever do -- so only that process is expanded and the siblings
//     of other processes are skipped (counted as por_skips).
//
// What is preserved: violation_found, reachable_decision_sets and
// quiescent_outcomes -- NOT state or expansion counts (shrinking those
// is the point).  See doc/performance.md for what weakens under
// max_depth / max_states truncation.
//
// With every axis off (the trivial group, the identity quotient, no
// persistent-set filter) the machinery below keys states by plain
// configuration: that is how ExploreMode::kFast runs.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/reduction_options.hpp"
#include "sim/behavior.hpp"
#include "sim/digest.hpp"
#include "sim/failure_plan.hpp"
#include "sim/payload.hpp"
#include "sim/types.hpp"

namespace ksa {
class System;
}  // namespace ksa

namespace ksa::core {

// ReductionOptions itself lives in core/reduction_options.hpp (an
// ordinary public header): this header is private to the reduction TU
// and its driver (core/explorer.cpp) -- see src/lint/layers.def.

/// Absorption switches derived once per exploration from
/// ReductionOptions::absorption and the algorithm's declarations; the
/// all-false default is the identity quotient (plain configuration
/// keys, as ExploreMode::kFast uses).
struct AbsorptionContext {
    /// Strip maximal inert suffixes of buffers from dedup keys
    /// (Behavior::message_inert; a no-op for behaviors that never
    /// declare anything inert).
    bool strip_inert = false;
    /// Key decided processes on (decided, value) alone -- buffers,
    /// crash flags and internal bookkeeping of decided processes leave
    /// the key; requires Algorithm::decided_is_final().
    bool decided_final = false;
};

/// Permutation-enumeration cap for SymmetryGroup::compute: above this
/// many processes the group is forced trivial (n! enumeration; the
/// explorer itself is only tractable well below this anyway).
inline constexpr int kMaxSymmetryProcesses = 8;

// ---------------------------------------------------------------------
// Symmetry group.

/// The subgroup of process renamings the reduced explorer may quotient
/// by: permutations pi of 1..n such that
///
///   * the algorithm declares equivariance (SymmetryKind != kNone, with
///     fold_state_renamed / rename_payload_ids support probed on a
///     throwaway behavior);
///   * the inputs vector is fixed: inputs[pi(p)-1] == inputs[p-1];
///   * for kBlockSymmetric additionally every equal-input class is a
///     contiguous id block (else the group is forced trivial);
///   * the FailurePlan is fixed: pi maps faulty processes to faulty
///     processes with equal step allowances and pi-consistent omission
///     sets.
///
/// Element 0 is always the identity.  Computed once per exploration.
class SymmetryGroup {
public:
    /// The identity-only group on n processes (n >= 1).
    static SymmetryGroup trivial(int n);

    /// Computes the full admissible subgroup (see class comment).
    /// Falls back to trivial() whenever any precondition fails -- a
    /// missing override degrades performance, never soundness.
    static SymmetryGroup compute(const Algorithm& algorithm, int n,
                                 const std::vector<Value>& inputs,
                                 const FailurePlan& plan);

    bool is_trivial() const { return renamings_.size() <= 1; }
    std::size_t size() const { return renamings_.size(); }

    /// Element g as a renaming: renaming(g)[p-1] is the new name of p.
    /// renaming(0) is the identity.
    const ProcessRenaming& renaming(std::size_t g) const {
        return renamings_[g];
    }

    /// Inverse of element g: inverse(g)[r-1] is the process whose new
    /// name is r.  Precomputed because canonical hashing walks states
    /// in renamed-position order.
    const ProcessRenaming& inverse(std::size_t g) const {
        return inverses_[g];
    }

    /// Applies element g to a per-process outcome vector: the renamed
    /// execution's process renaming(g)[p-1] ends in the state process p
    /// ended in, so out[renaming(g)[p-1]-1] = o[p-1].  Used to
    /// orbit-expand quiescent outcomes.
    std::vector<Value> apply_to_outcome(std::size_t g,
                                        const std::vector<Value>& o) const;

private:
    std::vector<ProcessRenaming> renamings_;  ///< [0] is the identity
    std::vector<ProcessRenaming> inverses_;
};

// ---------------------------------------------------------------------
// State hashing.
//
// The store-path explorer keys states on min over G of the renamed
// state's digest, and decides which fields a candidate child's key
// folds in one place: it lays the child out once (ChildLayout, filled
// by explorer.cpp's lay_out_child from the node's incremental caches:
// per-message digests cached when a message arrives, per-behavior
// digests when its process steps) and folds every key from that
// layout.  The identity element folds the layout's own digests.  The
// non-identity elements -- up to 5! = 120 of them for uniform inputs at
// n = 5 -- read a per-worker memo (RenamedNodeDigests below) that holds
// the |G|-1 renamed digests of every behavior state and message the
// worker has met in the exploration so far: a local state is renamed
// once, on its first appearance, and a candidate's renamed keys are
// folds of memo entries.  canonical_state_key recomputes the same
// field sequence from a live System in one walk with an optional
// renaming; it keys the root, and Debug builds check every renamed
// candidate key against it on the realized child.

/// Reusable scratch for renamed hashing: one per worker, reset-free
/// (every helper overwrites what it uses).  Exists to keep the hot path
/// allocation-free after warm-up: payload copies and sub-hashers are
/// recycled across messages instead of constructed per message.
struct RenameScratch {
    Payload payload;  ///< renamed copy of a message payload
    StateHasher sub;  ///< per-behavior sub-hasher
    /// List vectors `payload` dropped when it last shrank, parked with
    /// their capacity for the next payload that needs more lists.
    std::vector<std::vector<int>> spare_lists;
};

/// The one digest of a buffered message every state key folds: the
/// sender id, then the payload's own byte stream (Payload::fold).
/// Message ids are simulator bookkeeping and stay out, so two messages
/// collide iff sender, tag and contents are equal.  Inline because the
/// explorer calls it once per surviving send of every candidate child.
inline Digest128 message_digest(ProcessId from, const Payload& payload) {
    StateHasher h;
    h.i64(from);
    payload.fold(h);
    return h.digest();
}

/// message_digest of the message as the renamed execution would hold
/// it: sender mapped through `ren`, payload ids rewritten by
/// Algorithm::rename_payload_ids.  Aborts (invariant) if the algorithm
/// refuses the payload -- SymmetryGroup::compute probed support, so a
/// refusal mid-run is a contract violation, not a fallback case.
Digest128 renamed_msg_hash(ProcessId from, const Payload& payload,
                           const Algorithm& algorithm,
                           const ProcessRenaming& ren, RenameScratch& scratch);

/// Digest of one behavior's renamed local state (fold_state_renamed in
/// a fresh sub-hasher).  Aborts (invariant) if the behavior refuses.
Digest128 renamed_behavior_hash(const Behavior& behavior,
                                const ProcessRenaming& ren,
                                StateHasher& sub);

/// True iff the absorption quotient deletes this buffered message from
/// dedup keys: the receiver declares it inert (Behavior::message_inert
/// -- delivering it is a behavioral no-op, in this state and every
/// future one).  Dead messages are deleted ANYWHERE in the buffer, not
/// only in a suffix: delivering a prefix that spans dead messages is
/// indistinguishable from delivering its live subsequence, and the
/// one delivery-granularity gap that deletion opens (the quotient
/// peer can single-deliver its first LIVE message while the original
/// state's head is dead) is bridged by empty-delivery steps, which are
/// in every process's menu at every state.  doc/performance.md carries
/// the stuttering argument and what weakens under depth truncation.
inline bool dead_message(ProcessId from, const Payload& payload,
                         const Behavior& receiver,
                         const AbsorptionContext& abs) {
    return abs.strip_inert && receiver.message_inert(from, payload);
}

/// The liveness (dead_message) of every message one expanded node
/// buffers at a non-absorbed process, judged once per node against its
/// receiver's behavior at the node.  Entries run process by process in
/// buffer order; an absorbed process (decided under
/// AbsorptionContext::decided_final) keys on its decision alone and
/// gets none.  A ghost step changes only its stepper's behavior, so
/// every other process's entries hold in each candidate child too: the
/// explorer's child layouts read them and judge only the stepper's
/// remaining buffer and the arriving sends.  RenamedNodeDigests
/// resolves the same message sequence, indexed by begin().  One per
/// worker, rebuilt per node, allocation-free once its buffers have
/// grown.
class NodeLiveness {
public:
    /// Judges the node `sys`.  With abs.strip_inert off every entry is
    /// live and no behavior is asked.
    void build(const System& sys, int n, const AbsorptionContext& abs);

    /// Process p's entries are [begin(p), begin(p + 1)): entry
    /// begin(p) + i is message i of its buffer.  1 <= p <= n + 1.
    std::size_t begin(ProcessId p) const {
        return begin_[static_cast<std::size_t>(p) - 1];
    }
    std::size_t size() const { return live_.size(); }
    bool live(std::size_t entry) const { return live_[entry] != 0; }

private:
    std::vector<std::size_t> begin_;  ///< n + 1 offsets into live_
    std::vector<std::uint8_t> live_;
};

/// One candidate child configuration, laid out the way every hashed key
/// of it folds it: explorer.cpp's lay_out_child fills it once per
/// candidate, and both the identity key (which lay_out_child folds as
/// it writes the layout) and the renamed keys
/// (RenamedNodeDigests::min_child_key) are folds of it alone.
///
/// A key folds, for each process in (renamed) position order, its
/// header words and then the digests of its live messages
/// (fold_child_process); then, again in position order, each process
/// that is not collapsed adds its stepped flag and, iff it stepped, its
/// behavior digest (fold_child_behavior).  A collapsed process --
/// decided under AbsorptionContext::decided_final -- has no messages
/// and no behavior.
struct ChildLayout {
    /// Run::position of a send that arrives with the step.
    static constexpr std::uint32_t kArriving = ~std::uint32_t{0};

    /// One process of the child.
    struct Process {
        /// Collapsed: 2 (disjoint from the 0/1 crash flag), decision.
        /// Otherwise: crash flag, decided flag, the decision if any, the
        /// live-message count.
        std::uint64_t head[4] = {0, 0, 0, 0};
        std::uint32_t head_words = 0;
        /// Its live messages are those of runs[begin, end), in buffer
        /// order.
        std::uint32_t begin = 0;
        std::uint32_t end = 0;
        bool collapsed = false;
        bool stepped = false;
        Digest128 behavior{};  ///< fold_state digest, iff stepped

        /// Its live-message count, the last header word; not collapsed
        /// only.
        std::uint64_t live_messages() const { return head[head_words - 1]; }
    };

    /// Consecutive live messages of one child buffer: a stretch of the
    /// messages its receiver buffers at the node, or one send arriving
    /// with the step.  A run borrows its digests, so a child's layout
    /// copies no message digest.
    struct Run {
        /// The message_digest of each message of the run: the node's
        /// cache from `position` on, or the arriving send's digest.
        const Digest128* digests = nullptr;
        std::uint32_t size = 0;
        /// Index of the run's first message in its receiver's buffer at
        /// the node, or kArriving.
        std::uint32_t position = kArriving;
        /// An arriving send's payload, borrowed from the ghost step
        /// (nullptr on a transition-memo hit, which only explorations
        /// without renamed keys take).
        const SharedPayload* payload = nullptr;
    };

    ProcessId stepper = 0;
    /// The stepper's stepped clone, borrowed like the payloads.
    const Behavior* stepped = nullptr;
    std::vector<Process> processes;  ///< slot q-1 is process q
    std::vector<Run> runs;
};

/// Folds process `c` into the first pass of a child's key: its header
/// words, then fold_messages(h), which folds its live messages'
/// digests.
template <class FoldMessages>
void fold_child_process(StateHasher& h, const ChildLayout::Process& c,
                        FoldMessages fold_messages) {
    for (std::size_t w = 0; w < c.head_words; ++w) h.u64(c.head[w]);
    fold_messages(h);
}

/// Folds process `c` into the second pass of a child's key: nothing if
/// it is collapsed, else its stepped flag and, iff it stepped,
/// behavior() -- its behavior digest.
template <class BehaviorDigest>
void fold_child_behavior(StateHasher& h, const ChildLayout::Process& c,
                         BehaviorDigest behavior) {
    if (c.collapsed) return;
    h.u64(c.stepped ? 1 : 0);
    if (c.stepped) h.fold(behavior());
}

/// The renamed half of the explorer's candidate keys: one per worker
/// and exploration, allocation-free once its memo has met the local
/// states it needs.
///
/// The memo holds, for every behavior state and every message the
/// worker has keyed, its digest under each non-identity group element
/// (|G|-1 digests per entry).  Renaming functions run only on a miss.
///
///   * A behavior is looked up by its fold_state digest -- the digest
///     the identity key already folds for it -- so the memo merges only
///     behaviors that every identity key already merges.
///   * A message is looked up by its message_digest and confirmed by
///     value (sender and payload ==): a digest collision between two
///     messages costs a second entry, never a wrong key.
///
/// build() resolves the node's stepped, non-absorbed behaviors and the
/// messages buffered at non-absorbed processes (an absorbed process --
/// decided under AbsorptionContext::decided_final -- keys on its
/// decision alone and needs no entry) to memo entries, in NodeLiveness
/// order.  min_child_key() resolves what one candidate's layout holds
/// beyond the node -- its stepper's behavior and its arrivals -- and
/// folds the layout under every g with memo entries in place of
/// digests.  The folded byte stream is exactly canonical_state_key's
/// walk of the realized child under g.
///
/// A fixed byte budget bounds the memo (kMemoBytes of renamed digests).
/// It is checked, and the memo cleared, only at the start of build(),
/// so the entries a node resolved stay valid while its candidates are
/// keyed; one node's own entries may carry the memo past the budget.
class RenamedNodeDigests {
public:
    /// Renamed digests the memo holds before build() clears it.
    static constexpr std::size_t kMemoBytes = std::size_t{2} << 20;

    /// A memo for one exploration of `n` processes.  `algorithm` and
    /// `group` are borrowed for its lifetime.
    RenamedNodeDigests(int n, const Algorithm& algorithm,
                       const SymmetryGroup& group,
                       const AbsorptionContext& abs);

    /// Resolves the node `sys`.  `live` must have been built on the same
    /// node with this memo's AbsorptionContext; `behavior_digests[p-1]`
    /// is p's fold_state digest (read iff p stepped) and
    /// `message_digests[p-1][i]` the message_digest of the i-th message
    /// of p's buffer -- the identity key's own caches.  `sys` and `live`
    /// are borrowed until the next build().
    void build(const System& sys, const NodeLiveness& live,
               const std::vector<Digest128>& behavior_digests,
               const std::vector<std::vector<Digest128>>& message_digests);

    /// Canonical key of the child `child` lays out, reached by one step
    /// from the built node: the minimum of `identity_key` (the child's
    /// identity key) and its digests under every non-identity element.
    Digest128 min_child_key(const ChildLayout& child, Digest128 identity_key);

    /// Entries the memo holds (behaviors and messages).
    std::size_t memo_entries() const;

private:
    /// A memo entry's value check: the message it was renamed from.
    struct MessageEntry {
        ProcessId from = 0;
        SharedPayload payload;
        std::size_t entry = 0;
    };

    std::size_t behavior_entry(Digest128 digest, const Behavior& behavior);
    std::size_t message_entry(Digest128 digest, ProcessId from,
                              const SharedPayload& payload);
    /// Appends an entry; the caller fills its |G|-1 digests.
    std::size_t add_entry();

    int n_ = 0;
    const Algorithm* algorithm_ = nullptr;
    const SymmetryGroup* group_ = nullptr;
    AbsorptionContext abs_;
    std::size_t width_ = 0;  ///< |G|-1: digests per memo entry
    RenameScratch scratch_;

    // The memo.  Entry e's digest under element g is
    // renamed_[e * width_ + g - 1]; an entry is named by its offset
    // e * width_.
    std::vector<Digest128> renamed_;
    std::map<Digest128, std::size_t> behaviors_;
    std::multimap<Digest128, MessageEntry> messages_;

    // Per node.
    const System* sys_ = nullptr;
    /// The node's liveness; p's messages are msg_entry_[live_->begin(p)
    /// .. live_->begin(p + 1)).
    const NodeLiveness* live_ = nullptr;
    std::vector<std::size_t> behavior_entry_;  ///< slot p-1, iff p stepped
    std::vector<std::size_t> msg_entry_;       ///< NodeLiveness order

    // Per candidate: the memo entries of the layout's messages, process
    // q's at [child_msg_begin_[q-1], child_msg_begin_[q]), and of its
    // processes' behaviors (slot q-1, iff stepped and not collapsed).
    std::vector<std::size_t> child_msg_entry_;
    std::vector<std::size_t> child_msg_begin_;
    std::vector<std::size_t> child_behavior_entry_;
};

/// Canonical key of a live System: minimum over the group of the
/// renamed full-state digests, each recomputed by one walk of `sys`
/// (the identity element's renames nothing), with the absorption
/// quotient applied on every path.  The store-path explorer's root key,
/// and in Debug builds the from-scratch oracle every candidate's
/// RenamedNodeDigests key is checked against.
Digest128 canonical_state_key(const System& sys, int n,
                              const Algorithm& algorithm,
                              const SymmetryGroup& group,
                              RenameScratch& scratch,
                              const AbsorptionContext& abs);

}  // namespace ksa::core
