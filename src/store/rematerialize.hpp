#pragma once
// Delta replay: materializing live states from delta records
// (doc/performance.md §6).
//
// A frontier node on the store path is a 16-byte DeltaRecord, not a
// live System.  When the explorer expands a node it asks a
// Rematerializer for the node's live state; the rematerializer walks
// the delta chain upward until it meets its TRAIL, undoes the trail
// levels above the meeting point and redoes the chain's steps in place.
//
// Each worker's Rematerializer owns exactly one live, non-recording
// System and never forks it.  The trail is the root-to-node path of the
// most recently materialized node: level 0 is the root, level d holds
// the node at BFS depth d together with the System::step_undoable
// capture that reverts the step leading to it -- at most max_depth + 1
// levels per worker no matter how wide the frontier is.  BFS id order
// gives strong locality: consecutive ids are siblings or cousins, whose
// chains share all but the last one or two levels with the trail, so
// the common case undoes one step and redoes one.  Redo depth is
// bounded by max_depth regardless, so the worst case (a cold worker, a
// layer boundary) is a dozen-step replay, not a from-scratch
// reconstruction.
//
// Each trail level carries the two incremental hash caches the
// explorer's ghost-stepping needs (the marks/mhash economy of the old
// in-RAM frontier, resurrected on the trail):
//
//   * marks: per-process stepped flag + behavior fold_state digest;
//   * mhash: per-process, per-buffered-message content digests,
//     advanced by diffing the live buffers across one redone step --
//     each message is hashed once per redo, on arrival.
//
// A level's storage (caches and undo capture) is reused across calls:
// redoing a step copy-assigns the caches from the level below into
// vectors that already have their capacity.
//
// The message digest function is injected (the explorer passes
// core/reduction.hpp's message_digest, sender + Payload::fold), keeping
// this layer below core/reduction in the layer DAG.
//
// DETERMINISM.  Materialization redoes the same deterministic steps the
// original acceptance replayed, and an undo restores every piece of
// state exactly (the message-id counter included), so the live System
// is byte-identical to the state the merge phase accepted -- whichever
// worker materializes it, whatever the trail held before.  Trail hits
// affect CPU only.  If a step throws, the trail is reset to the root,
// so a later call never starts from a half-applied level.

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/digest.hpp"
#include "sim/failure_plan.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"
#include "store/delta_store.hpp"

namespace ksa::store {

/// Per-process behavior-state entry of a hashed state key.  `stepped`
/// carries the convention every engine keys on: an unstepped process
/// contributes no behavior state (see the state-key commentary in
/// core/explorer.cpp).
struct BehaviorMark {
    bool stepped = false;
    Digest128 hash{};
};

/// Per-process, per-buffered-message digest cache: mhash[p-1][i] is
/// the digest of the i-th message of p's buffer.
using MessageHashes = std::vector<std::vector<Digest128>>;

/// A materialized frontier node: the rematerializer's live System plus
/// the incremental caches of its trail level, all borrowed.  Valid
/// until the next materialize() call on the same rematerializer, which
/// moves the System to another node.
struct MaterializedNode {
    const System* sys = nullptr;
    const std::vector<BehaviorMark>* marks = nullptr;
    const MessageHashes* mhash = nullptr;
};

/// See file comment.  One instance per worker; never shared.
class Rematerializer {
  public:
    /// `digest_send(from, payload)` digests one buffered message (the
    /// explorer's message_digest).  `algorithm`/`inputs`/`plan` describe
    /// the root configuration (the same arguments the explorer built its
    /// root System from); the algorithm must not query a failure
    /// detector (System::step_undoable).
    using DigestSendFn = Digest128 (*)(ProcessId, const Payload&);

    Rematerializer(const Algorithm& algorithm, int n,
                   std::vector<Value> inputs, FailurePlan plan,
                   const DeltaStore& deltas, DigestSendFn digest_send);

    /// Live state + caches of node `id`.  Undoes the trail down to the
    /// deepest level on the node's root path (the root itself in the
    /// worst case), then redoes the rest of the delta chain.
    MaterializedNode materialize(std::uint64_t id);

    /// The full schedule script of node `id` (root exclusive): the
    /// exact StepChoice sequence that re-creates it on a fresh System,
    /// with concrete message ids read back from the live buffers during
    /// replay.  Used to materialize violation witnesses.  Leaves the
    /// trail untouched.
    std::vector<StepChoice> script_of(std::uint64_t id);

    /// Delta-chain steps redone so far (observability: trail misses;
    /// depends on work distribution, so it is excluded from every
    /// equivalence comparison, like steal counts).
    std::uint64_t replay_steps() const { return replay_steps_; }
    /// Spill-file block fetches so far (observability; DeltaStore::Reader).
    std::uint64_t spill_reads() const { return reader_.spill_reads(); }

  private:
    struct Level {
        std::uint64_t id = 0;
        StepUndo undo;  ///< reverts the step into this level (unused at 0)
        std::vector<BehaviorMark> marks;
        MessageHashes mhash;
    };

    /// Rebuilds the live System as the root and the trail as level 0.
    void reset_to_root();
    /// Redoes the recorded step of `rec` on the live System and fills
    /// the next trail level with node `child_id`'s caches.
    void redo(std::uint64_t child_id, const DeltaRecord& rec);

    const Algorithm& algorithm_;
    int n_;
    std::vector<Value> inputs_;
    FailurePlan plan_;
    DeltaStore::Reader reader_;
    DigestSendFn digest_send_;
    /// The worker's one live System: always the state of trail_[top_].
    std::unique_ptr<System> live_;
    /// trail_[0] is the root (id 0); trail_[d] sits at BFS depth d of
    /// the current root path for d <= top_.  Levels above top_ are spare
    /// storage kept for reuse.
    std::vector<Level> trail_;
    std::size_t top_ = 0;
    std::uint64_t replay_steps_ = 0;
    /// Chain scratch, reused across calls.
    std::vector<std::pair<std::uint64_t, DeltaRecord>> chain_;
};

}  // namespace ksa::store
