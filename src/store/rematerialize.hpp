#pragma once
// Delta re-fork: materializing live Systems from delta records
// (doc/performance.md §6).
//
// A frontier node on the store path is a 16-byte DeltaRecord, not a
// live System.  When the explorer expands a node it asks a
// Rematerializer for the node's live state; the rematerializer walks
// the delta chain upward to the nearest retained full snapshot and
// replays the missing suffix of steps on a fork of it.
//
// The retained snapshots form a per-worker SPINE: the root-to-node path
// of the most recently materialized node, one forked System (plus its
// incremental digest caches) per level -- at most max_depth entries,
// a few dozen Systems per worker no matter how wide the frontier is.
// BFS id order gives strong locality: consecutive ids are siblings or
// cousins, whose chains share all but the last one or two levels with
// the spine, so the common case re-forks from the direct parent and
// replays a single step.  Replay depth is bounded by max_depth
// regardless, so the worst case (a cold worker, a layer boundary) is a
// dozen-step replay, not a from-scratch reconstruction.
//
// Each spine level carries the two incremental hash caches the
// explorer's ghost-stepping needs (the marks/mhash economy of the old
// in-RAM frontier, resurrected on the spine):
//
//   * marks: per-process stepped flag + behavior fold_state digest;
//   * mhash: per-process, per-buffered-message content digests,
//     advanced by diffing the live buffers across one applied step --
//     each message is hashed exactly once per spine, on arrival.
//
// The message digest function is injected (the explorer passes
// core/reduction.hpp's message_digest, sender + Payload::fold), keeping
// this layer below core/reduction in the layer DAG.
//
// DETERMINISM.  Materialization replays the same deterministic steps
// the original acceptance replayed, so the returned System (message
// ids included: fork() copies the id counter) is byte-identical to the
// state the merge phase accepted -- whichever worker materializes it,
// whatever the spine held before.  Spine hits affect CPU only.

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
/// mirrors the replay baseline's convention of keying an unstepped
/// process on the empty digest (see the state-key commentary in
/// core/explorer.cpp).
struct BehaviorMark {
    bool stepped = false;
    Digest128 hash{};
};

/// Per-process, per-buffered-message digest cache: mhash[p-1][i] is
/// the digest of the i-th message of p's buffer.
using MessageHashes = std::vector<std::vector<Digest128>>;

/// A materialized frontier node: the live System plus the incremental
/// caches, borrowed from the rematerializer's spine.  Valid until the
/// next materialize() call on the same rematerializer.
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
    /// root System from).
    using DigestSendFn = Digest128 (*)(ProcessId, const Payload&);

    Rematerializer(const Algorithm& algorithm, int n,
                   std::vector<Value> inputs, FailurePlan plan,
                   const DeltaStore& deltas, DigestSendFn digest_send);

    /// Live state + caches of node `id`.  Replays the delta chain from
    /// the deepest spine entry on the node's root path (the root itself
    /// in the worst case).
    MaterializedNode materialize(std::uint64_t id);

    /// The full schedule script of node `id` (root exclusive): the
    /// exact StepChoice sequence that re-creates it on a fresh System,
    /// with concrete message ids read back from the live buffers during
    /// replay.  Used to materialize violation witnesses.
    std::vector<StepChoice> script_of(std::uint64_t id);

    /// Delta-chain steps replayed so far (observability: spine misses;
    /// depends on work distribution, so it is excluded from every
    /// equivalence comparison, like steal counts).
    std::uint64_t replay_steps() const { return replay_steps_; }
    /// Spilled-record reads so far (observability).
    std::uint64_t spill_reads() const { return reader_.spill_reads(); }

  private:
    struct SpineEntry {
        std::uint64_t id = 0;
        std::unique_ptr<System> sys;
        std::vector<BehaviorMark> marks;
        MessageHashes mhash;
    };

    /// Forks `from` and advances the fork (and its caches) by one
    /// recorded step.
    SpineEntry advance(const SpineEntry& from, std::uint64_t child_id,
                       const DeltaRecord& rec);
    SpineEntry make_root() const;

    const Algorithm& algorithm_;
    int n_;
    std::vector<Value> inputs_;
    FailurePlan plan_;
    DeltaStore::Reader reader_;
    DigestSendFn digest_send_;
    /// spine_[0] is always the root (id 0); spine_[d] sits at BFS
    /// depth d of the current root path.
    std::vector<SpineEntry> spine_;
    std::uint64_t replay_steps_ = 0;
    /// Chain scratch, reused across calls.
    std::vector<std::pair<std::uint64_t, DeltaRecord>> chain_;
};

}  // namespace ksa::store
