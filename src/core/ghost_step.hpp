#pragma once
// Ghost stepping for the store-path explorer (core/explorer.cpp,
// doc/performance.md §2.2): the effects of one candidate step of one
// process, computed without forking its System, and the per-worker
// memo of local transitions that serves most candidates without
// stepping at all.
//
// A ghost step clones only the stepping process's behavior, runs
// on_step on the clone with the delivered buffer prefix, and digests
// what came out: the decision, every send as (destination, message
// digest), and the clone's fold_state digest.  The explorer keys the
// child configuration from the node's caches with those effects
// patched in.
//
// THE TRANSITION MEMO.  A process is a deterministic state machine
// (Section II, sim/behavior.hpp): a step's outputs depend only on the
// process's local state and the messages it is delivered.  Every
// engine already keys a local state as (process, stepped flag,
// fold_state digest) -- the iff-stepped convention, under which an
// unstepped process is its initial behavior -- and a message as its
// sender and payload, leaving message ids and send times out.  So a
// transition is named by
//
//     (stepper, stepped flag, behavior digest, delivered count,
//      digest of each delivered message)
//
// and its outputs are a function of that name, as far as any key can
// tell.  The memo maps a 128-bit digest of the name (transition_key)
// to the outputs, and a hit fills the GhostStep with no clone, no
// on_step, no fold_state and no message digest.  A final crash step's
// omissions come from the FailurePlan and the step count, not from the
// behavior, so they are applied per candidate on top of the recorded
// sends.  Debug builds re-step every hit and require the recorded
// outputs: the executable form of the step-determinism premise.
//
// What a hit cannot supply is the stepped clone and the send payloads.
// The memo therefore serves only explorations whose child keys read
// nothing else: absorption off (inert messages are judged by the
// stepped clone and by payload) and a trivial symmetry group
// (renamings fold the clone and the payloads).  That is kFast, and
// kReduced with absorption and symmetry off; partial-order reduction
// reads only the outputs.
//
// The memo holds at most kMaxSlots transitions (a constant: no option),
// in buckets of four slots picked by the key's low bits, newest first.
// It is allocated on first use and doubled as it fills, up to the cap;
// a new transition for a full bucket replaces the bucket's oldest.
// Results never depend on hits, only CPU does.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "sim/behavior.hpp"
#include "sim/digest.hpp"
#include "sim/system.hpp"
#include "sim/types.hpp"
#include "store/rematerialize.hpp"

namespace ksa::core {

/// One send of a ghost step.
struct GhostSend {
    ProcessId dest = 0;
    Digest128 hash{};  ///< message digest of (stepper, payload)
    /// The payload, held by GhostStep::out; nullptr on a memo hit.
    const SharedPayload* payload = nullptr;
};

/// Effects of one ghost step of one process.
struct GhostStep {
    std::size_t delivered = 0;     ///< length of the delivered buffer prefix
    bool final_crash = false;      ///< step count hit the crash plan
    const std::set<ProcessId>* omit_to = nullptr;  ///< final-step omissions
    std::optional<Value> decision;  ///< decision of the step
    /// Every send of the step in emission order, omitted ones included.
    std::vector<GhostSend> sends;
    Digest128 bhash{};  ///< behavior_hash() after the step
    /// The stepped clone and its raw output (GhostSend::payload points
    /// into `out`), both empty on a memo hit.  Symmetry renamings fold
    /// the clone again (fold_state_renamed) and the absorption quotient
    /// asks it which buffered messages are inert.
    std::unique_ptr<Behavior> behavior;
    StepOutput out;

    /// True iff a send to `dest` actually reaches its buffer.
    bool send_survives(ProcessId dest) const {
        return !(final_crash && omit_to != nullptr && omit_to->count(dest) != 0);
    }
};

/// The memo key of a transition: `stepper` in the local state `mark`
/// delivered the first `delivered` messages of its buffer, whose
/// message digests are `buffered` (the trail's cache of its buffer).
/// Never the zero digest, which marks an empty memo slot.
Digest128 transition_key(ProcessId stepper, const store::BehaviorMark& mark,
                         const std::vector<Digest128>& buffered,
                         std::size_t delivered);

/// The transition memo (see file comment).  One per worker; never
/// shared.
class TransitionMemo {
public:
    /// Transitions the memo holds at most.
    static constexpr std::size_t kMaxSlots = 1024;

    /// A recorded step's outputs.
    struct Transition {
        Digest128 bhash{};
        std::vector<std::pair<ProcessId, Digest128>> sends;
        std::optional<Value> decision;
    };

    /// The transition recorded under `key`, or nullptr.
    const Transition* recall_transition(const Digest128& key) const;
    /// The slot to fill for `key`: an empty one, or the one whose
    /// transition it replaces.
    Transition& record_transition(const Digest128& key);

    /// Transitions the memo holds.
    std::size_t transitions_held() const { return held_; }

private:
    /// A slot is empty iff its key is zero (64 bytes a slot).
    struct Slot {
        Digest128 key{};
        Transition step;
    };
    static constexpr std::size_t kInitialSlots = 64;
    static constexpr std::size_t kWays = 4;  ///< slots per bucket

    /// First slot of `key`'s bucket in a table of `slots` slots.
    static std::size_t bucket_of(const Digest128& key, std::size_t slots);
    /// Doubles the table.  Lossless: bucket b's transitions move to
    /// bucket b or b plus the old bucket count, in their order.
    void double_slots();

    std::vector<Slot> slots_;
    std::size_t held_ = 0;
};

/// Per-worker ghost stepping: the StepInput scratch (its capacity is
/// reused across candidates) and, when the exploration's keys read
/// only a step's outputs, the transition memo.
class GhostStepper {
public:
    /// Digests one sent message (core/reduction.hpp's message_digest).
    using DigestSendFn = store::Rematerializer::DigestSendFn;

    GhostStepper(DigestSendFn digest_send, bool memoize);

    /// Ghost-steps `p` of `sys` delivering the first `delivered`
    /// messages of its buffer, into `g` (overwritten).  `mark` and
    /// `buffered` are p's behavior mark and buffered-message digests at
    /// the node (the trail's caches); only the memo reads them.
    void ghost_step(const System& sys, ProcessId p, std::size_t delivered,
                    const store::BehaviorMark& mark,
                    const std::vector<Digest128>& buffered, GhostStep& g);

    /// The memo, or nullptr when this stepper does not memoize.
    const TransitionMemo* memo() const { return memo_ ? &*memo_ : nullptr; }

private:
    /// Runs the step on a clone of p's behavior and digests its outputs.
    void run_step(const System& sys, ProcessId p, GhostStep& g);

    DigestSendFn digest_send_;
    StepInput input_;
    std::optional<TransitionMemo> memo_;
};

}  // namespace ksa::core
