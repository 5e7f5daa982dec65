#pragma once
// The process state-machine interface.
//
// Every process is a deterministic state machine (Section II).  One
// atomic step consumes: the current local state, a (possibly empty)
// subset L of the process's message buffer chosen by the scheduler, and
// -- in models with failure detectors -- the value of a failure-detector
// query made at the beginning of the step.  The step yields a new local
// state and a set of messages to send, and may irrevocably set the
// write-once output y_p (the decision).
//
// An Algorithm is a factory creating one Behavior per process.  Behaviors
// must be deterministic: the same sequence of StepInputs from the same
// initial (id, n, input) must produce the same outputs and the same
// state digests.  The digest is the substrate's view of the local state
// and is what indistinguishability-until-decision (Definition 2) compares.

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/digest.hpp"
#include "sim/message.hpp"
#include "sim/payload.hpp"
#include "sim/types.hpp"

namespace ksa {

/// Output of a failure-detector query, made at the beginning of a step.
/// The two fields cover the detector classes used in the paper: `quorum`
/// is the trusted set output by Sigma-family detectors, `leaders` the
/// candidate set output by Omega-family detectors.  Detectors that lack a
/// component leave it empty.
struct FdSample {
    std::vector<ProcessId> quorum;   ///< Sigma-family output (sorted)
    std::vector<ProcessId> leaders;  ///< Omega-family output (sorted)

    friend bool operator==(const FdSample&, const FdSample&) = default;

    /// Canonical rendering `Q{..}L{..}` for digests and traces.
    std::string to_string() const;
};

/// Everything a process observes in one atomic step.
struct StepInput {
    /// Messages delivered in this step (the subset L of the buffer chosen
    /// by the scheduler; possibly empty).
    std::vector<Message> delivered;
    /// Failure-detector sample, present iff the model provides one.
    std::optional<FdSample> fd;
};

/// Everything a process emits in one atomic step.
struct StepOutput {
    /// Messages to send: (destination, payload) pairs.  Destinations must
    /// be in 1..n.  Self-sends are allowed.  Sends of one broadcast share
    /// one payload body.
    std::vector<std::pair<ProcessId, SharedPayload>> sends;
    /// If set, the process irrevocably decides this value.  Deciding a
    /// second time is a protocol bug and aborts the simulation.
    std::optional<Value> decision;

    /// Appends a send of `payload` to process `to`.
    void send(ProcessId to, SharedPayload payload) {
        sends.emplace_back(to, std::move(payload));
    }
};

/// A process renaming for symmetry reduction: `ren[p-1]` is the new
/// name of process p.  Always a permutation of 1..n.
using ProcessRenaming = std::vector<ProcessId>;

/// What the reduction layer (core/reduction.hpp) may assume about an
/// algorithm's treatment of process ids.  Declaring anything other than
/// kNone is a *soundness claim* (doc/extending.md): for every renaming
/// pi the symmetry group admits, running the renamed configuration must
/// produce the pi-renamed run -- same decision values, renamed ids.
enum class SymmetryKind {
    /// No claim; the symmetry group is forced trivial (identity only).
    kNone,
    /// Fully id-symmetric: equivariant under EVERY renaming that fixes
    /// the inputs vector (decisions depend on ids only through values,
    /// e.g. flooding's min-value rule).
    kFull,
    /// Id-symmetric only under renamings that additionally keep every
    /// equal-input class a contiguous id block (algorithms that break
    /// ties by smallest id, e.g. the initial-clique source-component
    /// rule, stay value-equivariant exactly on such block renamings).
    kBlockSymmetric,
};

/// Deterministic per-process state machine.
class Behavior {
public:
    virtual ~Behavior() = default;

    /// Executes one atomic step.  Called by the System only.
    virtual StepOutput on_step(const StepInput& input) = 0;

    /// Canonical rendering of the complete local state.  Two behaviors of
    /// the same algorithm are in the same state iff their digests are
    /// equal; this is what run indistinguishability compares.
    virtual std::string state_digest() const = 0;

    /// Folds the complete local state into `h` WITHOUT materializing the
    /// digest string.  Contract: fold_state must distinguish exactly the
    /// states state_digest distinguishes -- two behaviors of the same
    /// algorithm feed identical byte streams iff their state_digest()s
    /// are equal.  The default implementation hashes the digest string
    /// and is always correct; hot algorithms override it to fold their
    /// raw fields directly, because the fast explorer calls this once
    /// per candidate child (core/explorer.cpp ghost stepping) and the
    /// string rendering dominates its profile otherwise.  The golden
    /// equivalence suite cross-checks fast (fold_state-keyed) against
    /// reference (state_digest-keyed) exploration, so an override that
    /// drifts from its state_digest shows up as a state-count mismatch.
    virtual void fold_state(StateHasher& h) const { h.str(state_digest()); }

    /// Folds the local state as it would look after renaming every
    /// process id through `ren` -- the symmetry-reduction counterpart of
    /// fold_state.  Contract: the byte stream must equal what
    /// fold_state would produce on the behavior that the *renamed*
    /// execution reaches in this state (ids mapped, id-keyed containers
    /// re-sorted under the new ids, values untouched).  Returns false
    /// (and must fold nothing) when the behavior does not support
    /// renaming; the reduction layer then forces the symmetry group
    /// trivial.  Only algorithms declaring a SymmetryKind other than
    /// kNone need to override this (doc/extending.md).
    virtual bool fold_state_renamed(StateHasher& h,
                                    const ProcessRenaming& ren) const {
        (void)h;
        (void)ren;
        return false;
    }

    /// Conservative send-quiescence claim for partial-order reduction
    /// (core/reduction.hpp).  Returning false asserts: from the current
    /// local state, NO future step of this behavior will ever emit a
    /// send, no matter what inputs are delivered.  The claim must be
    /// monotone (once false, every successor state must also answer
    /// false).  The reduced explorer prioritizes a process only when
    /// every *other* live process is send-quiescent -- the condition
    /// under which the process's receive-only moves commute with every
    /// future move of the rest of the system (doc/performance.md has
    /// the argument, doc/extending.md the override checklist).  The
    /// default is the always-safe "may still send", which simply makes
    /// the reduction find nothing to prioritize.
    virtual bool may_send() const { return true; }

    /// Absorption claim for the reduced explorer's observational
    /// quotient (core/reduction.hpp).  Returning true asserts: from the
    /// current local state onward, delivering this message -- now or at
    /// any future step, in any batch -- changes NOTHING: no future
    /// StepOutput, and no future fold_state/state_digest (the ingest
    /// must discard it without a trace).  Like may_send, the claim must
    /// be monotone: once a message is inert for this behavior it stays
    /// inert in every successor state.  The reduced engine deletes
    /// inert messages from its dedup keys and quiescence checks
    /// wherever they sit in the buffer: delivering a prefix that spans
    /// inert messages is observation-equivalent to delivering its live
    /// subsequence, and the one delivery-granularity gap the deletion
    /// opens is bridged by empty-delivery steps, which are in every
    /// process's menu at every state (doc/performance.md has the full
    /// stutter argument).  The default "nothing is inert" simply makes
    /// the quotient the identity.
    virtual bool message_inert(ProcessId from, const Payload& payload) const {
        (void)from;
        (void)payload;
        return false;
    }

    /// Deep copy of the complete local state.  The clone must be
    /// behaviorally indistinguishable from the original: identical
    /// state_digest() now, and identical outputs/digests under any
    /// identical sequence of future StepInputs.  Behaviors are value
    /// types (no hidden global state is allowed -- see the determinism
    /// contract above), so implementations are one line:
    ///
    ///     std::unique_ptr<Behavior> clone() const override {
    ///         return std::make_unique<MyBehavior>(*this);
    ///     }
    ///
    /// This is what makes configurations snapshot-able: System::fork()
    /// clones every behavior so the explorer (core/explorer.hpp) can
    /// expand children from a live parent state instead of replaying the
    /// whole schedule prefix from the initial configuration.
    virtual std::unique_ptr<Behavior> clone() const = 0;
};

/// 128-bit digest of one behavior's local state: fold_state in a fresh
/// hasher.  The behavior digest every hashed state key folds (the
/// store-path explorer's keys, its trail caches and its transition
/// memo).
inline Digest128 behavior_hash(const Behavior& b) {
    StateHasher h;
    b.fold_state(h);
    return h.digest();
}

/// A distributed algorithm: a recipe producing the initial Behavior of
/// each process.  `n` is the size the algorithm *believes* the system has
/// -- under restriction A|D (Definition 1) the real process set can be
/// smaller, but the code must keep using n.
class Algorithm {
public:
    virtual ~Algorithm() = default;

    /// Creates the state machine of process `id` (1-based) in a system
    /// the algorithm believes to have `n` processes, with proposal value
    /// `input`.
    virtual std::unique_ptr<Behavior> make_behavior(ProcessId id, int n,
                                                    Value input) const = 0;

    /// Human-readable algorithm name for traces and reports.
    virtual std::string name() const = 0;

    /// True if behaviors of this algorithm query a failure detector each
    /// step and therefore need the System to be given an oracle.
    virtual bool needs_failure_detector() const { return false; }

    /// The algorithm's symmetry claim (see SymmetryKind).  kNone -- the
    /// default -- keeps the reduction layer's symmetry group trivial;
    /// declaring more requires overriding fold_state_renamed on every
    /// behavior and rename_payload_ids here, and asserts the
    /// equivariance contract documented in doc/extending.md.
    virtual SymmetryKind symmetry() const { return SymmetryKind::kNone; }

    /// Rewrites every process id carried inside `payload` through `ren`
    /// (the algorithm knows which payload fields are ids; values are
    /// untouched).  Contract: the result must equal the payload the
    /// renamed execution would have sent, including canonical field
    /// ordering (e.g. sorted heard-lists stay sorted under the new
    /// ids).  Returns false when the algorithm cannot rename its
    /// payloads; the reduction layer then forces the symmetry group
    /// trivial.
    virtual bool rename_payload_ids(Payload& payload,
                                    const ProcessRenaming& ren) const {
        (void)payload;
        (void)ren;
        return false;
    }

    /// Finality claim for the reduced explorer's observational quotient
    /// (core/reduction.hpp).  Returning true asserts: once a behavior of
    /// this algorithm has decided, NO future step of it emits any send
    /// or further decision, under any delivered inputs.  (Internal
    /// bookkeeping may still change -- the claim is about outputs only.)
    /// The reduced engine then treats decided processes as drained: it
    /// keys them on the decision value alone, ignores their buffers and
    /// crash flags, and skips their step choices -- collapsing the
    /// drain-and-crash tails of runs whose decisions are already fixed.
    /// The default false keeps the collapse off.
    virtual bool decided_is_final() const { return false; }
};

}  // namespace ksa
