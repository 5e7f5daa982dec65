#pragma once
// Scheduler interface.
//
// In the paper's model, asynchrony is an adversary: it picks which
// process takes the next step and which subset of that process's buffer
// is delivered in the step.  The simulator makes the adversary an
// explicit object.  A Scheduler observes the public execution state
// through a SystemView and returns StepChoices; every impossibility
// argument in the paper corresponds to a concrete Scheduler in
// sim/schedulers.hpp or an orchestration of several in core/.

#include <deque>
#include <optional>
#include <set>
#include <vector>

#include "sim/failure_plan.hpp"
#include "sim/message.hpp"
#include "sim/types.hpp"

namespace ksa {

/// One adversarial fault event, executed by the System *before* the
/// deliveries of the step it is attached to.  Fault events extend the
/// crash-only adversary of FailurePlan with the message-channel faults
/// of the chaos layer (src/chaos/): permanent message loss, duplication
/// and staggered crashes decided mid-run.  Every applied action is
/// recorded into the StepRecord, serialized in the KSARUN format and
/// re-applied on replay, so faulty runs stay bit-identically replayable.
struct FaultAction {
    enum class Kind {
        /// Removes `message` from its destination buffer permanently: the
        /// lossy-channel fault.  Dropping a message addressed to a
        /// correct process makes the run inadmissible (eventual delivery
        /// is violated), which sim/admissibility.cpp reports.
        kDropMessage,
        /// Clones `message` (same sender, receiver, payload and send
        /// time; fresh id from the injected-id space) into its
        /// destination buffer: the duplicating-channel fault.
        kDuplicateMessage,
        /// Crashes `process` -- which must be correct so far -- after its
        /// *next* own step, with the sends of that final step omitted to
        /// `omit_to`.  The effective FailurePlan of the run (and its
        /// record) is extended accordingly, so admissibility and
        /// failure-detector validation see the realized failure pattern.
        kCrashProcess,
        /// Byzantine channel corruption: rewrites buffered message
        /// `message` in place through the seeded deterministic mutator of
        /// sim/byzantine.hpp (`corrupt_seed` drives it) and renames it
        /// into the corruption id space of sim/message.hpp.  The sender
        /// is marked Byzantine in the effective FailurePlan
        /// (ByzantineSpec), so admissibility and classification see the
        /// realized fault pattern.
        kCorruptMessage,
        /// Byzantine equivocation: treats buffered message `message` as
        /// the anchor of a broadcast and rewrites every still-buffered
        /// sibling (same sender, send time and payload) into a
        /// receiver-specific divergent variant -- the sender now appears
        /// to have told every receiver a different story.  Forged ids
        /// come from the equivocation id space; the sender is marked
        /// Byzantine in the effective plan.
        kEquivocate,
    };

    Kind kind = Kind::kDropMessage;
    MessageId message = 0;        ///< target of the message faults
    ProcessId process = 0;        ///< victim of kCrashProcess
    std::set<ProcessId> omit_to;  ///< kCrashProcess: final-step omissions
    /// Mutator seed of kCorruptMessage / kEquivocate (serialized, so
    /// Byzantine runs replay byte-identically).
    std::uint64_t corrupt_seed = 0;

    friend bool operator==(const FaultAction&, const FaultAction&) = default;
};

/// One scheduling decision: which process steps next and which messages
/// from its buffer are delivered to it in that step.
struct StepChoice {
    ProcessId process = 0;
    /// Ids of messages to deliver, all of which must currently sit in the
    /// buffer of `process`.  May be empty (a step with L = {}).
    std::vector<MessageId> deliver;
    /// Convenience flag: deliver everything currently buffered for
    /// `process` (overrides `deliver`).
    bool deliver_all = false;
    /// Fault events applied before the deliveries of this step, in
    /// order.  A message dropped here must not also appear in `deliver`.
    std::vector<FaultAction> faults;

    friend bool operator==(const StepChoice&, const StepChoice&) = default;
};

/// Read-only view of the execution state, offered to schedulers.
class SystemView {
public:
    virtual ~SystemView() = default;

    virtual int n() const = 0;
    /// Global time of the *next* step (1 for the first).
    virtual Time now() const = 0;
    /// The pending buffer of `p` in arrival order.
    virtual const std::deque<Message>& buffer(ProcessId p) const = 0;
    /// True iff p has crashed already (realized, not just planned).
    virtual bool crashed(ProcessId p) const = 0;
    /// True iff p has decided already.
    virtual bool decided(ProcessId p) const = 0;
    /// Number of own steps p has executed so far.
    virtual int steps_of(ProcessId p) const = 0;
    /// The crash plan in force.
    virtual const FailurePlan& plan() const = 0;

    /// True iff p may still take a step under the plan.
    bool can_step(ProcessId p) const {
        if (crashed(p)) return false;
        int allowed = plan().allowed_steps(p);
        return allowed < 0 || steps_of(p) < allowed;
    }

    /// True iff every process that is correct under the plan has decided.
    bool all_correct_decided() const {
        for (ProcessId p = 1; p <= n(); ++p)
            if (!plan().is_faulty(p) && !decided(p)) return false;
        return true;
    }

    /// True iff the buffers of all correct processes are empty.
    bool correct_buffers_empty() const {
        for (ProcessId p = 1; p <= n(); ++p)
            if (!plan().is_faulty(p) && !buffer(p).empty()) return false;
        return true;
    }
};

/// The adversary: picks the next step, or std::nullopt to end the run
/// prefix.
class Scheduler {
public:
    virtual ~Scheduler() = default;

    /// Returns the next step to execute, or std::nullopt to stop.
    virtual std::optional<StepChoice> next(const SystemView& view) = 0;

    /// Scheduler name for traces.
    virtual std::string name() const = 0;
};

}  // namespace ksa
