#pragma once
// Run records.
//
// A run is an infinite sequence of configurations in the paper; the
// simulator executes and records a finite prefix that is long enough to
// be decisive for decision tasks (every correct process has decided and
// the communication among correct processes has quiesced).  The record
// keeps, per step: who stepped, what was delivered, what was sent,
// whether a decision was made, the failure-detector sample (if any) and
// the canonical state digest after the step.  This is sufficient to
// evaluate every predicate the paper defines on runs: k-agreement /
// validity / termination, indistinguishability-until-decision
// (Definition 2), compatibility (Definition 3), the (dec-D) conditions of
// Theorem 1, and failure-detector history admissibility.

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/failure_plan.hpp"
#include "sim/fd_oracle.hpp"
#include "sim/message.hpp"
#include "sim/scheduler.hpp"
#include "sim/types.hpp"

namespace ksa {

/// The record of a single atomic step.
struct StepRecord {
    Time time = 0;                     ///< global time of this step
    ProcessId process = 0;             ///< the process that stepped
    std::vector<Message> delivered;    ///< subset L received in this step
    std::vector<Message> sent;         ///< messages placed into buffers
    std::vector<Message> omitted;      ///< sends dropped by a final crashing step
    std::vector<FaultAction> faults;   ///< injected fault events applied before
                                       ///< this step's deliveries, in order
    std::vector<Message> dropped;      ///< messages removed by kDropMessage
    std::vector<Message> injected;     ///< clones added by kDuplicateMessage
    std::vector<Message> tampered;     ///< originals replaced by a Byzantine
                                       ///< forgery (kCorruptMessage /
                                       ///< kEquivocate), as they were sent
    std::vector<Message> forged;       ///< the Byzantine replacements, with
                                       ///< forged ids and mutated payloads
    std::optional<FdSample> fd;        ///< failure-detector sample, if queried
    std::optional<Value> decision;     ///< decision made in this step, if any
    std::string digest_after;          ///< state digest after the step
    bool final_crash_step = false;     ///< true iff the process crashed at the
                                       ///< end of this step
};

/// Why the executor stopped extending the run prefix.
enum class StopReason {
    kQuiescent,       ///< all correct processes decided and drained
    kSchedulerEnded,  ///< the scheduler declined to pick another step
    kStepLimit,       ///< the hard step cap was reached (likely non-termination)
};

/// Renders a StopReason for reports.
std::string to_string(StopReason r);

/// Per-process facts of a run, gathered in one walk over its steps by
/// Run::tally().  Entry p-1 belongs to process p, for p in 1..n.  The
/// run's checkers (sim/admissibility, core/kset_spec) read these instead
/// of walking the run once per process and question.
struct RunTally {
    std::vector<int> steps;                       ///< Run::steps_of(p)
    std::vector<std::optional<Value>> decision;   ///< Run::decision_of(p)
    std::vector<std::vector<MessageId>> pending;  ///< Run::undelivered_to(p)
    std::set<Value> distinct;                     ///< Run::distinct_decisions()
};

/// A recorded (finite prefix of a) run.
struct Run {
    int n = 0;                          ///< system size the algorithm believes
    std::string algorithm;              ///< algorithm name
    std::string scheduler;              ///< scheduler label (seed and all: a
                                        ///< run is replayable from its record
                                        ///< alone; empty in step-wise mode)
    std::vector<Value> inputs;          ///< proposal x_p, index p-1
    FailurePlan plan;                   ///< the *effective* crash plan: the
                                        ///< static plan extended by every
                                        ///< injected kCrashProcess fault
    std::vector<StepRecord> steps;      ///< the executed step sequence
    FdHistory fd_history;               ///< all failure-detector samples
    StopReason stop = StopReason::kSchedulerEnded;

    /// Decision of p, if p decided in this prefix.
    std::optional<Value> decision_of(ProcessId p) const;

    /// Time of p's deciding step, or kNever.
    Time decision_time_of(ProcessId p) const;

    /// The set of distinct values decided by any process in this prefix.
    std::set<Value> distinct_decisions() const;

    /// The set of distinct values decided by processes in `group`.
    std::set<Value> distinct_decisions(const std::vector<ProcessId>& group) const;

    /// True iff every process in `group` that is correct under the plan
    /// decided in this prefix.
    bool all_correct_decided(const std::vector<ProcessId>& group) const;

    /// True iff every correct process (1..n) decided in this prefix.
    bool all_correct_decided() const;

    /// Realized crash time of p: the time of its final step + 1, 1 for an
    /// initially dead process, or kNever if p never crashed in this
    /// prefix.  Matches the paper's F(t): p in F(t) iff p takes no step
    /// at any time >= t.
    Time crash_time_of(ProcessId p) const;

    /// Realized faulty set of this prefix.
    std::set<ProcessId> crashed() const;

    /// Number of own steps p executed.
    int steps_of(ProcessId p) const;

    /// The sequence of state digests of p, one per own step, truncated
    /// just after p's deciding step when `until_decision` is true.  This
    /// is the object Definition 2 compares.
    std::vector<std::string> digest_sequence(ProcessId p,
                                             bool until_decision = true) const;

    /// Times of all steps in which p received at least one message sent
    /// by a member of `senders`.
    std::vector<Time> receptions_from(ProcessId p,
                                      const std::vector<ProcessId>& senders) const;

    /// True iff p received no message from any process in `senders`
    /// strictly before time `deadline`.
    bool silent_from_until(ProcessId p, const std::vector<ProcessId>& senders,
                           Time deadline) const;

    /// Total number of messages sent in this prefix.
    std::size_t messages_sent() const;

    /// Message ids sent to `p` (duplicate injections included) that were
    /// never delivered in this prefix, ascending.  Messages removed by an
    /// injected drop stay listed: a drop to a correct receiver is exactly
    /// the eventual-delivery violation admissibility checking must flag.
    std::vector<MessageId> undelivered_to(ProcessId p) const;

    /// Every process's step count, decision and undelivered ids, plus
    /// the distinct decisions, from one walk over the steps.
    RunTally tally() const;

    // -- chaos-layer accessors ---------------------------------------

    /// All injected fault events in step order, paired with the 0-based
    /// index of the step they were applied in.
    std::vector<std::pair<std::size_t, FaultAction>> fault_events() const;

    /// Number of injected fault events in this prefix.
    std::size_t num_fault_events() const;

    /// Victims of injected kCrashProcess faults.
    std::set<ProcessId> injected_crash_victims() const;

    /// Senders charged with at least one Byzantine fault event
    /// (kCorruptMessage / kEquivocate) in this prefix.  Matches
    /// `plan.byzantine()` on a finalized record.
    std::set<ProcessId> byzantine_senders() const;

    /// The *static* crash plan: `plan` with every injected-crash victim
    /// removed and every ByzantineSpec stripped (Byzantine specs are
    /// realized bookkeeping; replaying the recorded fault stream rebuilds
    /// them).  This is the plan a from-scratch re-execution of the
    /// recorded choice sequence (faults included) must start from.
    FailurePlan static_plan() const;
};

/// Indistinguishability until decision (Definition 2): process p has the
/// same sequence of states in `a` and `b` until p decides.  Both runs
/// must be runs of the same algorithm from p's perspective.
bool indistinguishable_for(const Run& a, const Run& b, ProcessId p);

/// Definition 2's  a ~_D b : indistinguishable-until-decision for every
/// process in D.
bool indistinguishable_for_all(const Run& a, const Run& b,
                               const std::vector<ProcessId>& group);

/// Compatibility of run sets (Definition 3): R' is compatible with R for
/// the processes in `group` (written R' 4_group R) iff every run of R'
/// has a group-indistinguishable counterpart in R.  On success returns
/// the index into `r` chosen for each member of `r_prime`; on failure
/// returns std::nullopt (and, if `out_witness` is non-null, the index of
/// the first run of R' without a counterpart).
std::optional<std::vector<std::size_t>> compatible_for(
        const std::vector<Run>& r_prime, const std::vector<Run>& r,
        const std::vector<ProcessId>& group,
        std::size_t* out_witness = nullptr);

}  // namespace ksa
