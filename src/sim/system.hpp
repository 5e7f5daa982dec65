#pragma once
// The execution engine.
//
// A System instantiates one Behavior per process from an Algorithm, owns
// the per-process message buffers, enforces the FailurePlan, queries the
// failure-detector oracle (when the model has one) and records every step
// into a Run.  It can be driven in three ways:
//
//   * System::execute(scheduler, limits) -- the usual mode: the scheduler
//     (the asynchrony adversary) picks steps until it stops or a limit
//     trips;
//   * the step-wise apply_choice() API -- used by the run-pasting
//     machinery of core/ (Lemmas 11 and 12), which replays recorded step
//     sequences of several runs interleaved into a single new run;
//   * step_undoable() / undo_step() -- exactly invertible steps, with
//     which the explorer's store path moves one live, non-recording
//     System up and down the BFS tree (store/rematerialize.hpp).
//
// Everything is deterministic: the same (algorithm, inputs, plan, oracle,
// choice sequence) yields bit-identical Runs.

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/behavior.hpp"
#include "sim/failure_plan.hpp"
#include "sim/fd_oracle.hpp"
#include "sim/run.hpp"
#include "sim/scheduler.hpp"
#include "sim/types.hpp"

namespace ksa {

/// Hard bounds on an execution.
struct ExecutionLimits {
    /// Hard cap on the total number of steps; exceeding it stops the run
    /// with StopReason::kStepLimit (the signature of non-termination for
    /// a decision task).
    Time max_steps = 200000;
};

/// Everything System::undo_step needs to revert one step_undoable()
/// exactly.  A caller keeps one per level of its undo trail and reuses
/// it: the delivered and kept-destination vectors keep their capacity
/// from step to step.
struct StepUndo {
    ProcessId process = 0;              ///< the stepper
    Time time = 0;                      ///< now() when the step ran
    std::unique_ptr<Behavior> behavior; ///< clone of the pre-step behavior
    StepInput input;                    ///< the delivered buffer prefix
    std::vector<ProcessId> kept_to;     ///< destination of each kept send
    std::optional<Value> decision;      ///< the stepper's prior decision
    bool crashed = false;               ///< the stepper's prior crash flag
    MessageId next_msg_id = 0;          ///< the prior message-id counter
};

/// See file comment.
class System final : public SystemView {
public:
    /// Builds the initial configuration: behavior of process p gets
    /// inputs[p-1] as its proposal value.  `oracle` may be null iff the
    /// algorithm does not query a failure detector; it is borrowed and
    /// must outlive the System.
    System(const Algorithm& algorithm, int n, std::vector<Value> inputs,
           FailurePlan plan, FdOracle* oracle = nullptr);

    System(const System&) = delete;
    System& operator=(const System&) = delete;

    /// Deep snapshot of the live execution state: clones every Behavior
    /// (Behavior::clone), copies buffers, step counts, crash flags,
    /// decisions, the effective plan, the message-id counter and -- when
    /// recording is enabled -- the partial Run record.  The fork can be
    /// stepped independently of the original; the same choice sequence
    /// applied to both yields bit-identical states.  The reference
    /// explorer expands children from forks of live parent states; the
    /// store path never forks, it moves one live System along an undo
    /// trail instead (step_undoable, doc/performance.md §6.1).
    ///
    /// `verify_digests` additionally asserts (KSA_REQUIRE) that every
    /// cloned behavior round-trips digest-identically -- the executable
    /// form of the clone() contract.  It costs 2n digest renderings, so
    /// it defaults to on in Debug/sanitizer builds and off in optimized
    /// builds; hot paths pass false explicitly.
    ///
    /// The failure-detector oracle (if any) is *borrowed*, not cloned:
    /// both systems keep querying the same oracle object.
    std::unique_ptr<System> fork(bool verify_digests =
#ifdef NDEBUG
                                     false
#else
                                     true
#endif
                                 ) const;

    /// Current canonical state digest of process p's behavior (the same
    /// string StepRecord::digest_after records after each step).  This is
    /// a live accessor: callers no longer need to finish() a throwaway
    /// copy of the System to learn per-process state digests.
    std::string last_digest(ProcessId p) const;

    /// Clones the current behavior of p (Behavior::clone) *without*
    /// copying the rest of the System.  This is the ghost-stepping
    /// primitive of the fast explorer: to compute a child state's dedup
    /// key it steps a lone behavior clone and combines the outcome with
    /// the parent's (unchanged) buffers and flags, deferring the full
    /// fork() until the child is known to be new (doc/performance.md).
    std::unique_ptr<Behavior> clone_behavior(ProcessId p) const;

    /// Read-only access to the live behavior of p.  The fast explorer
    /// uses this to fold behavior state into a hash key
    /// (Behavior::fold_state) without cloning or rendering a digest
    /// string.
    const Behavior& behavior_of(ProcessId p) const;

    /// Fills `scratch.delivered` with the first `count` messages of p's
    /// buffer (the delivery prefixes the explorer enumerates), reusing
    /// the vector's capacity across calls -- the allocation-lean
    /// companion of clone_behavior for ghost stepping: one scratch
    /// StepInput per worker serves every candidate step of a layer.
    /// `count` must not exceed the buffer size.
    void deliver_prefix(ProcessId p, std::size_t count,
                        StepInput& scratch) const;

    /// Toggles step recording (default on).  With recording off,
    /// apply_choice still executes transitions, enforces the plan and
    /// updates all live state, but appends nothing to the Run record and
    /// skips the per-step digest rendering -- the configuration-space
    /// explorer uses this, where the schedule script *is* the record.
    /// finish()/execute() on a non-recording System return a Run with
    /// header fields only (n, algorithm, inputs, plan, stop) and skip
    /// the step-record shape checks.
    void set_recording(bool recording) { recording_ = recording; }
    bool recording() const { return recording_; }

    // -- SystemView --------------------------------------------------
    int n() const override { return n_; }
    Time now() const override { return now_; }
    const std::deque<Message>& buffer(ProcessId p) const override;
    bool crashed(ProcessId p) const override;
    bool decided(ProcessId p) const override;
    int steps_of(ProcessId p) const override;
    const FailurePlan& plan() const override { return plan_; }

    // -- stepping ----------------------------------------------------

    /// Executes one atomic step as described by `choice`.  Any fault
    /// events attached to the choice (chaos layer) are applied first, in
    /// order: drops remove buffered messages, duplicates clone them,
    /// corruptions/equivocations rewrite them in place with forged ids
    /// and Byzantine-mutated payloads (extending the effective plan's
    /// ByzantineSpecs), and crash injections extend the effective
    /// FailurePlan so the victim's next step is its final one.  Throws
    /// UsageError if the choice is illegal (crashed/dead process, message
    /// id not in the buffer, plan exhausted, conflicting fault).
    void apply_choice(const StepChoice& choice);

    /// The StepChoice that delivers the first `count` buffered messages
    /// of `p`.  The explorer's delivery modes are always buffer
    /// prefixes, so the out-of-core store (src/store/) records only the
    /// prefix LENGTH per node and rebuilds the concrete choice --
    /// message ids included -- from the live parent buffer when a
    /// violation witness is scripted from its delta chain.
    StepChoice prefix_choice(ProcessId p, std::size_t count) const;

    /// Executes the step that delivers the first `count` buffered
    /// messages of `p` -- the transition apply_choice(prefix_choice(p,
    /// count)) executes, message ids included -- and captures into
    /// `undo` what undo_step needs to revert it exactly.  A final-step
    /// omission still uses up a message id, as in apply_choice.
    /// Requires a live, non-recording System whose algorithm queries no
    /// failure detector; `count` must not exceed the buffer size.
    void step_undoable(ProcessId p, std::size_t count, StepUndo& undo);

    /// Reverts the step captured in `undo`, which must be the latest
    /// step not yet undone (LIFO): afterwards every buffer (ids, order,
    /// payloads), behavior, decision, crash flag, step count, now() and
    /// the message-id counter equal their values before the step.
    /// Consumes the saved behavior; `undo` keeps its capacity for reuse.
    void undo_step(StepUndo& undo);

    /// Records the scheduler label into the run metadata (System::execute
    /// does this automatically; step-wise drivers replaying a recorded
    /// run set it from Run::scheduler to keep replays byte-identical).
    void set_scheduler_label(std::string label);

    /// Runs `scheduler` until it stops or `limits.max_steps` is reached,
    /// then finalizes and returns the recorded Run.  The System is spent
    /// afterwards.
    Run execute(Scheduler& scheduler, ExecutionLimits limits = {});

    /// Finalizes the record without a scheduler (step-wise mode).
    Run finish(StopReason reason);

    /// Decision of p so far, if any.
    std::optional<Value> decision_of(ProcessId p) const;

private:
    /// Tag + constructor backing fork(): copies everything except the
    /// behaviors, which the caller clones one by one.
    struct ForkTag {};
    System(ForkTag, const System& other);

    void check_pid(ProcessId p, const char* who) const;
    /// The one state transition apply_choice and step_undoable share:
    /// the plan check, the delivery invariants, the failure-detector
    /// query, Behavior::on_step, send placement (final-step omissions
    /// included, ids in emission order), the write-once decision, the
    /// crash flag and the counters.  `input.delivered` holds the
    /// messages the caller already took out of p's buffer.  `rec`, if
    /// given, receives the step's effects for the run record; `kept_to`,
    /// if given, the destination of every send that reached a buffer.
    void transition(ProcessId p, StepInput& input, StepRecord* rec,
                    std::vector<ProcessId>* kept_to);
    void apply_fault(const FaultAction& action, StepRecord& rec);
    /// Charges a realized Byzantine fault event to `sender` in both the
    /// live plan and the run record (FailurePlan::note_byzantine).
    void note_byzantine(ProcessId sender, int corruptions, int equivocations);
    /// Locates a buffered message by id; returns the owning buffer or
    /// nullptr.  `out_it` receives the message's position on success.
    std::deque<Message>* find_buffered(MessageId id,
                                       std::deque<Message>::iterator* out_it);

    int n_;
    std::string algo_name_;
    bool uses_fd_;
    std::vector<Value> inputs_;
    FailurePlan plan_;
    FdOracle* oracle_;

    std::vector<std::unique_ptr<Behavior>> behaviors_;  // index p-1
    std::vector<std::deque<Message>> buffers_;          // index p-1
    std::vector<int> step_counts_;                      // index p-1
    std::vector<bool> crashed_;                         // index p-1
    std::vector<std::optional<Value>> decisions_;       // index p-1

    Time now_ = 1;
    MessageId next_msg_id_ = 1;
    std::map<MessageId, int> duplicate_counts_;  ///< clones per source id
    Run run_;
    bool finished_ = false;
    bool recording_ = true;
};

/// Convenience wrapper: build a System and execute it in one call.
Run execute_run(const Algorithm& algorithm, int n, std::vector<Value> inputs,
                FailurePlan plan, Scheduler& scheduler,
                FdOracle* oracle = nullptr, ExecutionLimits limits = {});

/// Convenience: inputs 1..n as distinct proposal values (the paper's
/// all-distinct assumption, |V| > n).
std::vector<Value> distinct_inputs(int n);

/// Convenience: all processes propose `v`.
std::vector<Value> uniform_inputs(int n, Value v);

}  // namespace ksa
