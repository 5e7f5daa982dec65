#include "sim/system.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "check/contract.hpp"
#include "sim/byzantine.hpp"

namespace ksa {

System::System(const Algorithm& algorithm, int n, std::vector<Value> inputs,
               FailurePlan plan, FdOracle* oracle)
    : n_(n),
      algo_name_(algorithm.name()),
      uses_fd_(algorithm.needs_failure_detector()),
      inputs_(std::move(inputs)),
      plan_(std::move(plan)),
      oracle_(oracle) {
    require(n_ >= 1, "System: n must be >= 1");
    require(static_cast<int>(inputs_.size()) == n_,
            "System: need exactly n inputs");
    require(!uses_fd_ || oracle_ != nullptr,
            "System: algorithm queries a failure detector but no oracle given");
    behaviors_.reserve(n_);
    for (ProcessId p = 1; p <= n_; ++p)
        behaviors_.push_back(algorithm.make_behavior(p, n_, inputs_[p - 1]));
    buffers_.resize(n_);
    step_counts_.assign(n_, 0);
    crashed_.assign(n_, false);
    decisions_.assign(n_, std::nullopt);

    run_.n = n_;
    run_.algorithm = algo_name_;
    run_.inputs = inputs_;
    run_.plan = plan_;
}

System::System(ForkTag, const System& other)
    : n_(other.n_),
      algo_name_(other.algo_name_),
      uses_fd_(other.uses_fd_),
      inputs_(other.inputs_),
      plan_(other.plan_),
      oracle_(other.oracle_),  // borrowed in both systems, see fork() doc
      buffers_(other.buffers_),
      step_counts_(other.step_counts_),
      crashed_(other.crashed_),
      decisions_(other.decisions_),
      now_(other.now_),
      next_msg_id_(other.next_msg_id_),
      duplicate_counts_(other.duplicate_counts_),
      finished_(other.finished_),
      recording_(other.recording_) {
    if (recording_) run_ = other.run_;
    behaviors_.reserve(static_cast<std::size_t>(n_));
}

std::unique_ptr<System> System::fork(bool verify_digests) const {
    KSA_REQUIRE(!finished_, "System::fork: run already finalized");
    // make_unique cannot reach the private constructor; plain new can.
    std::unique_ptr<System> copy(new System(ForkTag{}, *this));
    if (!recording_) {
        // Header-only Run for the non-recording fork (finish() promises
        // exactly these fields).
        copy->run_.n = n_;
        copy->run_.algorithm = algo_name_;
        copy->run_.inputs = inputs_;
        copy->run_.plan = plan_;
    }
    for (ProcessId p = 1; p <= n_; ++p) {
        copy->behaviors_.push_back(behaviors_[p - 1]->clone());
        if (verify_digests) {
            KSA_REQUIRE(copy->behaviors_[p - 1]->state_digest() ==
                            behaviors_[p - 1]->state_digest(),
                        "System::fork: Behavior::clone broke the digest "
                        "round-trip contract");
        }
    }
    return copy;
}

std::string System::last_digest(ProcessId p) const {
    check_pid(p, "System::last_digest");
    return behaviors_[p - 1]->state_digest();
}

std::unique_ptr<Behavior> System::clone_behavior(ProcessId p) const {
    check_pid(p, "System::clone_behavior");
    return behaviors_[p - 1]->clone();
}

const Behavior& System::behavior_of(ProcessId p) const {
    check_pid(p, "System::behavior_of");
    return *behaviors_[p - 1];
}

void System::deliver_prefix(ProcessId p, std::size_t count,
                            StepInput& scratch) const {
    check_pid(p, "System::deliver_prefix");
    const auto& buf = buffers_[p - 1];
    KSA_REQUIRE(count <= buf.size(),
                "System::deliver_prefix: prefix longer than the buffer");
    scratch.delivered.assign(buf.begin(),
                             buf.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(count, buf.size())));
}

void System::check_pid(ProcessId p, const char* who) const {
    if (p < 1 || p > n_) {
        std::ostringstream out;
        out << who << ": process id " << p << " out of range 1.." << n_;
        throw UsageError(out.str());
    }
}

const std::deque<Message>& System::buffer(ProcessId p) const {
    check_pid(p, "System::buffer");
    return buffers_[p - 1];
}

bool System::crashed(ProcessId p) const {
    check_pid(p, "System::crashed");
    return crashed_[p - 1] || plan_.is_initially_dead(p);
}

bool System::decided(ProcessId p) const {
    check_pid(p, "System::decided");
    return decisions_[p - 1].has_value();
}

int System::steps_of(ProcessId p) const {
    check_pid(p, "System::steps_of");
    return step_counts_[p - 1];
}

std::optional<Value> System::decision_of(ProcessId p) const {
    check_pid(p, "System::decision_of");
    return decisions_[p - 1];
}

std::deque<Message>* System::find_buffered(
        MessageId id, std::deque<Message>::iterator* out_it) {
    for (auto& buf : buffers_) {
        auto it = std::find_if(buf.begin(), buf.end(),
                               [id](const Message& m) { return m.id == id; });
        if (it != buf.end()) {
            *out_it = it;
            return &buf;
        }
    }
    return nullptr;
}

void System::apply_fault(const FaultAction& action, StepRecord& rec) {
    switch (action.kind) {
        case FaultAction::Kind::kDropMessage: {
            std::deque<Message>::iterator it;
            std::deque<Message>* buf = find_buffered(action.message, &it);
            KSA_REQUIRE(buf != nullptr,
                        "System::apply_fault: dropped message not buffered");
            if (buf == nullptr) return;  // Policy::kCount: stay memory-safe
            rec.dropped.push_back(*it);
            buf->erase(it);
            return;
        }
        case FaultAction::Kind::kDuplicateMessage: {
            std::deque<Message>::iterator it;
            std::deque<Message>* buf = find_buffered(action.message, &it);
            KSA_REQUIRE(buf != nullptr,
                        "System::apply_fault: duplicated message not buffered");
            if (buf == nullptr) return;
            // Cloning a clone would nest the derived-id scheme of
            // message.hpp; the chaos layer only duplicates originals.
            KSA_REQUIRE(!is_injected_message_id(it->id),
                        "System::apply_fault: cannot duplicate an injected "
                        "duplicate");
            int& count = duplicate_counts_[it->id];
            KSA_REQUIRE(count + 1 < static_cast<int>(kMaxDuplicatesPerMessage),
                        "System::apply_fault: per-message duplication bound "
                        "exhausted");
            Message clone = *it;
            clone.id = kInjectedMessageIdBase +
                       it->id * kMaxDuplicatesPerMessage +
                       static_cast<MessageId>(++count);
            rec.injected.push_back(clone);
            buffers_[clone.to - 1].push_back(std::move(clone));
            return;
        }
        case FaultAction::Kind::kCrashProcess: {
            const ProcessId q = action.process;
            check_pid(q, "System::apply_fault (crash victim)");
            KSA_REQUIRE(!crashed(q),
                        "System::apply_fault: victim already crashed");
            CrashSpec spec;
            spec.after_own_steps = step_counts_[q - 1] + 1;
            spec.omit_to = action.omit_to;
            if (plan_.is_faulty(q)) {
                // Replaying a recorded run: the effective plan already
                // carries this injection.  Accept iff it matches exactly.
                KSA_REQUIRE(plan_.spec(q) == spec,
                            "System::apply_fault: crash injection conflicts "
                            "with the crash plan in force");
                return;
            }
            plan_.set_crash(q, spec);
            run_.plan.set_crash(q, std::move(spec));
            return;
        }
        case FaultAction::Kind::kCorruptMessage: {
            std::deque<Message>::iterator it;
            std::deque<Message>* buf = find_buffered(action.message, &it);
            KSA_REQUIRE(buf != nullptr,
                        "System::apply_fault: corrupted message not buffered");
            if (buf == nullptr) return;
            // Forgeries of forgeries would nest the derived-id schemes of
            // message.hpp; the chaos layer only corrupts originals.
            KSA_REQUIRE(!is_injected_message_id(it->id),
                        "System::apply_fault: cannot corrupt an injected "
                        "message");
            const Message original = *it;
            // In-place rewrite: same buffer slot (arrival order is
            // preserved), forged id, mutated payload in a fresh body --
            // the other copies of its broadcast and any duplicate keep
            // the original body.
            it->id = corrupted_message_id(original.id);
            it->payload = corrupt_payload(*original.payload,
                                          action.corrupt_seed, n_);
            rec.tampered.push_back(original);
            rec.forged.push_back(*it);
            note_byzantine(original.from, 1, 0);
            return;
        }
        case FaultAction::Kind::kEquivocate: {
            std::deque<Message>::iterator it;
            std::deque<Message>* buf = find_buffered(action.message, &it);
            KSA_REQUIRE(buf != nullptr,
                        "System::apply_fault: equivocation anchor not "
                        "buffered");
            if (buf == nullptr) return;
            KSA_REQUIRE(!is_injected_message_id(it->id),
                        "System::apply_fault: cannot equivocate an injected "
                        "message");
            KSA_REQUIRE(static_cast<MessageId>(n_) < kEquivocationFanout,
                        "System::apply_fault: n exceeds the equivocation id "
                        "fanout");
            const Message anchor = *it;
            // Rewrite every still-buffered sibling of the anchor's
            // broadcast -- same sender, send time and payload -- into a
            // receiver-specific variant, each in its own fresh body.  At
            // most one sibling per receiver is rewritten (the forged id
            // embeds the receiver, so a second rewrite would collide).
            for (ProcessId q = 1; q <= n_; ++q) {
                for (Message& m : buffers_[q - 1]) {
                    if (is_injected_message_id(m.id)) continue;
                    if (m.from != anchor.from || m.sent_at != anchor.sent_at ||
                        !(m.payload == anchor.payload))
                        continue;
                    const Message original = m;
                    m.id = equivocated_message_id(anchor.id, q);
                    m.payload = equivocate_payload(*original.payload,
                                                   action.corrupt_seed, q, n_);
                    rec.tampered.push_back(original);
                    rec.forged.push_back(m);
                    break;
                }
            }
            note_byzantine(anchor.from, 0, 1);
            return;
        }
    }
    KSA_REQUIRE(false, "System::apply_fault: unknown fault kind");
}

void System::note_byzantine(ProcessId sender, int corruptions,
                            int equivocations) {
    // Both the live plan and the run record accumulate the realized
    // Byzantine pattern; replay from Run::static_plan() re-applies the
    // same fault stream, so the counts converge byte-identically.
    plan_.note_byzantine(sender, corruptions, equivocations);
    run_.plan.note_byzantine(sender, corruptions, equivocations);
}

StepChoice System::prefix_choice(ProcessId p, std::size_t count) const {
    check_pid(p, "System::prefix_choice");
    const std::deque<Message>& buf = buffer(p);
    KSA_REQUIRE(count <= buf.size(),
                "System::prefix_choice: prefix longer than buffer");
    StepChoice choice;
    choice.process = p;
    choice.deliver.reserve(count);
    for (std::size_t m = 0; m < count; ++m) choice.deliver.push_back(buf[m].id);
    return choice;
}

void System::apply_choice(const StepChoice& choice) {
    KSA_REQUIRE(!finished_, "System::apply_choice: run already finalized");
    const ProcessId p = choice.process;
    check_pid(p, "System::apply_choice");
    // The model never delivers a step to a crashed process: a crashed
    // process takes no step at any time >= its crash time (the paper's
    // F(t)).  A scheduler violating this produces an inadmissible run.
    KSA_REQUIRE(!crashed(p), "System::apply_choice: process already crashed");

    StepRecord rec;
    rec.time = now_;
    rec.process = p;

    // Fault events first: they perturb the buffers (and possibly the
    // plan) that the remainder of the step observes.  An injected crash
    // of `p` itself makes *this* step its final one.
    for (const FaultAction& action : choice.faults) apply_fault(action, rec);
    rec.faults = choice.faults;

    // Collect the delivered subset L from p's buffer.
    StepInput input;
    auto& buf = buffers_[p - 1];
    if (choice.deliver_all) {
        input.delivered.assign(std::make_move_iterator(buf.begin()),
                               std::make_move_iterator(buf.end()));
        buf.clear();
    } else {
        for (MessageId id : choice.deliver) {
            auto it = std::find_if(buf.begin(), buf.end(),
                                   [id](const Message& m) { return m.id == id; });
            KSA_REQUIRE(it != buf.end(),
                        "System::apply_choice: message id not in buffer");
            if (it == buf.end()) continue;  // Policy::kCount: stay memory-safe
            input.delivered.push_back(std::move(*it));
            buf.erase(it);
        }
    }
    if (recording_) rec.delivered = input.delivered;

    transition(p, input, recording_ ? &rec : nullptr, nullptr);

    if (recording_) {
        // The digest renders p's whole local state into a fresh string
        // (sim/text_writer.hpp); non-recording mode skips it along with
        // the record.
        rec.digest_after = behaviors_[p - 1]->state_digest();
        run_.steps.push_back(std::move(rec));
    }
}

void System::step_undoable(ProcessId p, std::size_t count, StepUndo& undo) {
    KSA_REQUIRE(!finished_, "System::step_undoable: run already finalized");
    KSA_REQUIRE(!recording_,
                "System::step_undoable: a recorded step cannot be undone");
    KSA_REQUIRE(!uses_fd_,
                "System::step_undoable: failure-detector samples cannot be "
                "undone");
    check_pid(p, "System::step_undoable");
    KSA_REQUIRE(!crashed(p), "System::step_undoable: process already crashed");
    auto& buf = buffers_[p - 1];
    KSA_REQUIRE(count <= buf.size(),
                "System::step_undoable: prefix longer than the buffer");
    count = std::min(count, buf.size());  // Policy::kCount: stay memory-safe

    undo.process = p;
    undo.time = now_;
    undo.decision = decisions_[p - 1];
    undo.crashed = crashed_[p - 1];
    undo.next_msg_id = next_msg_id_;
    undo.kept_to.clear();
    const auto prefix_end = buf.begin() + static_cast<std::ptrdiff_t>(count);
    undo.input.delivered.assign(std::make_move_iterator(buf.begin()),
                                std::make_move_iterator(prefix_end));
    buf.erase(buf.begin(), prefix_end);
    undo.behavior = behaviors_[p - 1]->clone();

    transition(p, undo.input, nullptr, &undo.kept_to);
}

void System::undo_step(StepUndo& undo) {
    KSA_REQUIRE(!finished_, "System::undo_step: run already finalized");
    const ProcessId p = undo.process;
    check_pid(p, "System::undo_step");
    KSA_REQUIRE(undo.behavior != nullptr && now_ == undo.time + 1,
                "System::undo_step: not the latest step (undo is LIFO)");
    if (undo.behavior == nullptr) return;  // Policy::kCount: stay memory-safe

    // The kept sends are the newest messages of their buffers: pop them
    // newest first.
    for (auto it = undo.kept_to.rbegin(); it != undo.kept_to.rend(); ++it) {
        auto& dest = buffers_[*it - 1];
        KSA_REQUIRE(!dest.empty() && dest.back().from == p &&
                            dest.back().id >= undo.next_msg_id &&
                            dest.back().id < next_msg_id_,
                    "System::undo_step: a kept send left its buffer's back");
        if (dest.empty()) continue;
        dest.pop_back();
    }
    // The delivered prefix goes back in front of what p did not receive.
    auto& buf = buffers_[p - 1];
    buf.insert(buf.begin(),
               std::make_move_iterator(undo.input.delivered.begin()),
               std::make_move_iterator(undo.input.delivered.end()));
    undo.input.delivered.clear();
    behaviors_[p - 1] = std::move(undo.behavior);
    decisions_[p - 1] = undo.decision;
    crashed_[p - 1] = undo.crashed;
    next_msg_id_ = undo.next_msg_id;
    --step_counts_[p - 1];
    --now_;
}

void System::transition(ProcessId p, StepInput& input, StepRecord* rec,
                        std::vector<ProcessId>* kept_to) {
    const int allowed = plan_.allowed_steps(p);
    KSA_REQUIRE(allowed < 0 || step_counts_[p - 1] < allowed,
                "System: crash plan exhausted for this process");

    // Buffer integrity: everything the buffer of p holds was addressed
    // to p and sent strictly before this step.
    for (const Message& m : input.delivered) {
        KSA_INVARIANT(m.to == p,
                      "System: buffered message addressed to a different "
                      "process");
        KSA_INVARIANT(m.sent_at < now_,
                      "System: message delivered no later than it was sent");
    }

    // Failure-detector query at the beginning of the step.
    if (uses_fd_) {
        QueryContext ctx;
        ctx.now = now_;
        ctx.querier = p;
        for (ProcessId q = 1; q <= n_; ++q)
            if (crashed(q)) ctx.crashed_so_far.push_back(q);
        FdSample sample = oracle_->query(ctx);
        if (rec != nullptr) {
            run_.fd_history.push_back(FdEvent{now_, p, sample});
            rec->fd = sample;
        }
        input.fd = std::move(sample);
    }

    // The atomic state transition.
    StepOutput out = behaviors_[p - 1]->on_step(input);

    // Is this the final step of a crashing process?
    const bool final_step =
        allowed >= 0 && step_counts_[p - 1] + 1 == allowed;
    const std::set<ProcessId>* omit =
        final_step ? &plan_.spec(p).omit_to : nullptr;

    for (auto& [dest, payload] : out.sends) {
        check_pid(dest, "System (send destination)");
        Message m;
        m.id = next_msg_id_++;  // an omitted send uses up its id too
        m.from = p;
        m.to = dest;
        m.sent_at = now_;
        m.payload = std::move(payload);
        if (omit != nullptr && omit->count(dest) != 0) {
            if (rec != nullptr) rec->omitted.push_back(std::move(m));
        } else {
            if (rec != nullptr) rec->sent.push_back(m);
            if (kept_to != nullptr) kept_to->push_back(dest);
            buffers_[dest - 1].push_back(std::move(m));
        }
    }

    if (out.decision) {
        // A REQUIRE, not an ENSURE: the Behavior is caller-supplied code,
        // so a second decision is API misuse (UsageError), exactly as the
        // write-once doc on StepOutput::decision promises.
        KSA_REQUIRE(!decisions_[p - 1].has_value(),
                    "protocol bug: process decided twice (output is "
                    "write-once)");
        decisions_[p - 1] = out.decision;
        if (rec != nullptr) rec->decision = out.decision;
    }

    if (rec != nullptr) rec->final_crash_step = final_step;
    if (final_step) crashed_[p - 1] = true;
    ++step_counts_[p - 1];
    ++now_;
}

void System::set_scheduler_label(std::string label) {
    run_.scheduler = std::move(label);
}

Run System::execute(Scheduler& scheduler, ExecutionLimits limits) {
    require(!finished_, "System::execute: run already finalized");
    run_.scheduler = scheduler.name();
    bool hit_limit = false;
    while (true) {
        if (now_ > limits.max_steps) {
            hit_limit = true;
            break;
        }
        std::optional<StepChoice> choice = scheduler.next(*this);
        if (!choice) break;
        apply_choice(*choice);
    }
    StopReason reason;
    if (hit_limit)
        reason = StopReason::kStepLimit;
    else if (all_correct_decided() && correct_buffers_empty())
        reason = StopReason::kQuiescent;
    else
        reason = StopReason::kSchedulerEnded;
    return finish(reason);
}

Run System::finish(StopReason reason) {
    KSA_REQUIRE(!finished_, "System::finish: run already finalized");
    if (!recording_) {
        // Header-only record (see set_recording): there is no step
        // history whose shape could be checked.
        finished_ = true;
        run_.stop = reason;
        return std::move(run_);
    }
    // FD-history consistency: an FD-using algorithm queries the oracle
    // exactly once per step, at the beginning of the step; an FD-free
    // algorithm never does.  The fd/ validators rely on this shape.
    if (uses_fd_) {
        KSA_ENSURE(run_.fd_history.size() == run_.steps.size(),
                   "System::finish: failure-detector history out of sync "
                   "with the step record");
        for (std::size_t i = 0; i < run_.steps.size(); ++i) {
            KSA_ENSURE(run_.fd_history[i].time == run_.steps[i].time &&
                           run_.fd_history[i].process == run_.steps[i].process,
                       "System::finish: failure-detector event does not "
                       "match its step");
        }
    } else {
        KSA_ENSURE(run_.fd_history.empty(),
                   "System::finish: failure-detector history recorded for "
                   "an algorithm that queries no detector");
    }
    // Step record integrity: times are the consecutive global times
    // 1..|steps| (the paper's discrete time axis).
    KSA_ENSURE(static_cast<Time>(run_.steps.size()) == now_ - 1,
               "System::finish: step record does not match global time");
    finished_ = true;
    run_.stop = reason;
    return std::move(run_);
}

Run execute_run(const Algorithm& algorithm, int n, std::vector<Value> inputs,
                FailurePlan plan, Scheduler& scheduler, FdOracle* oracle,
                ExecutionLimits limits) {
    System system(algorithm, n, std::move(inputs), std::move(plan), oracle);
    return system.execute(scheduler, limits);
}

std::vector<Value> distinct_inputs(int n) {
    std::vector<Value> out(n);
    for (int i = 0; i < n; ++i) out[i] = i + 1;
    return out;
}

std::vector<Value> uniform_inputs(int n, Value v) {
    return std::vector<Value>(static_cast<std::size_t>(n), v);
}

}  // namespace ksa
