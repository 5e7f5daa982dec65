#include "sim/run.hpp"

#include <algorithm>

namespace ksa {

std::string to_string(StopReason r) {
    switch (r) {
        case StopReason::kQuiescent: return "quiescent";
        case StopReason::kSchedulerEnded: return "scheduler-ended";
        case StopReason::kStepLimit: return "step-limit";
    }
    return "unknown";
}

std::optional<Value> Run::decision_of(ProcessId p) const {
    for (const StepRecord& s : steps)
        if (s.process == p && s.decision) return s.decision;
    return std::nullopt;
}

Time Run::decision_time_of(ProcessId p) const {
    for (const StepRecord& s : steps)
        if (s.process == p && s.decision) return s.time;
    return kNever;
}

std::set<Value> Run::distinct_decisions() const {
    std::set<Value> out;
    for (const StepRecord& s : steps)
        if (s.decision) out.insert(*s.decision);
    return out;
}

std::set<Value> Run::distinct_decisions(const std::vector<ProcessId>& group) const {
    std::set<Value> out;
    for (const StepRecord& s : steps)
        if (s.decision &&
            std::find(group.begin(), group.end(), s.process) != group.end())
            out.insert(*s.decision);
    return out;
}

bool Run::all_correct_decided(const std::vector<ProcessId>& group) const {
    for (ProcessId p : group)
        if (!plan.is_faulty(p) && !decision_of(p)) return false;
    return true;
}

bool Run::all_correct_decided() const {
    for (ProcessId p = 1; p <= n; ++p)
        if (!plan.is_faulty(p) && !decision_of(p)) return false;
    return true;
}

Time Run::crash_time_of(ProcessId p) const {
    if (!plan.is_faulty(p)) return kNever;
    if (plan.is_initially_dead(p)) return 1;
    Time last = 0;
    bool crashed_seen = false;
    for (const StepRecord& s : steps) {
        if (s.process == p) {
            last = s.time;
            if (s.final_crash_step) crashed_seen = true;
        }
    }
    if (!crashed_seen) return kNever;  // plan says faulty but crash not realized
    return last + 1;
}

std::set<ProcessId> Run::crashed() const {
    std::set<ProcessId> out;
    for (ProcessId p = 1; p <= n; ++p)
        if (crash_time_of(p) != kNever) out.insert(p);
    return out;
}

int Run::steps_of(ProcessId p) const {
    int c = 0;
    for (const StepRecord& s : steps)
        if (s.process == p) ++c;
    return c;
}

std::vector<std::string> Run::digest_sequence(ProcessId p,
                                              bool until_decision) const {
    std::vector<std::string> out;
    for (const StepRecord& s : steps) {
        if (s.process != p) continue;
        out.push_back(s.digest_after);
        if (until_decision && s.decision) break;
    }
    return out;
}

std::vector<Time> Run::receptions_from(
        ProcessId p, const std::vector<ProcessId>& senders) const {
    std::vector<Time> out;
    for (const StepRecord& s : steps) {
        if (s.process != p) continue;
        for (const Message& m : s.delivered) {
            if (std::find(senders.begin(), senders.end(), m.from) !=
                senders.end()) {
                out.push_back(s.time);
                break;
            }
        }
    }
    return out;
}

bool Run::silent_from_until(ProcessId p, const std::vector<ProcessId>& senders,
                            Time deadline) const {
    for (Time t : receptions_from(p, senders))
        if (t < deadline) return false;
    return true;
}

std::size_t Run::messages_sent() const {
    std::size_t c = 0;
    for (const StepRecord& s : steps) c += s.sent.size();
    return c;
}

std::vector<MessageId> Run::undelivered_to(ProcessId p) const {
    if (p < 1 || p > n) return {};
    return std::move(tally().pending[static_cast<std::size_t>(p) - 1]);
}

RunTally Run::tally() const {
    const std::size_t size = n > 0 ? static_cast<std::size_t>(n) : 0;
    const auto slot = [size](ProcessId p) {
        return p >= 1 && static_cast<std::size_t>(p) <= size
                       ? static_cast<std::size_t>(p) - 1
                       : size;
    };
    RunTally t;
    t.steps.assign(size, 0);
    t.decision.assign(size, std::nullopt);
    t.pending.assign(size, {});
    // The delivery obligation, per receiver: every id in `owed[q]` must
    // reach q unless `settled[q]` holds it too.
    std::vector<std::vector<MessageId>>& owed = t.pending;
    std::vector<std::vector<MessageId>> settled(size);
    const auto note = [&](const std::vector<Message>& msgs,
                          std::vector<std::vector<MessageId>>& into) {
        for (const Message& m : msgs)
            if (const std::size_t q = slot(m.to); q < size)
                into[q].push_back(m.id);
    };
    for (const StepRecord& s : steps) {
        if (s.decision) t.distinct.insert(*s.decision);
        if (const std::size_t i = slot(s.process); i < size) {
            ++t.steps[i];
            if (s.decision && !t.decision[i]) t.decision[i] = s.decision;
            for (const Message& m : s.delivered) settled[i].push_back(m.id);
        }
        note(s.sent, owed);
        // Injected duplicates are in-flight messages like any other:
        // leaving a clone addressed to a correct process undelivered
        // violates eventual delivery exactly as losing the original does.
        note(s.injected, owed);
        // A Byzantine forgery *replaces* its original in flight: the
        // forged id inherits the original's delivery obligation, and the
        // tampered original is owed no more.
        note(s.forged, owed);
        note(s.tampered, settled);
    }
    for (std::size_t q = 0; q < size; ++q) {
        std::vector<MessageId>& ids = owed[q];
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
        std::vector<MessageId>& done = settled[q];
        std::sort(done.begin(), done.end());
        ids.erase(std::remove_if(ids.begin(), ids.end(),
                                 [&done](MessageId id) {
                                     return std::binary_search(
                                             done.begin(), done.end(), id);
                                 }),
                  ids.end());
    }
    return t;
}

std::vector<std::pair<std::size_t, FaultAction>> Run::fault_events() const {
    std::vector<std::pair<std::size_t, FaultAction>> out;
    for (std::size_t i = 0; i < steps.size(); ++i)
        for (const FaultAction& a : steps[i].faults) out.emplace_back(i, a);
    return out;
}

std::size_t Run::num_fault_events() const {
    std::size_t c = 0;
    for (const StepRecord& s : steps) c += s.faults.size();
    return c;
}

std::set<ProcessId> Run::injected_crash_victims() const {
    std::set<ProcessId> out;
    for (const StepRecord& s : steps)
        for (const FaultAction& a : s.faults)
            if (a.kind == FaultAction::Kind::kCrashProcess)
                out.insert(a.process);
    return out;
}

std::set<ProcessId> Run::byzantine_senders() const {
    std::set<ProcessId> out;
    for (const StepRecord& s : steps)
        for (const Message& m : s.tampered) out.insert(m.from);
    return out;
}

FailurePlan Run::static_plan() const {
    const std::set<ProcessId> injected = injected_crash_victims();
    // ByzantineSpecs are stripped implicitly: only crash specs are
    // copied, and re-applying the recorded fault stream rebuilds the
    // Byzantine counts (System::note_byzantine).
    FailurePlan out;
    for (ProcessId p : plan.faulty())
        if (injected.count(p) == 0) out.set_crash(p, plan.spec(p));
    return out;
}

bool indistinguishable_for(const Run& a, const Run& b, ProcessId p) {
    return a.digest_sequence(p) == b.digest_sequence(p);
}

bool indistinguishable_for_all(const Run& a, const Run& b,
                               const std::vector<ProcessId>& group) {
    for (ProcessId p : group)
        if (!indistinguishable_for(a, b, p)) return false;
    return true;
}

std::optional<std::vector<std::size_t>> compatible_for(
        const std::vector<Run>& r_prime, const std::vector<Run>& r,
        const std::vector<ProcessId>& group, std::size_t* out_witness) {
    std::vector<std::size_t> choice;
    for (std::size_t i = 0; i < r_prime.size(); ++i) {
        bool found = false;
        for (std::size_t j = 0; j < r.size() && !found; ++j) {
            if (indistinguishable_for_all(r_prime[i], r[j], group)) {
                choice.push_back(j);
                found = true;
            }
        }
        if (!found) {
            if (out_witness != nullptr) *out_witness = i;
            return std::nullopt;
        }
    }
    return choice;
}

}  // namespace ksa
