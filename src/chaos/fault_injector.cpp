#include "chaos/fault_injector.hpp"

#include <sstream>
#include <vector>

#include "check/contract.hpp"
#include "sim/text_writer.hpp"

namespace ksa::chaos {

std::string ChaosStats::to_string() const {
    std::ostringstream out;
    out << "drops=" << drops << " duplicates=" << duplicates
        << " delays=" << delays << " bursts=" << bursts
        << " crashes=" << crashes << " corruptions=" << corruptions
        << " equivocations=" << equivocations;
    return out.str();
}

FaultInjector::FaultInjector(Scheduler& inner, ChaosProfile profile)
    : inner_(&inner), profile_(profile), rng_(profile.seed) {
    profile_.validate();
}

std::string FaultInjector::name() const {
    std::string label = inner_->name();
    TextWriter(label) << "+chaos(" << profile_.describe() << ')';
    return label;
}

bool FaultInjector::chance(int per_mille) {
    if (per_mille <= 0) return false;
    return static_cast<int>(rng_() % 1000) < per_mille;
}

std::uint64_t FaultInjector::draw(std::uint64_t bound) {
    KSA_REQUIRE(bound >= 1, "FaultInjector::draw: empty range");
    return rng_() % bound;
}

std::optional<StepChoice> FaultInjector::next(const SystemView& view) {
    if (!draining_) {
        std::optional<StepChoice> choice = inner_->next(view);
        if (choice) {
            perturb(*choice, view);
            return choice;
        }
        // The base adversary is done.  Guard or havoc, we finish with a
        // fair round-robin drain: it delivers everything still buffered
        // to correct processes (including messages this injector
        // withheld) and steps every process whose planned or injected
        // crash is not yet realized.  Messages *dropped* earlier are
        // gone from the buffers, so in havoc mode the drain does not
        // repair the damage -- the run ends inadmissible, as intended.
        draining_ = true;
    }
    return drain_.next(view);
}

void FaultInjector::perturb(StepChoice& choice, const SystemView& view) {
    const ProcessId p = choice.process;
    const Time now = view.now();

    // Per-step burst bookkeeping: during a burst nothing is delivered
    // (a transient total partition), modelled as per-message delays.
    if (burst_left_ == 0 && chance(profile_.burst_per_mille)) {
        burst_left_ = profile_.burst_len;
        ++stats_.bursts;
    }
    const bool burst = burst_left_ > 0;
    if (burst) --burst_left_;

    // The ids the base scheduler wants delivered in this step.
    std::vector<MessageId> candidates;
    if (choice.deliver_all) {
        for (const Message& m : view.buffer(p)) candidates.push_back(m.id);
    } else {
        candidates = choice.deliver;
    }
    choice.deliver_all = false;
    choice.deliver.clear();

    // Destinations already faulty under the effective plan may lose
    // messages without violating eventual delivery (admissibility binds
    // correct receivers only), so guard mode allows real drops to them.
    const bool dest_faulty = view.plan().is_faulty(p);

    for (MessageId id : candidates) {
        // Stale references to messages dropped in earlier steps (the
        // base scheduler cannot know) are silently skipped.
        if (dropped_.count(id) != 0) continue;

        // Withheld messages: still held, or due for release.  A released
        // message is delivered unconditionally -- re-rolling the dice on
        // it could chain delays unboundedly.
        auto held = held_.find(id);
        if (held != held_.end()) {
            if (now < held->second) continue;
            held_.erase(held);
            choice.deliver.push_back(id);
            continue;
        }

        // -- Byzantine corruption / equivocation ----------------------
        // Only originals are forged (nesting derived-id schemes is
        // banned by the System), and only senders within the victim-cap
        // budgets.  The sender is looked up in the live buffer of p.
        if (!is_injected_message_id(id) &&
            (stats_.corruptions < profile_.max_corruptions ||
             stats_.equivocations < profile_.max_equivocations)) {
            ProcessId sender = 0;
            for (const Message& m : view.buffer(p))
                if (m.id == id) {
                    sender = m.from;
                    break;
                }
            if (sender != 0 && may_victimize(sender, view.n())) {
                if (stats_.corruptions < profile_.max_corruptions &&
                    chance(profile_.corrupt_per_mille)) {
                    FaultAction a;
                    a.kind = FaultAction::Kind::kCorruptMessage;
                    a.message = id;
                    a.corrupt_seed = rng_();
                    choice.faults.push_back(a);
                    ++byz_victims_[sender];
                    ++stats_.corruptions;
                    // The forgery replaces the original in place;
                    // deliver it under its forged id right away.
                    choice.deliver.push_back(corrupted_message_id(id));
                    continue;
                }
                if (stats_.equivocations < profile_.max_equivocations &&
                    chance(profile_.equivocate_per_mille)) {
                    FaultAction a;
                    a.kind = FaultAction::Kind::kEquivocate;
                    a.message = id;
                    a.corrupt_seed = rng_();
                    choice.faults.push_back(a);
                    ++byz_victims_[sender];
                    ++stats_.equivocations;
                    // p receives its own divergent variant; the other
                    // receivers' variants sit in their buffers and are
                    // delivered by later steps (or the drain).
                    choice.deliver.push_back(equivocated_message_id(id, p));
                    continue;
                }
            }
        }

        // -- drop ------------------------------------------------------
        if (stats_.drops < profile_.max_drops &&
            chance(profile_.drop_per_mille)) {
            if (profile_.mode == ChaosProfile::Mode::kHavoc || dest_faulty) {
                FaultAction a;
                a.kind = FaultAction::Kind::kDropMessage;
                a.message = id;
                choice.faults.push_back(a);
                dropped_.insert(id);
                ++stats_.drops;
                continue;
            }
            // Guard: a loss aimed at a correct destination becomes a
            // bounded delay instead.
            held_[id] = now + 1 + static_cast<Time>(draw(
                                      static_cast<std::uint64_t>(
                                          profile_.max_delay)));
            ++stats_.delays;
            continue;
        }

        // -- duplicate (the original is still deliverable below) -------
        if (stats_.duplicates < profile_.max_duplicates &&
            !is_injected_message_id(id) &&
            clones_of(id) + 1 < static_cast<int>(kMaxDuplicatesPerMessage) &&
            chance(profile_.duplicate_per_mille)) {
            FaultAction a;
            a.kind = FaultAction::Kind::kDuplicateMessage;
            a.message = id;
            choice.faults.push_back(a);
            ++dup_done_[id];
            ++stats_.duplicates;
        }

        // -- delay -----------------------------------------------------
        if (burst || chance(profile_.delay_per_mille)) {
            held_[id] = now + 1 + static_cast<Time>(draw(
                                      static_cast<std::uint64_t>(
                                          profile_.max_delay)));
            ++stats_.delays;
            continue;
        }

        choice.deliver.push_back(id);
    }

    maybe_inject_crash(choice, view);
}

int FaultInjector::clones_of(MessageId id) const {
    const auto it = dup_done_.find(id);
    return it == dup_done_.end() ? 0 : it->second;
}

bool FaultInjector::may_victimize(ProcessId sender, int n) const {
    const auto it = byz_victims_.find(sender);
    if (it != byz_victims_.end())
        return it->second < profile_.max_faults_per_victim;
    const int cap =
        profile_.max_byzantine < 0 ? n - 1 : profile_.max_byzantine;
    return static_cast<int>(byz_victims_.size()) < cap;
}

void FaultInjector::maybe_inject_crash(StepChoice& choice,
                                       const SystemView& view) {
    if (stats_.crashes >= profile_.max_injected_crashes) return;
    if (!chance(profile_.crash_per_mille)) return;

    const int n = view.n();
    const int cap = profile_.max_total_faulty < 0 ? n - 1
                                                  : profile_.max_total_faulty;
    if (static_cast<int>(view.plan().faulty().size()) >= cap) return;

    // Victims: correct so far under the effective plan.  (A process that
    // is planned-faulty cannot be crashed again; System::apply_fault
    // enforces this.)
    std::vector<ProcessId> victims;
    for (ProcessId q = 1; q <= n; ++q)
        if (!view.plan().is_faulty(q) && !view.crashed(q)) victims.push_back(q);
    if (victims.empty()) return;

    FaultAction a;
    a.kind = FaultAction::Kind::kCrashProcess;
    a.process = victims[draw(victims.size())];
    for (ProcessId q = 1; q <= n; ++q)
        if (q != a.process && chance(profile_.crash_omission_per_mille))
            a.omit_to.insert(q);
    choice.faults.push_back(a);
    ++stats_.crashes;
}

}  // namespace ksa::chaos
