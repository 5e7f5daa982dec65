#include "core/ghost_step.hpp"

namespace ksa::core {

Digest128 transition_key(ProcessId stepper, const store::BehaviorMark& mark,
                         const std::vector<Digest128>& buffered,
                         std::size_t delivered) {
    StateHasher h;
    h.i64(stepper);
    h.u64(mark.stepped ? 1 : 0);
    if (mark.stepped) h.fold(mark.hash);
    h.u64(delivered);
    for (std::size_t i = 0; i < delivered; ++i) h.fold(buffered[i]);
    Digest128 key = h.digest();
    if (key == Digest128{}) key.lo = 1;  // zero marks an empty slot
    return key;
}

std::size_t TransitionMemo::bucket_of(const Digest128& key,
                                      std::size_t slots) {
    return (key.lo & (slots / kWays - 1)) * kWays;
}

const TransitionMemo::Transition* TransitionMemo::recall_transition(
        const Digest128& key) const {
    if (slots_.empty()) return nullptr;
    const std::size_t b = bucket_of(key, slots_.size());
    for (std::size_t w = b; w < b + kWays; ++w)
        if (slots_[w].key == key) return &slots_[w].step;
    return nullptr;
}

TransitionMemo::Transition& TransitionMemo::record_transition(
        const Digest128& key) {
    if (slots_.empty()) slots_.resize(kInitialSlots);
    if (slots_.size() < kMaxSlots && 2 * (held_ + 1) > slots_.size())
        double_slots();
    // The new transition goes first and the others move down one slot;
    // in a full bucket the oldest falls off the end, and the new
    // transition reuses its storage.
    const std::size_t b = bucket_of(key, slots_.size());
    std::size_t last = b;
    while (last < b + kWays - 1 && slots_[last].key != Digest128{}) ++last;
    if (slots_[last].key == Digest128{}) ++held_;
    for (std::size_t w = last; w > b; --w) std::swap(slots_[w], slots_[w - 1]);
    slots_[b].key = key;
    return slots_[b].step;
}

void TransitionMemo::double_slots() {
    std::vector<Slot> wider(2 * slots_.size());
    for (Slot& s : slots_) {
        if (s.key == Digest128{}) continue;
        std::size_t w = bucket_of(s.key, wider.size());
        while (wider[w].key != Digest128{}) ++w;
        wider[w] = std::move(s);
    }
    slots_ = std::move(wider);
}

GhostStepper::GhostStepper(DigestSendFn digest_send, bool memoize)
    : digest_send_(digest_send) {
    if (memoize) memo_.emplace();
}

void GhostStepper::run_step(const System& sys, ProcessId p, GhostStep& g) {
    sys.deliver_prefix(p, g.delivered, input_);
    g.behavior = sys.clone_behavior(p);
    g.out = g.behavior->on_step(input_);
    g.decision = g.out.decision;
    g.bhash = behavior_hash(*g.behavior);
    // Each payload body is digested once, however many destinations
    // share it: a broadcast is one run of sends of one body.
    g.sends.clear();
    const SharedPayload* digested = nullptr;
    Digest128 hash{};
    for (const auto& [dest, payload] : g.out.sends) {
        // System::transition's destination check: the explorer never
        // redoes a leaf's step, so no System may ever see this send.
        require(dest >= 1 && dest <= sys.n(),
                "ghost step: send destination out of range");
        if (digested == nullptr || !payload.same_body(*digested)) {
            digested = &payload;
            hash = digest_send_(p, *payload);
        }
        g.sends.push_back({dest, hash, &payload});
    }
}

void GhostStepper::ghost_step(const System& sys, ProcessId p,
                              std::size_t delivered,
                              const store::BehaviorMark& mark,
                              const std::vector<Digest128>& buffered,
                              GhostStep& g) {
    g.delivered = delivered;
    const int allowed = sys.plan().allowed_steps(p);
    g.final_crash = allowed >= 0 && sys.steps_of(p) + 1 == allowed;
    g.omit_to = g.final_crash ? &sys.plan().spec(p).omit_to : nullptr;
    if (!memo_) {
        run_step(sys, p, g);
        return;
    }
    const Digest128 key = transition_key(p, mark, buffered, delivered);
    if (const TransitionMemo::Transition* t = memo_->recall_transition(key)) {
        g.behavior.reset();
        g.out.sends.clear();
        g.out.decision.reset();
        g.decision = t->decision;
        g.bhash = t->bhash;
        g.sends.clear();
        for (const auto& [dest, hash] : t->sends)
            g.sends.push_back({dest, hash, nullptr});
#ifndef NDEBUG
        // Step determinism, executed: the recalled outputs are the
        // outputs of stepping the behavior again.
        GhostStep fresh;
        fresh.delivered = delivered;
        run_step(sys, p, fresh);
        require(fresh.decision == g.decision,
                "transition memo: recalled decision differs from the step's");
        require(fresh.bhash == g.bhash,
                "transition memo: recalled behavior digest differs from "
                "the step's");
        require(fresh.sends.size() == g.sends.size(),
                "transition memo: recalled send count differs from the step's");
        for (std::size_t i = 0; i < g.sends.size(); ++i)
            require(fresh.sends[i].dest == g.sends[i].dest &&
                            fresh.sends[i].hash == g.sends[i].hash,
                    "transition memo: recalled send differs from the step's");
#endif
        return;
    }
    run_step(sys, p, g);
    TransitionMemo::Transition& t = memo_->record_transition(key);
    t.decision = g.decision;
    t.bhash = g.bhash;
    t.sends.clear();
    t.sends.reserve(g.sends.size());
    for (const GhostSend& s : g.sends) t.sends.emplace_back(s.dest, s.hash);
}

}  // namespace ksa::core
