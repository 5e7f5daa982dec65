#include "algo/flooding.hpp"

namespace ksa::algo {

namespace {

class FloodingBehavior final : public BehaviorBase {
public:
    FloodingBehavior(ProcessId id, int n, Value input, int threshold)
        : BehaviorBase(id, n, input), threshold_(threshold) {
        require(threshold_ >= 1 && threshold_ <= n,
                "FloodingKSet: need 1 <= threshold <= n");
        seen_[id] = input;
    }

    StepOutput on_step(const StepInput& in) override {
        StepOutput out;
        for (const Message& m : in.delivered)
            if (m.payload->tag == "VAL")
                seen_.emplace(m.payload->ints.at(0), m.payload->ints.at(1));
        if (has_decided()) return out;
        if (!announced_) {
            broadcast_others(out, make_payload("VAL", {id(), input()}));
            announced_ = true;
        }
        if (static_cast<int>(seen_.size()) >= threshold_) {
            Value best = input();
            for (const auto& [_, v] : seen_) best = std::min(best, v);
            decide(out, best);
        }
        return out;
    }

    /// Flooding sends exactly once (the announce step); afterwards every
    /// step only ingests.  Monotone: announced_ never resets.
    bool may_send() const override { return !announced_; }

    /// A VAL from a sender already in seen_ re-emplaces an existing key:
    /// no state change, no output change.  seen_ only grows, so the
    /// claim is monotone as Behavior::message_inert requires.
    bool message_inert(ProcessId /*from*/,
                       const Payload& payload) const override {
        return payload.tag == "VAL" && !payload.ints.empty() &&
               seen_.count(payload.ints.front()) != 0;
    }

    std::unique_ptr<Behavior> clone() const override {
        return std::make_unique<FloodingBehavior>(*this);
    }

    std::string state_digest() const override {
        std::string s;
        TextWriter d(s);
        d << "FL(p" << id() << ",x=" << input() << ",ann=" << announced_
          << ",seen={";
        bool first = true;
        for (const auto& [q, v] : seen_) {
            if (!first) d << ',';
            first = false;
            d << q << ':' << v;
        }
        d << "})";
        return s;
    }

    /// Same fields as state_digest, folded directly (no string).
    void fold_state(StateHasher& h) const override {
        h.str("FL");
        h.i64(id());
        h.i64(input());
        h.u64(announced_ ? 1 : 0);
        h.u64(seen_.size());
        for (const auto& [q, v] : seen_) {
            h.i64(q);
            h.i64(v);
        }
    }

    /// fold_state with every id mapped through `ren`: the renamed
    /// execution's behavior at position ren(id) holds seen-entries keyed
    /// by renamed senders, iterated in renamed-id order.  Allocation-free
    /// (algo/common.hpp): the sort runs in a stack buffer.
    bool fold_state_renamed(StateHasher& h,
                            const ProcessRenaming& ren) const override {
        h.str("FL");
        h.i64(renamed_id(ren, id()));
        h.i64(input());
        h.u64(announced_ ? 1 : 0);
        h.u64(seen_.size());
        StackBuffer<std::pair<ProcessId, Value>> renamed(seen_.size());
        std::size_t k = 0;
        for (const auto& [q, v] : seen_)
            renamed[k++] = {renamed_id(ren, q), v};
        std::sort(renamed.begin(), renamed.end());
        for (const auto& [q, v] : renamed) {
            h.i64(q);
            h.i64(v);
        }
        return true;
    }

private:
    int threshold_;
    bool announced_ = false;
    std::map<ProcessId, Value> seen_;
};

class TrivialBehavior final : public BehaviorBase {
public:
    using BehaviorBase::BehaviorBase;

    StepOutput on_step(const StepInput&) override {
        StepOutput out;
        if (!has_decided()) decide(out, input());
        return out;
    }

    /// Never communicates, in any state.
    bool may_send() const override { return false; }

    std::unique_ptr<Behavior> clone() const override {
        return std::make_unique<TrivialBehavior>(*this);
    }

    std::string state_digest() const override {
        std::string s;
        TextWriter(s) << "TR(p" << id() << ",x=" << input()
                      << ",dec=" << has_decided() << ')';
        return s;
    }

    /// Same fields as state_digest, folded directly (no string).
    void fold_state(StateHasher& h) const override {
        h.str("TR");
        h.i64(id());
        h.i64(input());
        h.u64(has_decided() ? 1 : 0);
    }

    bool fold_state_renamed(StateHasher& h,
                            const ProcessRenaming& ren) const override {
        h.str("TR");
        h.i64(renamed_id(ren, id()));
        h.i64(input());
        h.u64(has_decided() ? 1 : 0);
        return true;
    }
};

}  // namespace

std::unique_ptr<Behavior> FloodingKSet::make_behavior(ProcessId id, int n,
                                                      Value input) const {
    return std::make_unique<FloodingBehavior>(id, n, input, threshold_);
}

std::string FloodingKSet::name() const {
    return "flooding(th=" + std::to_string(threshold_) + ")";
}

bool FloodingKSet::rename_payload_ids(Payload& payload,
                                      const ProcessRenaming& ren) const {
    // VAL carries (sender id, proposal value): only the id is renamed.
    if (payload.tag == "VAL" && !payload.ints.empty())
        payload.ints[0] =
                ren[static_cast<std::size_t>(payload.ints[0]) - 1];
    return true;
}

std::unique_ptr<Behavior> TrivialWaitFree::make_behavior(ProcessId id, int n,
                                                         Value input) const {
    return std::make_unique<TrivialBehavior>(id, n, input);
}

std::unique_ptr<Algorithm> make_flooding(int n, int f) {
    require(f >= 0 && f < n, "make_flooding: need 0 <= f < n");
    return std::make_unique<FloodingKSet>(n - f);
}

}  // namespace ksa::algo
