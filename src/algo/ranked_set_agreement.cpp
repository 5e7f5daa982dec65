#include "algo/ranked_set_agreement.hpp"

#include "algo/common.hpp"

namespace ksa::algo {

namespace {

class RankedBehavior final : public BehaviorBase {
public:
    using BehaviorBase::BehaviorBase;

    StepOutput on_step(const StepInput& in) override {
        StepOutput out;
        for (const Message& m : in.delivered) {
            if (has_decided()) break;
            if (m.payload->tag == "VAL" && m.payload->ints.at(0) < id()) {
                decide_and_announce(out, m.payload->ints.at(1));
            } else if (m.payload->tag == "DEC") {
                decide_and_announce(out, m.payload->ints.at(0));
            }
        }
        if (has_decided()) return out;
        if (!announced_) {
            broadcast_others(out, make_payload("VAL", {id(), input()}));
            announced_ = true;
        }
        invariant(in.fd.has_value(),
                  "RankedSetAgreement: step without FD sample");
        if (in.fd->quorum.size() == 1 && in.fd->quorum.front() == id())
            decide_and_announce(out, input());  // lonely decision
        return out;
    }

    std::unique_ptr<Behavior> clone() const override {
        return std::make_unique<RankedBehavior>(*this);
    }

    std::string state_digest() const override {
        std::string s;
        TextWriter d(s);
        d << "RK(p" << id() << ",x=" << input() << ",ann=" << announced_
          << ",dec=" << has_decided() << ')';
        return s;
    }

private:
    void decide_and_announce(StepOutput& out, Value v) {
        decide(out, v);
        broadcast_others(out, make_payload("DEC", {v}));
    }

    bool announced_ = false;
};

}  // namespace

std::unique_ptr<Behavior> RankedSetAgreement::make_behavior(ProcessId id, int n,
                                                            Value input) const {
    return std::make_unique<RankedBehavior>(id, n, input);
}

}  // namespace ksa::algo
