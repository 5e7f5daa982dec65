#include "algo/quorum_leader_kset.hpp"

#include <set>

#include "algo/common.hpp"

namespace ksa::algo {

namespace {

// Message tags:
//   PROP(leader, v)   proposer -> all    proposal
//   ACK(leader, v)    acker -> proposer  acknowledgment
//   DEC(v)            anyone -> all      decision announcement
class QuorumLeaderBehavior final : public BehaviorBase {
public:
    QuorumLeaderBehavior(ProcessId id, int n, Value input)
        : BehaviorBase(id, n, input), est_(input) {}

    StepOutput on_step(const StepInput& in) override {
        StepOutput out;
        for (const Message& m : in.delivered) {
            const auto& tag = m.payload->tag;
            const auto& f = m.payload->ints;
            if (tag == "PROP") {
                // No arbitration: acknowledge every proposal.  (This is
                // the exploitable flaw; see header comment.)
                out.send(m.from, make_payload("ACK", {f.at(0), f.at(1)}));
            } else if (tag == "ACK") {
                if (proposed_ && f.at(0) == id() && f.at(1) == est_)
                    ackers_.insert(m.from);
            } else if (tag == "DEC") {
                if (!has_decided()) {
                    decide(out, f.at(0));
                    broadcast_others(out, make_payload("DEC", {f.at(0)}));
                }
            }
        }
        if (has_decided()) return out;

        invariant(in.fd.has_value(),
                  "QuorumLeaderKSet: step without FD sample");
        const auto& leaders = in.fd->leaders;
        const bool am_leader =
            std::find(leaders.begin(), leaders.end(), id()) != leaders.end();

        if (am_leader && !proposed_) {
            proposed_ = true;
            ackers_.insert(id());  // a proposer acknowledges itself
            broadcast_others(out, make_payload("PROP", {id(), est_}));
        }
        if (proposed_) {
            bool covered = !in.fd->quorum.empty();
            for (ProcessId q : in.fd->quorum)
                if (ackers_.count(q) == 0) covered = false;
            if (covered) {
                decide(out, est_);
                broadcast_others(out, make_payload("DEC", {est_}));
            }
        }
        return out;
    }

    std::unique_ptr<Behavior> clone() const override {
        return std::make_unique<QuorumLeaderBehavior>(*this);
    }

    std::string state_digest() const override {
        std::string s;
        TextWriter d(s);
        d << "QL(p" << id() << ",x=" << input() << ",est=" << est_
          << ",prop=" << proposed_ << ",acks=";
        render(d, ackers_);
        d << ",dec=" << has_decided() << ')';
        return s;
    }

private:
    Value est_;
    bool proposed_ = false;
    std::set<ProcessId> ackers_;
};

}  // namespace

std::unique_ptr<Behavior> QuorumLeaderKSet::make_behavior(ProcessId id, int n,
                                                          Value input) const {
    return std::make_unique<QuorumLeaderBehavior>(id, n, input);
}

}  // namespace ksa::algo
