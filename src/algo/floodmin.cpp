#include "algo/floodmin.hpp"

#include "sim/text_writer.hpp"

namespace ksa::algo {

namespace {

class FloodMinBehavior final : public ho::RoundBehavior {
public:
    FloodMinBehavior(ProcessId id, Value input, int rounds)
        : id_(id), est_(input), rounds_(rounds) {
        require(rounds_ >= 1, "FloodMin: need at least one round");
    }

    Payload message(int) override { return make_payload("EST", {est_}); }

    std::optional<Value> transition(
            int round, const std::map<ProcessId, Payload>& heard) override {
        for (const auto& [q, payload] : heard) {
            (void)q;
            est_ = std::min(est_, payload.ints.at(0));
        }
        if (round >= rounds_ && !decided_) {
            decided_ = true;
            return est_;
        }
        return std::nullopt;
    }

    std::string state_digest() const override {
        std::string s;
        TextWriter(s) << "FM(p" << id_ << ",est=" << est_ << ",dec=" << decided_
                      << ')';
        return s;
    }

    std::unique_ptr<ho::RoundBehavior> clone() const override {
        return std::make_unique<FloodMinBehavior>(*this);
    }

private:
    ProcessId id_;
    Value est_;
    int rounds_;
    bool decided_ = false;
};

}  // namespace

std::unique_ptr<ho::RoundBehavior> FloodMin::make_behavior(ProcessId id, int,
                                                           Value input) const {
    return std::make_unique<FloodMinBehavior>(id, input, rounds_);
}

std::string FloodMin::name() const {
    return "floodmin(R=" + std::to_string(rounds_) + ")";
}

}  // namespace ksa::algo
