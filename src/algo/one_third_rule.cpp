#include "algo/one_third_rule.hpp"

#include <map>

#include "sim/text_writer.hpp"

namespace ksa::algo {

namespace {

class OneThirdBehavior final : public ho::RoundBehavior {
public:
    OneThirdBehavior(ProcessId id, int n, Value input)
        : id_(id), n_(n), est_(input) {}

    Payload message(int) override { return make_payload("EST", {est_}); }

    std::optional<Value> transition(
            int, const std::map<ProcessId, Payload>& heard) override {
        if (3 * static_cast<int>(heard.size()) > 2 * n_) {
            // Adopt the smallest most frequent value.
            std::map<Value, int> freq;
            for (const auto& [q, payload] : heard) {
                (void)q;
                ++freq[payload.ints.at(0)];
            }
            int best = 0;
            for (const auto& [v, c] : freq)
                if (c > best) best = c, est_ = v;  // map order: smallest wins ties
            // Decide a value heard from more than 2n/3 processes.
            for (const auto& [v, c] : freq) {
                if (3 * c > 2 * n_ && !decided_) {
                    decided_ = true;
                    return v;
                }
            }
        }
        return std::nullopt;
    }

    std::string state_digest() const override {
        std::string s;
        TextWriter(s) << "OTR(p" << id_ << ",est=" << est_
                      << ",dec=" << decided_ << ')';
        return s;
    }

    std::unique_ptr<ho::RoundBehavior> clone() const override {
        return std::make_unique<OneThirdBehavior>(*this);
    }

private:
    ProcessId id_;
    int n_;
    Value est_;
    bool decided_ = false;
};

}  // namespace

std::unique_ptr<ho::RoundBehavior> OneThirdRule::make_behavior(
        ProcessId id, int n, Value input) const {
    return std::make_unique<OneThirdBehavior>(id, n, input);
}

}  // namespace ksa::algo
