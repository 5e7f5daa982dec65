#include "algo/paxos_consensus.hpp"

#include <map>
#include <set>

#include "algo/common.hpp"

namespace ksa::algo {

namespace {

// Message tags:
//   PREP(b)               leader -> all     phase-1 request
//   PROM(b, has, ab, av)  acceptor -> lead  phase-1 promise
//   ACC(b, v)             leader -> all     phase-2 request
//   ACCD(b)               acceptor -> lead  phase-2 acknowledgment
//   NACK(b, pb)           acceptor -> lead  ballot too small
//   DEC(v)                anyone -> all     decision announcement
class PaxosBehavior final : public BehaviorBase {
public:
    PaxosBehavior(ProcessId id, int n, Value input)
        : BehaviorBase(id, n, input), est_(input) {}

    StepOutput on_step(const StepInput& in) override {
        StepOutput out;
        ingest(in, out);
        if (has_decided()) return out;

        invariant(in.fd.has_value(), "PaxosConsensus: step without FD sample");
        const auto& leaders = in.fd->leaders;
        const auto& quorum = in.fd->quorum;
        const bool am_leader =
            std::find(leaders.begin(), leaders.end(), id()) != leaders.end();

        if (am_leader && ballot_ == 0) start_ballot(out);

        if (ballot_ != 0 && phase_ == 1 && covers(promises_keys(), quorum)) {
            // Adopt the value of the highest accepted ballot among the
            // promising quorum, or our estimate if none accepted yet.
            int best_ab = 0;
            Value v = est_;
            for (const auto& [q, p] : promises_) {
                (void)q;
                if (p.first > best_ab) best_ab = p.first, v = p.second;
            }
            proposal_ = v;
            phase_ = 2;
            // Self-accept, then ask the others.
            promised_ = ballot_;
            accepted_ballot_ = ballot_;
            accepted_value_ = proposal_;
            accepts_.insert(id());
            broadcast_others(out, make_payload("ACC", {ballot_, proposal_}));
        }
        if (ballot_ != 0 && phase_ == 2 && covers(accepts_, quorum)) {
            decide(out, proposal_);
            broadcast_others(out, make_payload("DEC", {proposal_}));
        }
        return out;
    }

    std::unique_ptr<Behavior> clone() const override {
        return std::make_unique<PaxosBehavior>(*this);
    }

    std::string state_digest() const override {
        std::string s;
        TextWriter d(s);
        d << "PX(p" << id() << ",x=" << input() << ",est=" << est_
          << ",pb=" << promised_ << ",ab=" << accepted_ballot_
          << ",av=" << accepted_value_ << ",b=" << ballot_ << ",ph=" << phase_
          << ",prop=" << proposal_ << ",#prom=" << promises_.size()
          << ",#acc=" << accepts_.size() << ",dec=" << has_decided() << ')';
        return s;
    }

private:
    void ingest(const StepInput& in, StepOutput& out) {
        for (const Message& m : in.delivered) {
            const auto& tag = m.payload->tag;
            const auto& f = m.payload->ints;
            if (tag == "PREP") {
                const int b = f.at(0);
                if (b > promised_) {
                    promised_ = b;
                    out.send(m.from,
                             make_payload("PROM",
                                          {b, accepted_ballot_ != 0,
                                           accepted_ballot_, accepted_value_}));
                } else {
                    out.send(m.from, make_payload("NACK", {b, promised_}));
                }
            } else if (tag == "PROM") {
                if (f.at(0) == ballot_ && phase_ == 1)
                    promises_[m.from] = f.at(1) != 0
                                            ? std::pair<int, Value>{f.at(2),
                                                                    f.at(3)}
                                            : std::pair<int, Value>{0, est_};
            } else if (tag == "ACC") {
                const int b = f.at(0);
                if (b >= promised_) {
                    promised_ = b;
                    accepted_ballot_ = b;
                    accepted_value_ = f.at(1);
                    out.send(m.from, make_payload("ACCD", {b}));
                } else {
                    out.send(m.from, make_payload("NACK", {b, promised_}));
                }
            } else if (tag == "ACCD") {
                if (f.at(0) == ballot_ && phase_ == 2) accepts_.insert(m.from);
            } else if (tag == "NACK") {
                if (f.at(0) == ballot_) {
                    // Preempted: remember the round and retire the ballot;
                    // a later step restarts with a higher one if we still
                    // lead.
                    round_ = std::max(round_, (f.at(1) + n() - 1) / n());
                    ballot_ = 0;
                    phase_ = 0;
                    promises_.clear();
                    accepts_.clear();
                }
            } else if (tag == "DEC") {
                if (!has_decided()) {
                    decide(out, f.at(0));
                    broadcast_others(out, make_payload("DEC", {f.at(0)}));
                }
            }
        }
    }

    void start_ballot(StepOutput& out) {
        ++round_;
        ballot_ = round_ * n() + id();
        phase_ = 1;
        promises_.clear();
        accepts_.clear();
        // Self-promise.
        promised_ = std::max(promised_, ballot_);
        promises_[id()] = accepted_ballot_ != 0
                              ? std::pair<int, Value>{accepted_ballot_,
                                                      accepted_value_}
                              : std::pair<int, Value>{0, est_};
        broadcast_others(out, make_payload("PREP", {ballot_}));
    }

    std::set<ProcessId> promises_keys() const {
        std::set<ProcessId> out;
        for (const auto& [q, _] : promises_) out.insert(q);
        return out;
    }

    /// True iff every member of `quorum` is in `have`.
    static bool covers(const std::set<ProcessId>& have,
                       const std::vector<ProcessId>& quorum) {
        for (ProcessId q : quorum)
            if (have.count(q) == 0) return false;
        return !quorum.empty();
    }

    Value est_;
    int promised_ = 0;
    int accepted_ballot_ = 0;
    Value accepted_value_ = 0;
    int round_ = 0;
    int ballot_ = 0;  // 0 = not leading
    int phase_ = 0;
    Value proposal_ = 0;
    std::map<ProcessId, std::pair<int, Value>> promises_;
    std::set<ProcessId> accepts_;
};

}  // namespace

std::unique_ptr<Behavior> PaxosConsensus::make_behavior(ProcessId id, int n,
                                                        Value input) const {
    return std::make_unique<PaxosBehavior>(id, n, input);
}

}  // namespace ksa::algo
