#include "algo/kset_paxos.hpp"

#include <map>
#include <set>

#include "algo/common.hpp"

namespace ksa::algo {

namespace {

// Message tags (all carry the instance id as the first int field):
//   KPREP(j, b)                 driver -> all    phase-1 request
//   KPROM(j, b, has, ab, av)    acceptor -> drv  phase-1 promise
//   KACC(j, b, v)               driver -> all    phase-2 request
//   KACCD(j, b)                 acceptor -> drv  phase-2 acknowledgment
//   KNACK(j, b, pb)             acceptor -> drv  ballot too small
//   DEC(v)                      anyone -> all    decision announcement
class KSetPaxosBehavior final : public BehaviorBase {
public:
    KSetPaxosBehavior(ProcessId id, int n, Value input, int k)
        : BehaviorBase(id, n, input), k_(k) {
        require(k_ >= 1, "KSetPaxos: k must be >= 1");
        acceptor_.resize(k_);
        driver_.resize(k_);
    }

    StepOutput on_step(const StepInput& in) override {
        StepOutput out;
        ingest(in, out);
        if (has_decided()) return out;

        invariant(in.fd.has_value(), "KSetPaxos: step without FD sample");
        const auto& leaders = in.fd->leaders;  // sorted by the oracle
        const auto& quorum = in.fd->quorum;

        for (int j = 0; j < k_; ++j) {
            const bool drives =
                j < static_cast<int>(leaders.size()) && leaders[j] == id();
            Driver& d = driver_[j];
            if (drives && d.ballot == 0) start_ballot(j, out);
            if (d.ballot == 0) continue;

            if (d.phase == 1 && covers(keys(d.promises), quorum)) {
                int best_ab = 0;
                Value v = input();
                for (const auto& [q, p] : d.promises) {
                    (void)q;
                    if (p.first > best_ab) best_ab = p.first, v = p.second;
                }
                d.proposal = v;
                d.phase = 2;
                // Self-accept.
                Acceptor& self = acceptor_[j];
                self.promised = std::max(self.promised, d.ballot);
                self.accepted_ballot = d.ballot;
                self.accepted_value = d.proposal;
                d.accepts.insert(id());
                broadcast_others(out,
                                 make_payload("KACC", {j, d.ballot, d.proposal}));
            }
            if (d.phase == 2 && covers(d.accepts, quorum)) {
                decide(out, d.proposal);
                broadcast_others(out, make_payload("DEC", {d.proposal}));
                return out;
            }
        }
        return out;
    }

    std::unique_ptr<Behavior> clone() const override {
        return std::make_unique<KSetPaxosBehavior>(*this);
    }

    std::string state_digest() const override {
        std::string s;
        TextWriter out(s);
        out << "KP(p" << id() << ",x=" << input() << ",dec=" << has_decided();
        for (int j = 0; j < k_; ++j) {
            const Acceptor& a = acceptor_[j];
            const Driver& d = driver_[j];
            out << ";i" << j << ":pb=" << a.promised
                << ",ab=" << a.accepted_ballot << ",av=" << a.accepted_value
                << ",b=" << d.ballot << ",ph=" << d.phase
                << ",#pr=" << d.promises.size() << ",#ac=" << d.accepts.size();
        }
        out << ')';
        return s;
    }

private:
    struct Acceptor {
        int promised = 0;
        int accepted_ballot = 0;
        Value accepted_value = 0;
    };
    struct Driver {
        int round = 0;
        int ballot = 0;  // 0 = idle
        int phase = 0;
        Value proposal = 0;
        std::map<ProcessId, std::pair<int, Value>> promises;
        std::set<ProcessId> accepts;
    };

    void ingest(const StepInput& in, StepOutput& out) {
        for (const Message& m : in.delivered) {
            const auto& tag = m.payload->tag;
            const auto& f = m.payload->ints;
            if (tag == "DEC") {
                if (!has_decided()) {
                    decide(out, f.at(0));
                    broadcast_others(out, make_payload("DEC", {f.at(0)}));
                }
                continue;
            }
            if (tag.rfind("K", 0) != 0) continue;
            const int j = f.at(0);
            if (j < 0 || j >= k_) continue;
            Acceptor& a = acceptor_[j];
            Driver& d = driver_[j];
            if (tag == "KPREP") {
                const int b = f.at(1);
                if (b > a.promised) {
                    a.promised = b;
                    out.send(m.from,
                             make_payload("KPROM",
                                          {j, b, a.accepted_ballot != 0,
                                           a.accepted_ballot,
                                           a.accepted_value}));
                } else {
                    out.send(m.from, make_payload("KNACK", {j, b, a.promised}));
                }
            } else if (tag == "KPROM") {
                if (f.at(1) == d.ballot && d.phase == 1)
                    d.promises[m.from] =
                        f.at(2) != 0
                            ? std::pair<int, Value>{f.at(3), f.at(4)}
                            : std::pair<int, Value>{0, input()};
            } else if (tag == "KACC") {
                const int b = f.at(1);
                if (b >= a.promised) {
                    a.promised = b;
                    a.accepted_ballot = b;
                    a.accepted_value = f.at(2);
                    out.send(m.from, make_payload("KACCD", {j, b}));
                } else {
                    out.send(m.from, make_payload("KNACK", {j, b, a.promised}));
                }
            } else if (tag == "KACCD") {
                if (f.at(1) == d.ballot && d.phase == 2)
                    d.accepts.insert(m.from);
            } else if (tag == "KNACK") {
                if (f.at(1) == d.ballot) {
                    d.round = std::max(d.round, (f.at(2) + n() - 1) / n());
                    d.ballot = 0;
                    d.phase = 0;
                    d.promises.clear();
                    d.accepts.clear();
                }
            }
        }
    }

    void start_ballot(int j, StepOutput& out) {
        Driver& d = driver_[j];
        Acceptor& a = acceptor_[j];
        ++d.round;
        d.ballot = d.round * n() + id();
        d.phase = 1;
        d.promises.clear();
        d.accepts.clear();
        a.promised = std::max(a.promised, d.ballot);
        d.promises[id()] =
            a.accepted_ballot != 0
                ? std::pair<int, Value>{a.accepted_ballot, a.accepted_value}
                : std::pair<int, Value>{0, input()};
        broadcast_others(out, make_payload("KPREP", {j, d.ballot}));
    }

    static std::set<ProcessId> keys(
            const std::map<ProcessId, std::pair<int, Value>>& m) {
        std::set<ProcessId> out;
        for (const auto& [q, _] : m) out.insert(q);
        return out;
    }

    static bool covers(const std::set<ProcessId>& have,
                       const std::vector<ProcessId>& quorum) {
        for (ProcessId q : quorum)
            if (have.count(q) == 0) return false;
        return !quorum.empty();
    }

    int k_;
    std::vector<Acceptor> acceptor_;
    std::vector<Driver> driver_;
};

}  // namespace

std::unique_ptr<Behavior> KSetPaxos::make_behavior(ProcessId id, int n,
                                                   Value input) const {
    return std::make_unique<KSetPaxosBehavior>(id, n, input, k_);
}

}  // namespace ksa::algo
