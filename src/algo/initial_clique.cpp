#include "algo/initial_clique.hpp"

#include <algorithm>

#include "graph/clique.hpp"
#include "graph/digraph.hpp"
#include "graph/scc.hpp"

namespace ksa::algo {

namespace {

/// Per-process state machine of the two-stage protocol.
class InitialCliqueBehavior final : public BehaviorBase {
public:
    InitialCliqueBehavior(ProcessId id, int n, Value input, int l)
        : BehaviorBase(id, n, input), l_(l) {
        require(l_ >= 1 && l_ <= n, "InitialCliqueKSet: need 1 <= L <= n");
    }

    StepOutput on_step(const StepInput& in) override {
        StepOutput out;
        ingest(in);
        if (has_decided()) return out;

        if (phase_ == 0) {
            // Stage 1: announce ourselves.
            broadcast_others(out, make_payload("S1", {id()}));
            phase_ = 1;
        }
        if (phase_ == 1 && static_cast<int>(heard_.size()) == l_ - 1) {
            // Stage 2: publish proposal and heard-list.
            broadcast_others(out,
                             make_payload("S2", {id(), input()}, {heard_}));
            for (int q : heard_) insert_sorted_unique(required_, q);
            phase_ = 2;
        }
        if (phase_ == 2 && closure_complete()) {
            decide(out, compute_decision());
            phase_ = 3;
        }
        return out;
    }

    /// All sends happen in the stage-1 announce (phase 0 -> 1) and the
    /// stage-2 publish (phase 1 -> 2) steps; from phase 2 on, steps only
    /// collect stage-2 messages and decide.  Monotone: phase_ only grows.
    bool may_send() const override { return phase_ < 2; }

    /// Once the stage-1 quota is full, further S1 messages are dropped
    /// by ingest() without any state change -- heard_ never shrinks, so
    /// the claim is monotone as Behavior::message_inert requires.
    bool message_inert(ProcessId /*from*/,
                       const Payload& payload) const override {
        return payload.tag == "S1" &&
               static_cast<int>(heard_.size()) >= l_ - 1;
    }

    std::unique_ptr<Behavior> clone() const override {
        return std::make_unique<InitialCliqueBehavior>(*this);
    }

    std::string state_digest() const override {
        std::ostringstream d;
        d << "IC(p" << id() << ",x=" << input() << ",ph=" << phase_
          << ",heard=" << render(heard_) << ",req=" << render(required_)
          << ",known=";
        d << '{';
        bool first = true;
        for (const auto& [q, info] : known_) {
            if (!first) d << ';';
            first = false;
            d << q << ":" << info.first << ":" << render(info.second);
        }
        d << "})";
        return d.str();
    }

    /// Same fields as state_digest, folded directly (no string).
    void fold_state(StateHasher& h) const override {
        h.str("IC");
        h.i64(id());
        h.i64(input());
        h.i64(phase_);
        h.u64(heard_.size());
        for (int q : heard_) h.i64(q);
        h.u64(required_.size());
        for (int q : required_) h.i64(q);
        h.u64(known_.size());
        for (const auto& [q, info] : known_) {
            h.i64(q);
            h.i64(info.first);
            h.u64(info.second.size());
            for (int u : info.second) h.i64(u);
        }
    }

    /// fold_state under renaming: every id-valued field is mapped
    /// through `ren` and every id-sorted container re-sorted under the
    /// new names, exactly as the renamed execution would store it.
    /// Allocation-free (algo/common.hpp): the sorts run in stack
    /// buffers.
    bool fold_state_renamed(StateHasher& h,
                            const ProcessRenaming& ren) const override {
        h.str("IC");
        h.i64(renamed_id(ren, id()));
        h.i64(input());
        h.i64(phase_);
        fold_renamed_ids(h, heard_, ren);
        fold_renamed_ids(h, required_, ren);
        // known_ re-keyed by renamed sender.  Renaming is a bijection,
        // so the renamed keys are distinct and sorting by key alone
        // orders the entries.
        struct Entry {
            int q = 0;
            const std::pair<Value, std::vector<int>>* info = nullptr;
        };
        StackBuffer<Entry> known(known_.size());
        std::size_t k = 0;
        for (const auto& [q, info] : known_)
            known[k++] = {renamed_id(ren, q), &info};
        std::sort(known.begin(), known.end(),
                  [](const Entry& a, const Entry& b) { return a.q < b.q; });
        h.u64(known_.size());
        for (const Entry& e : known) {
            h.i64(e.q);
            h.i64(e.info->first);
            fold_renamed_ids(h, e.info->second, ren);
        }
        return true;
    }

private:
    void ingest(const StepInput& in) {
        for (const Message& m : in.delivered) {
            if (m.payload.tag == "S1") {
                // Only the first L-1 senders become in-neighbours; later
                // stage-1 messages are ignored (the graph edge exists only
                // if the receiver *counted* the message).  A claim naming
                // the receiver itself is discarded: no correct process
                // sends itself a stage-1 message, so such a payload can
                // only be forged (it would be a self-loop in the
                // heard-from graph).
                const int v = m.payload.ints.at(0);
                if (v == id()) continue;
                if (static_cast<int>(heard_.size()) < l_ - 1)
                    insert_sorted_unique(heard_, v);
            } else if (m.payload.tag == "S2") {
                // Likewise, a stage-2 report *about ourselves* is
                // discarded -- we know our own input and in-neighbours,
                // and only a forgery would claim to report them.
                const int q = m.payload.ints.at(0);
                if (q == id()) continue;
                const Value x = m.payload.ints.at(1);
                const std::vector<int>& list = m.payload.lists.at(0);
                known_[q] = {x, list};
                for (int u : list) insert_sorted_unique(required_, u);
            }
        }
    }

    /// True when a stage-2 message from every required process arrived.
    bool closure_complete() const {
        for (int q : required_)
            if (q != id() && known_.count(q) == 0) return false;
        return true;
    }

    /// Builds the known (in-closed) part of the heard-from graph and
    /// applies the source-component decision rule.
    Value compute_decision() const {
        // Participating vertices: self plus every sender of a stage-2
        // message we hold.  (0-based for the graph library.)
        std::vector<int> participants{id() - 1};
        for (const auto& [q, _] : known_)
            insert_sorted_unique(participants, q - 1);

        graph::Digraph g(n());
        for (int u : heard_) g.add_edge(u - 1, id() - 1);
        for (const auto& [q, info] : known_)
            for (int u : info.second)
                if (u != q) g.add_edge(u - 1, q - 1);

        std::vector<int> labels;
        graph::Digraph sub = g.induced(participants, &labels);

        // Source components of the known subgraph; find those from which
        // we are reachable and pick the one with the smallest member.
        auto sources = graph::source_components(sub);
        invariant(!sources.empty(), "InitialCliqueKSet: no source component");
        int self_local = -1;
        for (std::size_t i = 0; i < labels.size(); ++i)
            if (labels[i] == id() - 1) self_local = static_cast<int>(i);
        invariant(self_local >= 0, "InitialCliqueKSet: self not a participant");

        int best_member = -1;  // 0-based global id of chosen representative
        for (const auto& sc : sources) {
            auto reach = graph::reachable_from(sub, sc);
            if (!std::binary_search(reach.begin(), reach.end(), self_local))
                continue;
            const int member = labels[sc.front()];  // smallest: sc sorted
            if (best_member == -1 || member < best_member) best_member = member;
        }
        invariant(best_member >= 0,
                  "InitialCliqueKSet: no source component reaches this process");

        const ProcessId rep = best_member + 1;
        if (rep == id()) return input();
        auto it = known_.find(rep);
        invariant(it != known_.end(),
                  "InitialCliqueKSet: representative's proposal unknown");
        return it->second.first;
    }

    int l_;
    int phase_ = 0;                 // 0 start, 1 stage-1 wait, 2 closure, 3 done
    std::vector<int> heard_;        // stage-1 in-neighbours (sorted)
    std::vector<int> required_;     // processes whose stage-2 msg we await
    std::map<int, std::pair<Value, std::vector<int>>> known_;  // S2 contents
};

}  // namespace

std::unique_ptr<Behavior> InitialCliqueKSet::make_behavior(ProcessId id, int n,
                                                           Value input) const {
    return std::make_unique<InitialCliqueBehavior>(id, n, input, l_);
}

std::string InitialCliqueKSet::name() const {
    return "initial-clique(L=" + std::to_string(l_) + ")";
}

bool InitialCliqueKSet::rename_payload_ids(Payload& payload,
                                           const ProcessRenaming& ren) const {
    auto rename_id = [&ren](int& q) {
        q = ren[static_cast<std::size_t>(q) - 1];
    };
    if (payload.tag == "S1" && !payload.ints.empty()) {
        rename_id(payload.ints[0]);
    } else if (payload.tag == "S2" && !payload.ints.empty()) {
        rename_id(payload.ints[0]);  // ints[1] is the proposal value
        // The heard-list is a sorted id set in the sender's state; the
        // renamed execution sends it sorted under the new names.
        for (std::vector<int>& list : payload.lists) {
            for (int& q : list) rename_id(q);
            std::sort(list.begin(), list.end());
        }
    }
    return true;
}

std::unique_ptr<Algorithm> make_flp_consensus(int n) {
    return std::make_unique<InitialCliqueKSet>((n + 2) / 2);  // ceil((n+1)/2)
}

std::unique_ptr<Algorithm> make_flp_kset(int n, int f) {
    require(f >= 0 && f < n, "make_flp_kset: need 0 <= f < n");
    return std::make_unique<InitialCliqueKSet>(n - f);
}

}  // namespace ksa::algo
