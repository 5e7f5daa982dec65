#include "algo/initial_clique.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>

#include "graph/mask_sources.hpp"

namespace ksa::algo {

namespace {

using graph::VertexMask;

/// The mask bit of process q: processes are 1-based, bits 0-based.
VertexMask bit(int q) { return VertexMask{1} << (q - 1); }

/// Calls f(q) for every process q in `m`, in ascending id order.
template <typename F>
void for_each_id(VertexMask m, F&& f) {
    for (; m != 0; m &= m - 1) f(std::countr_zero(m) + 1);
}

/// Folds the id set `m` exactly as its sorted id vector would fold:
/// length, then every id in ascending order.
void fold_ids(StateHasher& h, VertexMask m) {
    h.u64(static_cast<std::uint64_t>(std::popcount(m)));
    for_each_id(m, [&h](int q) { h.i64(q); });
}

/// `m` with every id mapped through `ren`.
VertexMask renamed_mask(VertexMask m, const ProcessRenaming& ren) {
    VertexMask out = 0;
    for_each_id(m, [&](int q) { out |= bit(renamed_id(ren, q)); });
    return out;
}

/// Digest fragment `{a,b,...}` of the id set `m`, ascending.
void render_ids(TextWriter& out, VertexMask m) {
    out << '{';
    bool first = true;
    for_each_id(m, [&](int q) {
        if (!first) out << ',';
        first = false;
        out << q;
    });
    out << '}';
}

/// Per-process state machine of the two-stage protocol.
class InitialCliqueBehavior final : public BehaviorBase {
public:
    InitialCliqueBehavior(ProcessId id, int n, Value input, int l)
        : BehaviorBase(id, n, input), l_(l) {
        require(l_ >= 1 && l_ <= n, "InitialCliqueKSet: need 1 <= L <= n");
        require(n <= graph::kMaskVertices, "InitialCliqueKSet: need n <= 64");
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
        if (phase_ == 1 && std::popcount(heard_) == l_ - 1) {
            // Stage 2: publish proposal and heard-list.
            std::vector<int> heard;
            heard.reserve(static_cast<std::size_t>(l_ - 1));
            for_each_id(heard_, [&heard](int q) { heard.push_back(q); });
            broadcast_others(out, make_payload("S2", {id(), input()},
                                               {std::move(heard)}));
            required_ |= heard_;
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
        return payload.tag == "S1" && std::popcount(heard_) >= l_ - 1;
    }

    std::unique_ptr<Behavior> clone() const override {
        return std::make_unique<InitialCliqueBehavior>(*this);
    }

    std::string state_digest() const override {
        // Every recorded step renders one: sized so that most states
        // take a single allocation (about 40 bytes plus 10-20 per id).
        std::string s;
        s.reserve(32 + 16 * static_cast<std::size_t>(n()));
        TextWriter d(s);
        d << "IC(p" << id() << ",x=" << input() << ",ph=" << phase_
          << ",heard=";
        render_ids(d, heard_);
        d << ",req=";
        render_ids(d, required_);
        d << ",known={";
        bool first = true;
        for_each_id(known_, [&](int q) {
            if (!first) d << ';';
            first = false;
            d << q << ':' << value_[q - 1] << ':';
            render_ids(d, list_[q - 1]);
        });
        d << "})";
        return s;
    }

    /// Same fields as state_digest, folded directly (no string).
    void fold_state(StateHasher& h) const override {
        h.str("IC");
        h.i64(id());
        h.i64(input());
        h.i64(phase_);
        fold_ids(h, heard_);
        fold_ids(h, required_);
        h.u64(static_cast<std::uint64_t>(std::popcount(known_)));
        for_each_id(known_, [&](int q) {
            h.i64(q);
            h.i64(value_[q - 1]);
            fold_ids(h, list_[q - 1]);
        });
    }

    /// fold_state under renaming: every id-valued field is mapped
    /// through `ren` and every id set walked in ascending new name,
    /// exactly as the renamed execution would store it.  The known
    /// senders are walked through an inverse table on the stack, so the
    /// fold neither sorts nor allocates.
    bool fold_state_renamed(StateHasher& h,
                            const ProcessRenaming& ren) const override {
        h.str("IC");
        h.i64(renamed_id(ren, id()));
        h.i64(input());
        h.i64(phase_);
        fold_ids(h, renamed_mask(heard_, ren));
        fold_ids(h, renamed_mask(required_, ren));
        std::array<int, graph::kMaskVertices> sender_of{};  // by new id - 1
        VertexMask renamed_known = 0;
        for_each_id(known_, [&](int q) {
            const int r = renamed_id(ren, q);
            renamed_known |= bit(r);
            sender_of[r - 1] = q;
        });
        h.u64(static_cast<std::uint64_t>(std::popcount(known_)));
        for_each_id(renamed_known, [&](int r) {
            const int q = sender_of[r - 1];
            h.i64(r);
            h.i64(value_[q - 1]);
            fold_ids(h, renamed_mask(list_[q - 1], ren));
        });
        return true;
    }

private:
    /// True for a process id in 1..n other than our own: the only ids a
    /// message may name and still be counted.
    bool is_peer(int q) const { return q >= 1 && q <= n() && q != id(); }

    /// `ids` as a mask, or nullopt when it names an id outside 1..n.
    std::optional<VertexMask> mask_of(const std::vector<int>& ids) const {
        VertexMask m = 0;
        for (int q : ids) {
            if (q < 1 || q > n()) return std::nullopt;
            m |= bit(q);
        }
        return m;
    }

    void ingest(const StepInput& in) {
        for (const Message& m : in.delivered) {
            if (m.payload->tag == "S1") {
                // Only the first L-1 senders become in-neighbours; later
                // stage-1 messages are ignored (the graph edge exists only
                // if the receiver *counted* the message).  A claim naming
                // the receiver itself is discarded: no correct process
                // sends itself a stage-1 message, so such a payload can
                // only be forged (it would be a self-loop in the
                // heard-from graph).  So is a claim naming no process.
                const int v = m.payload->ints.at(0);
                if (!is_peer(v)) continue;
                if (std::popcount(heard_) < l_ - 1) heard_ |= bit(v);
            } else if (m.payload->tag == "S2") {
                // Likewise, a stage-2 report *about ourselves* is
                // discarded -- we know our own input and in-neighbours,
                // and only a forgery would claim to report them -- and so
                // is one naming an id outside 1..n anywhere.
                const int q = m.payload->ints.at(0);
                if (!is_peer(q)) continue;
                const Value x = m.payload->ints.at(1);
                const std::optional<VertexMask> list =
                    mask_of(m.payload->lists.at(0));
                if (!list) continue;
                known_ |= bit(q);
                value_[q - 1] = x;
                list_[q - 1] = *list;
                required_ |= *list;
            }
        }
    }

    /// True when a stage-2 message from every required process arrived.
    bool closure_complete() const {
        return (required_ & ~known_ & ~bit(id())) == 0;
    }

    /// Applies the source-component decision rule to the known
    /// (in-closed) part of the heard-from graph: self's in-neighbours are
    /// heard_, a known sender's are its heard-list.
    Value compute_decision() const {
        // Participating vertices: self plus every sender of a stage-2
        // message we hold.  Bit q-1 is process q, as everywhere here.
        const VertexMask participants = bit(id()) | known_;
        invariant((participants & bit(id())) != 0,
                  "InitialCliqueKSet: self not a participant");
        std::array<VertexMask, graph::kMaskVertices> in = list_;
        in[id() - 1] = heard_;
        const int rep_bit =
            graph::smallest_source_reaching(in, participants, id() - 1);
        invariant(rep_bit >= 0,
                  "InitialCliqueKSet: no source component reaches this process");

        const ProcessId rep = rep_bit + 1;
        if (rep == id()) return input();
        invariant((known_ & bit(rep)) != 0,
                  "InitialCliqueKSet: representative's proposal unknown");
        return value_[rep - 1];
    }

    int l_;
    int phase_ = 0;            // 0 start, 1 stage-1 wait, 2 closure, 3 done
    VertexMask heard_ = 0;     // stage-1 in-neighbours
    VertexMask required_ = 0;  // processes whose stage-2 msg we await
    VertexMask known_ = 0;     // senders of the stage-2 messages we hold
    // Per known sender q, at index q-1: its proposal and heard-list.
    std::array<Value, graph::kMaskVertices> value_{};
    std::array<VertexMask, graph::kMaskVertices> list_{};
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
