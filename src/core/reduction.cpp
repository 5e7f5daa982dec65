#include "core/reduction.hpp"

#include <algorithm>
#include <map>

#include "sim/system.hpp"

namespace ksa::core {

namespace {

ProcessRenaming identity_renaming(int n) {
    ProcessRenaming id(static_cast<std::size_t>(n));
    for (int p = 1; p <= n; ++p) id[static_cast<std::size_t>(p) - 1] = p;
    return id;
}

ProcessRenaming invert(const ProcessRenaming& ren) {
    ProcessRenaming inv(ren.size());
    for (std::size_t i = 0; i < ren.size(); ++i)
        inv[static_cast<std::size_t>(ren[i]) - 1] =
                static_cast<ProcessId>(i + 1);
    return inv;
}

/// True iff pi (as `perm`) fixes the inputs vector: the renamed
/// configuration assigns input inputs[p-1] to process perm[p-1], which
/// must equal that position's own input.
bool fixes_inputs(const ProcessRenaming& perm,
                  const std::vector<Value>& inputs) {
    for (std::size_t i = 0; i < perm.size(); ++i)
        if (inputs[static_cast<std::size_t>(perm[i]) - 1] != inputs[i])
            return false;
    return true;
}

/// True iff pi fixes the crash plan: faulty maps to faulty with equal
/// step allowance and pi-consistent omission targets.
bool fixes_plan(const ProcessRenaming& perm, const FailurePlan& plan, int n) {
    for (ProcessId p = 1; p <= n; ++p) {
        const ProcessId image = perm[static_cast<std::size_t>(p) - 1];
        if (plan.is_faulty(p) != plan.is_faulty(image)) return false;
        if (!plan.is_faulty(p)) continue;
        const CrashSpec& a = plan.spec(p);
        const CrashSpec& b = plan.spec(image);
        if (a.after_own_steps != b.after_own_steps) return false;
        std::set<ProcessId> renamed;
        for (ProcessId q : a.omit_to) {
            if (q < 1 || q > n) return false;  // cannot rename out-of-range
            renamed.insert(perm[static_cast<std::size_t>(q) - 1]);
        }
        if (renamed != b.omit_to) return false;
    }
    return true;
}

/// True iff every equal-input class occupies a contiguous id block --
/// the extra admissibility condition of SymmetryKind::kBlockSymmetric
/// (smallest-id tie-breaks stay value-equivariant exactly on block
/// renamings; doc/extending.md).
bool contiguous_input_blocks(const std::vector<Value>& inputs) {
    std::map<Value, std::pair<std::size_t, std::size_t>> span;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        auto [it, fresh] = span.try_emplace(inputs[i], i, i);
        if (!fresh) it->second.second = i;
    }
    for (const auto& [v, range] : span)
        for (std::size_t i = range.first; i <= range.second; ++i)
            if (inputs[i] != v) return false;
    return true;
}

}  // namespace

// ---------------------------------------------------------------------
// SymmetryGroup.

SymmetryGroup SymmetryGroup::trivial(int n) {
    require(n >= 1, "SymmetryGroup::trivial: need n >= 1");
    SymmetryGroup group;
    ProcessRenaming id = identity_renaming(n);
    group.inverses_.push_back(id);
    group.renamings_.push_back(std::move(id));
    return group;
}

SymmetryGroup SymmetryGroup::compute(const Algorithm& algorithm, int n,
                                     const std::vector<Value>& inputs,
                                     const FailurePlan& plan) {
    require(n >= 1, "SymmetryGroup::compute: need n >= 1");
    require(static_cast<int>(inputs.size()) == n,
            "SymmetryGroup::compute: need n inputs");
    if (n < 2 || n > kMaxSymmetryProcesses) return trivial(n);
    const SymmetryKind kind = algorithm.symmetry();
    if (kind == SymmetryKind::kNone) return trivial(n);

    const ProcessRenaming identity = identity_renaming(n);

    // Probe renaming support on a throwaway behavior: under the
    // identity renaming the renamed fold must byte-match fold_state
    // (the anchor that makes cached identity digests comparable with
    // walked renamed digests), and payload renaming must be accepted.
    {
        auto probe = algorithm.make_behavior(1, n, inputs.front());
        StateHasher direct;
        probe->fold_state(direct);
        StateHasher renamed;
        if (!probe->fold_state_renamed(renamed, identity)) return trivial(n);
        if (direct.digest() != renamed.digest()) return trivial(n);
        Payload payload;
        payload.tag = "__symmetry_probe";
        if (!algorithm.rename_payload_ids(payload, identity)) return trivial(n);
    }

    if (kind == SymmetryKind::kBlockSymmetric &&
        !contiguous_input_blocks(inputs))
        return trivial(n);

    // Enumerate the admissible permutations in lexicographic order; the
    // identity is first.  The admissible set is a subgroup (it is the
    // intersection of the stabilizers of the inputs vector and the
    // plan), so no closure step is needed.
    SymmetryGroup group;
    ProcessRenaming perm = identity;
    do {
        if (!fixes_inputs(perm, inputs)) continue;
        if (!fixes_plan(perm, plan, n)) continue;
        group.inverses_.push_back(invert(perm));
        group.renamings_.push_back(perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
    invariant(!group.renamings_.empty() && group.renamings_[0] == identity,
              "SymmetryGroup::compute: identity must be element 0");
    return group;
}

std::vector<Value> SymmetryGroup::apply_to_outcome(
        std::size_t g, const std::vector<Value>& o) const {
    const ProcessRenaming& ren = renamings_[g];
    invariant(ren.size() == o.size(),
              "SymmetryGroup::apply_to_outcome: size mismatch");
    std::vector<Value> out(o.size());
    for (std::size_t i = 0; i < o.size(); ++i)
        out[static_cast<std::size_t>(ren[i]) - 1] = o[i];
    return out;
}

// ---------------------------------------------------------------------
// State hashing.

namespace {

/// Copies `src` into the scratch payload without giving back heap
/// capacity: list vectors the copy drops park in spare_lists and serve
/// the next payload that needs more lists.  (Plain copy-assignment
/// destroys dropped lists, so alternating list-free and list-carrying
/// payloads -- S1 and S2 of the initial-clique protocol -- would
/// allocate on every switch.)
void assign_scratch_payload(RenameScratch& scratch, const Payload& src) {
    Payload& dst = scratch.payload;
    dst.tag = src.tag;
    dst.ints = src.ints;
    while (dst.lists.size() > src.lists.size()) {
        scratch.spare_lists.push_back(std::move(dst.lists.back()));
        dst.lists.pop_back();
    }
    while (dst.lists.size() < src.lists.size()) {
        if (scratch.spare_lists.empty()) {
            dst.lists.emplace_back();
        } else {
            dst.lists.push_back(std::move(scratch.spare_lists.back()));
            scratch.spare_lists.pop_back();
        }
    }
    for (std::size_t i = 0; i < src.lists.size(); ++i)
        dst.lists[i] = src.lists[i];
}

}  // namespace

Digest128 renamed_msg_hash(ProcessId from, const Payload& payload,
                           const Algorithm& algorithm,
                           const ProcessRenaming& ren,
                           RenameScratch& scratch) {
    assign_scratch_payload(scratch, payload);
    invariant(algorithm.rename_payload_ids(scratch.payload, ren),
              "renamed_msg_hash: algorithm refused to rename a payload after "
              "SymmetryGroup::compute probed support");
    return message_digest(ren[static_cast<std::size_t>(from) - 1],
                          scratch.payload);
}

Digest128 renamed_behavior_hash(const Behavior& behavior,
                                const ProcessRenaming& ren,
                                StateHasher& sub) {
    sub.reset();
    invariant(behavior.fold_state_renamed(sub, ren),
              "renamed_behavior_hash: behavior refused to fold under a "
              "renaming after SymmetryGroup::compute probed support");
    return sub.digest();
}

Digest128 reduced_hash_state(const System& sys, int n,
                             const AbsorptionContext& abs) {
    StateHasher h;
    for (ProcessId p = 1; p <= n; ++p) {
        auto d = sys.decision_of(p);
        if (abs.decided_final && d) {
            // Decided processes of a decisions-are-final algorithm fold
            // to their decision alone: buffer, crash flag and internal
            // bookkeeping are observationally dead.  The marker 2 is
            // disjoint from the 0/1 the crashed flag feeds below.
            h.u64(2);
            h.i64(*d);
            continue;
        }
        h.u64(sys.crashed(p) ? 1 : 0);
        h.u64(d ? 1 : 0);
        if (d) h.i64(*d);
        const auto& buf = sys.buffer(p);
        const Behavior& recv = sys.behavior_of(p);
        std::size_t live = 0;
        for (const Message& m : buf)
            if (!dead_message(m.from, *m.payload, recv, abs)) ++live;
        h.u64(live);
        for (const Message& m : buf)
            if (!dead_message(m.from, *m.payload, recv, abs))
                h.fold(message_digest(m.from, *m.payload));
    }
    for (ProcessId p = 1; p <= n; ++p) {
        if (abs.decided_final && sys.decision_of(p)) continue;  // collapsed
        const bool stepped = sys.steps_of(p) > 0;
        h.u64(stepped ? 1 : 0);
        if (stepped) {
            StateHasher sub;
            sys.behavior_of(p).fold_state(sub);
            h.fold(sub.digest());
        }
    }
    return h.digest();
}

Digest128 hash_state_renamed(const System& sys, int n,
                             const Algorithm& algorithm,
                             const ProcessRenaming& ren,
                             const ProcessRenaming& inv,
                             RenameScratch& scratch,
                             const AbsorptionContext& abs) {
    StateHasher h;
    // Walk the renamed configuration position by position: position r
    // holds what process inv[r-1] holds in `sys`, with every id mapped
    // through `ren`.  Message arrival order is renaming-invariant (the
    // renamed schedule delivers the renamed messages in the same
    // order), so buffers are walked front to back unchanged.  The
    // absorption quotient is renaming-invariant too (message_inert and
    // decidedness commute with renaming), so applying it before the
    // renamed walk folds the same fields reduced_hash_state folds.
    for (ProcessId r = 1; r <= n; ++r) {
        const ProcessId q = inv[static_cast<std::size_t>(r) - 1];
        auto d = sys.decision_of(q);
        if (abs.decided_final && d) {
            h.u64(2);
            h.i64(*d);
            continue;
        }
        h.u64(sys.crashed(q) ? 1 : 0);
        h.u64(d ? 1 : 0);
        if (d) h.i64(*d);
        const auto& buf = sys.buffer(q);
        const Behavior& recv = sys.behavior_of(q);
        std::size_t live = 0;
        for (const Message& m : buf)
            if (!dead_message(m.from, *m.payload, recv, abs)) ++live;
        h.u64(live);
        for (const Message& m : buf)
            if (!dead_message(m.from, *m.payload, recv, abs))
                h.fold(renamed_msg_hash(m.from, *m.payload, algorithm, ren,
                                        scratch));
    }
    for (ProcessId r = 1; r <= n; ++r) {
        const ProcessId q = inv[static_cast<std::size_t>(r) - 1];
        if (abs.decided_final && sys.decision_of(q)) continue;  // collapsed
        const bool stepped = sys.steps_of(q) > 0;
        h.u64(stepped ? 1 : 0);
        if (stepped)
            h.fold(renamed_behavior_hash(sys.behavior_of(q), ren,
                                         scratch.sub));
    }
    return h.digest();
}

void NodeLiveness::build(const System& sys, int n,
                         const AbsorptionContext& abs) {
    begin_.resize(static_cast<std::size_t>(n) + 1);
    live_.clear();
    for (ProcessId p = 1; p <= n; ++p) {
        begin_[p - 1] = live_.size();
        if (abs.decided_final && sys.decision_of(p)) continue;  // absorbed
        const Behavior& receiver = sys.behavior_of(p);
        for (const Message& m : sys.buffer(p))
            live_.push_back(
                    dead_message(m.from, *m.payload, receiver, abs) ? 0 : 1);
    }
    begin_[static_cast<std::size_t>(n)] = live_.size();
}

void RenamedNodeDigests::build(const System& sys, int n,
                               const Algorithm& algorithm,
                               const SymmetryGroup& group,
                               const NodeLiveness& live,
                               const AbsorptionContext& abs) {
    sys_ = &sys;
    algorithm_ = &algorithm;
    group_ = &group;
    live_ = &live;
    abs_ = abs;
    n_ = n;
    const std::size_t procs = static_cast<std::size_t>(n);

    // The messages of every non-absorbed buffer, in NodeLiveness order,
    // each with the earliest equal message (its digests'
    // representative).  Absorbed buffers are never folded, so they
    // contribute no entry -- and hence no representative.
    msgs_.clear();
    rep_.clear();
    for (ProcessId p = 1; p <= n; ++p) {
        if (abs.decided_final && sys.decision_of(p)) continue;  // absorbed
        for (const Message& m : sys.buffer(p)) {
            std::size_t rep = msgs_.size();
            for (std::size_t j = 0; j < msgs_.size(); ++j)
                if (msgs_[j]->from == m.from &&
                    msgs_[j]->payload == m.payload) {
                    rep = j;
                    break;
                }
            msgs_.push_back(&m);
            rep_.push_back(rep);
        }
    }
    invariant(msgs_.size() == live.size(),
              "RenamedNodeDigests::build: liveness table of another node");

    const std::size_t stride = procs + msgs_.size();
    table_.resize((group.size() - 1) * stride);
    for (std::size_t g = 1; g < group.size(); ++g) {
        const ProcessRenaming& ren = group.renaming(g);
        Digest128* block = table_.data() + (g - 1) * stride;
        for (ProcessId p = 1; p <= n; ++p)
            if (sys.steps_of(p) > 0 &&
                !(abs.decided_final && sys.decision_of(p)))
                block[p - 1] = renamed_behavior_hash(sys.behavior_of(p), ren,
                                                     scratch_.sub);
        Digest128* msg = block + procs;
        for (std::size_t i = 0; i < msgs_.size(); ++i)
            msg[i] = rep_[i] == i
                             ? renamed_msg_hash(msgs_[i]->from,
                                                *msgs_[i]->payload, algorithm,
                                                ren, scratch_)
                             : msg[rep_[i]];
    }
}

Digest128 RenamedNodeDigests::min_child_key(const GhostEffects& eff,
                                            Digest128 identity_key) {
    invariant(sys_ != nullptr && eff.sends != nullptr &&
                      eff.decision != nullptr && eff.behavior_after != nullptr,
              "RenamedNodeDigests::min_child_key: no node built or incomplete "
              "GhostEffects");
    const System& sys = *sys_;
    const int n = n_;
    const std::size_t procs = static_cast<std::size_t>(n);
    const std::size_t table_msgs = msgs_.size();
    const ProcessId stepper = eff.stepper;

    // One digest slot per run of equal consecutive surviving sends (a
    // broadcast renames once); send_slot_ maps each send to its slot,
    // or to kLost when it does not survive.
    const std::vector<std::pair<ProcessId, SharedPayload>>& sends =
            *eff.sends;
    constexpr std::size_t kLost = static_cast<std::size_t>(-1);
    arriving_.clear();
    send_slot_.assign(sends.size(), kLost);
    for (std::size_t s = 0; s < sends.size(); ++s) {
        if (!eff.send_survives(sends[s].first)) continue;
        const SharedPayload& payload = sends[s].second;
        if (arriving_.empty() || !(*arriving_.back() == payload))
            arriving_.push_back(&payload);
        send_slot_[s] = arriving_.size() - 1;
    }
    arriving_folded_.assign(arriving_.size(), 0);

    // What every renamed key folds per process of the child, in
    // renaming-independent form: header words and live-message list.
    // Liveness is renaming-invariant, so it is judged here, once.
    child_.resize(procs);
    fold_.clear();
    for (ProcessId q = 1; q <= n; ++q) {
        ChildProcess& c = child_[q - 1];
        auto d = sys.decision_of(q);
        if (q == stepper && *eff.decision) d = *eff.decision;
        c.collapsed = abs_.decided_final && d.has_value();
        c.fold_begin = c.fold_end = fold_.size();
        if (c.collapsed) {
            c.head[0] = 2;
            c.head[1] = static_cast<std::uint64_t>(*d);
            c.head_words = 2;
            continue;
        }
        const bool crashed = q == stepper ? eff.final_crash : sys.crashed(q);
        c.head_words = 0;
        c.head[c.head_words++] = crashed ? 1 : 0;
        c.head[c.head_words++] = d ? 1 : 0;
        if (d) c.head[c.head_words++] = static_cast<std::uint64_t>(*d);
        c.stepped = q == stepper || sys.steps_of(q) > 0;
        // The child's buffer of q: the parent's minus the delivered
        // prefix, then q's surviving arrivals in emission order (as
        // apply_choice appends them), dead messages deleted as judged
        // by q's behavior in the child.
        const std::size_t begin = live_->begin(q);
        if (q == stepper) {
            const auto& buf = sys.buffer(q);
            for (std::size_t i = eff.delivered; i < buf.size(); ++i)
                if (!dead_message(buf[i].from, *buf[i].payload,
                                  *eff.behavior_after, abs_))
                    fold_.push_back(begin + i);
        } else {
            for (std::size_t i = begin; i < live_->begin(q + 1); ++i)
                if (live_->live(i)) fold_.push_back(i);
        }
        const Behavior& receiver =
                q == stepper ? *eff.behavior_after : sys.behavior_of(q);
        for (std::size_t s = 0; s < sends.size(); ++s)
            if (send_slot_[s] != kLost && sends[s].first == q &&
                !dead_message(stepper, *sends[s].second, receiver, abs_)) {
                fold_.push_back(table_msgs + send_slot_[s]);
                arriving_folded_[send_slot_[s]] = 1;
            }
        c.fold_end = fold_.size();
        c.head[c.head_words++] = c.fold_end - c.fold_begin;
    }

    arriving_digest_.resize(arriving_.size());
    const SymmetryGroup& group = *group_;
    const std::size_t stride = procs + table_msgs;
    Digest128 key = identity_key;
    for (std::size_t g = 1; g < group.size(); ++g) {
        const ProcessRenaming& ren = group.renaming(g);
        const ProcessRenaming& inv = group.inverse(g);
        const Digest128* block = table_.data() + (g - 1) * stride;
        const Digest128* msg = block + procs;
        for (std::size_t s = 0; s < arriving_.size(); ++s)
            if (arriving_folded_[s] != 0)
                arriving_digest_[s] = renamed_msg_hash(
                        stepper, **arriving_[s], *algorithm_, ren, scratch_);
        Digest128 stepper_hash{};
        if (!child_[stepper - 1].collapsed)
            stepper_hash = renamed_behavior_hash(*eff.behavior_after, ren,
                                                 scratch_.sub);

        // hash_state_renamed's field sequence over the child: `inv`
        // lists the processes in renamed-position order.
        StateHasher h;
        for (const ProcessId q : inv) {
            const ChildProcess& c = child_[q - 1];
            for (std::size_t w = 0; w < c.head_words; ++w) h.u64(c.head[w]);
            for (std::size_t k = c.fold_begin; k < c.fold_end; ++k) {
                const std::size_t i = fold_[k];
                h.fold(i < table_msgs ? msg[i]
                                      : arriving_digest_[i - table_msgs]);
            }
        }
        for (const ProcessId q : inv) {
            const ChildProcess& c = child_[q - 1];
            if (c.collapsed) continue;
            h.u64(c.stepped ? 1 : 0);
            if (q == stepper)
                h.fold(stepper_hash);
            else if (c.stepped)
                h.fold(block[q - 1]);
        }
        const Digest128 d = h.digest();
        if (d < key) key = d;
    }
    return key;
}

Digest128 canonical_state_key(const System& sys, int n,
                              const Algorithm& algorithm,
                              const SymmetryGroup& group,
                              RenameScratch& scratch,
                              const AbsorptionContext& abs) {
    Digest128 key = reduced_hash_state(sys, n, abs);
    for (std::size_t g = 1; g < group.size(); ++g) {
        const Digest128 d = hash_state_renamed(sys, n, algorithm,
                                               group.renaming(g),
                                               group.inverse(g), scratch, abs);
        if (d < key) key = d;
    }
    return key;
}

}  // namespace ksa::core
