#include "core/reduction.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

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

RenamedNodeDigests::RenamedNodeDigests(int n, const Algorithm& algorithm,
                                       const SymmetryGroup& group,
                                       const AbsorptionContext& abs)
    : n_(n),
      algorithm_(&algorithm),
      group_(&group),
      abs_(abs),
      width_(group.size() - 1) {}

std::size_t RenamedNodeDigests::memo_entries() const {
    return width_ == 0 ? 0 : renamed_.size() / width_;
}

std::size_t RenamedNodeDigests::add_entry() {
    const std::size_t offset = renamed_.size();
    renamed_.resize(offset + width_);
    return offset;
}

std::size_t RenamedNodeDigests::behavior_entry(Digest128 digest,
                                               const Behavior& behavior) {
    const auto it = behaviors_.find(digest);
    if (it != behaviors_.end()) return it->second;
    const std::size_t offset = add_entry();
    for (std::size_t g = 1; g <= width_; ++g)
        renamed_[offset + g - 1] = renamed_behavior_hash(
                behavior, group_->renaming(g), scratch_.sub);
    behaviors_.emplace(digest, offset);
    return offset;
}

std::size_t RenamedNodeDigests::message_entry(Digest128 digest,
                                              ProcessId from,
                                              const SharedPayload& payload) {
    const auto [first, last] = messages_.equal_range(digest);
    for (auto it = first; it != last; ++it)
        if (it->second.from == from && it->second.payload == payload)
            return it->second.entry;
    const std::size_t offset = add_entry();
    for (std::size_t g = 1; g <= width_; ++g)
        renamed_[offset + g - 1] = renamed_msg_hash(
                from, *payload, *algorithm_, group_->renaming(g), scratch_);
    messages_.emplace(digest, MessageEntry{from, payload, offset});
    return offset;
}

void RenamedNodeDigests::build(
        const System& sys, const NodeLiveness& live,
        const std::vector<Digest128>& behavior_digests,
        const std::vector<std::vector<Digest128>>& message_digests) {
    if (renamed_.size() * sizeof(Digest128) > kMemoBytes) {
        renamed_.clear();
        behaviors_.clear();
        messages_.clear();
    }
    sys_ = &sys;
    live_ = &live;

    // Absorbed processes are never folded, so they resolve no entry.
    behavior_entry_.resize(static_cast<std::size_t>(n_));
    msg_entry_.clear();
    for (ProcessId p = 1; p <= n_; ++p) {
        if (abs_.decided_final && sys.decision_of(p)) continue;  // absorbed
        if (sys.steps_of(p) > 0)
            behavior_entry_[p - 1] =
                    behavior_entry(behavior_digests[p - 1], sys.behavior_of(p));
        const auto& buf = sys.buffer(p);
        const auto& digests = message_digests[p - 1];
        for (std::size_t i = 0; i < buf.size(); ++i)
            msg_entry_.push_back(
                    message_entry(digests[i], buf[i].from, buf[i].payload));
    }
    invariant(msg_entry_.size() == live.size(),
              "RenamedNodeDigests::build: liveness table of another node");
}

Digest128 RenamedNodeDigests::min_child_key(const GhostEffects& eff,
                                            Digest128 identity_key) {
    invariant(sys_ != nullptr && eff.arriving != nullptr &&
                      eff.decision != nullptr && eff.behavior_after != nullptr &&
                      (!abs_.strip_inert || eff.stepper_live != nullptr),
              "RenamedNodeDigests::min_child_key: no node built or incomplete "
              "GhostEffects");
    const System& sys = *sys_;
    const ProcessId stepper = eff.stepper;
    const std::vector<ArrivingSend>& arriving = *eff.arriving;

    // What every renamed key folds per process of the child, in
    // renaming-independent form: header words, the memo entries of its
    // live messages and of its behavior.  Liveness is renaming-invariant
    // and was judged by the identity key; consecutive arrivals of one
    // payload body (a broadcast) resolve their entry once.
    child_.resize(static_cast<std::size_t>(n_));
    fold_.clear();
    const SharedPayload* resolved = nullptr;
    std::size_t resolved_entry = 0;
    for (ProcessId q = 1; q <= n_; ++q) {
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
        if (q == stepper)
            c.behavior = behavior_entry(eff.behavior_digest,
                                        *eff.behavior_after);
        else if (c.stepped)
            c.behavior = behavior_entry_[q - 1];
        // The child's buffer of q: the parent's minus the delivered
        // prefix, then q's surviving arrivals in emission order (as
        // apply_choice appends them), dead messages deleted.
        const std::size_t begin = live_->begin(q);
        if (q == stepper) {
            const std::size_t size = live_->begin(q + 1) - begin;
            for (std::size_t i = eff.delivered; i < size; ++i)
                if (!abs_.strip_inert ||
                    (*eff.stepper_live)[i - eff.delivered] != 0)
                    fold_.push_back(msg_entry_[begin + i]);
        } else {
            for (std::size_t i = begin; i < live_->begin(q + 1); ++i)
                if (live_->live(i)) fold_.push_back(msg_entry_[i]);
        }
        for (const ArrivingSend& a : arriving) {
            if (a.dest != q || !a.live) continue;
            if (resolved == nullptr || !a.payload->same_body(*resolved)) {
                resolved = a.payload;
                resolved_entry = message_entry(a.hash, stepper, *a.payload);
            }
            fold_.push_back(resolved_entry);
        }
        c.fold_end = fold_.size();
        c.head[c.head_words++] = c.fold_end - c.fold_begin;
    }

    // hash_state_renamed's field sequence over the child, once per
    // element: inverse(g) lists the processes in renamed-position
    // order, and an entry's digest under g is column[entry].
    const SymmetryGroup& group = *group_;
    Digest128 key = identity_key;
    for (std::size_t g = 1; g < group.size(); ++g) {
        const Digest128* column = renamed_.data() + (g - 1);
        StateHasher h;
        for (const ProcessId q : group.inverse(g)) {
            const ChildProcess& c = child_[q - 1];
            for (std::size_t w = 0; w < c.head_words; ++w) h.u64(c.head[w]);
            for (std::size_t k = c.fold_begin; k < c.fold_end; ++k)
                h.fold(column[fold_[k]]);
        }
        for (const ProcessId q : group.inverse(g)) {
            const ChildProcess& c = child_[q - 1];
            if (c.collapsed) continue;
            h.u64(c.stepped ? 1 : 0);
            if (c.stepped) h.fold(column[c.behavior]);
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
