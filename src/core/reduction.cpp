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

Digest128 renamed_msg_hash(ProcessId from, const Payload& payload,
                           const Algorithm& algorithm,
                           const ProcessRenaming& ren,
                           RenameScratch& scratch) {
    scratch.payload = payload;
    const bool ok = algorithm.rename_payload_ids(scratch.payload, ren);
    invariant(ok, "renamed_msg_hash: algorithm refused to rename a payload "
                  "after SymmetryGroup::compute probed support");
    return message_digest(ren[static_cast<std::size_t>(from) - 1],
                          scratch.payload);
}

Digest128 renamed_behavior_hash(const Behavior& behavior,
                                const ProcessRenaming& ren,
                                StateHasher& sub) {
    sub.reset();
    const bool ok = behavior.fold_state_renamed(sub, ren);
    invariant(ok, "renamed_behavior_hash: behavior refused to fold under a "
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
            if (!dead_message(m.from, m.payload, recv, abs)) ++live;
        h.u64(live);
        for (const Message& m : buf)
            if (!dead_message(m.from, m.payload, recv, abs))
                h.fold(message_digest(m.from, m.payload));
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
            if (!dead_message(m.from, m.payload, recv, abs)) ++live;
        h.u64(live);
        for (const Message& m : buf)
            if (!dead_message(m.from, m.payload, recv, abs))
                h.fold(renamed_msg_hash(m.from, m.payload, algorithm, ren,
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

Digest128 hash_child_renamed(const System& sys, int n,
                             const Algorithm& algorithm,
                             const GhostEffects& g,
                             const ProcessRenaming& ren,
                             const ProcessRenaming& inv,
                             RenameScratch& scratch,
                             const AbsorptionContext& abs) {
    invariant(g.sends != nullptr && g.decision != nullptr &&
                      g.behavior_after != nullptr,
              "hash_child_renamed: incomplete GhostEffects");
    StateHasher h;
    for (ProcessId r = 1; r <= n; ++r) {
        const ProcessId q = inv[static_cast<std::size_t>(r) - 1];
        auto d = sys.decision_of(q);
        if (q == g.stepper && *g.decision) d = *g.decision;
        if (abs.decided_final && d) {
            h.u64(2);
            h.i64(*d);
            continue;
        }
        const bool crashed_q =
                q == g.stepper ? g.final_crash : sys.crashed(q);
        h.u64(crashed_q ? 1 : 0);
        h.u64(d ? 1 : 0);
        if (d) h.i64(*d);
        const auto& buf = sys.buffer(q);
        const std::size_t skip = q == g.stepper ? g.delivered : 0;
        // apply_choice appends surviving sends in emission order; the
        // child's buffer of q is buf[skip:] followed by `arriving`.
        scratch.arriving.clear();
        for (const auto& [dest, payload] : *g.sends)
            if (dest == q && g.send_survives(dest))
                scratch.arriving.push_back(&payload);
        // Delete dead messages anywhere in the concatenation, judged
        // by q's behavior in the child state.
        const Behavior& receiver =
                q == g.stepper ? *g.behavior_after : sys.behavior_of(q);
        std::size_t live = 0;
        for (std::size_t i = skip; i < buf.size(); ++i)
            if (!dead_message(buf[i].from, buf[i].payload, receiver, abs))
                ++live;
        for (const Payload* pl : scratch.arriving)
            if (!dead_message(g.stepper, *pl, receiver, abs)) ++live;
        h.u64(live);
        for (std::size_t i = skip; i < buf.size(); ++i)
            if (!dead_message(buf[i].from, buf[i].payload, receiver, abs))
                h.fold(renamed_msg_hash(buf[i].from, buf[i].payload,
                                        algorithm, ren, scratch));
        for (const Payload* pl : scratch.arriving)
            if (!dead_message(g.stepper, *pl, receiver, abs))
                h.fold(renamed_msg_hash(g.stepper, *pl, algorithm, ren,
                                        scratch));
    }
    for (ProcessId r = 1; r <= n; ++r) {
        const ProcessId q = inv[static_cast<std::size_t>(r) - 1];
        if (abs.decided_final) {
            auto d = sys.decision_of(q);
            if (q == g.stepper && *g.decision) d = *g.decision;
            if (d) continue;  // collapsed
        }
        if (q == g.stepper) {
            h.u64(1);
            h.fold(renamed_behavior_hash(*g.behavior_after, ren,
                                         scratch.sub));
        } else {
            const bool stepped = sys.steps_of(q) > 0;
            h.u64(stepped ? 1 : 0);
            if (stepped)
                h.fold(renamed_behavior_hash(sys.behavior_of(q), ren,
                                             scratch.sub));
        }
    }
    return h.digest();
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
