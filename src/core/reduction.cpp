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

namespace {

/// The digest of `sys` renamed by element g of `group`, recomputed by
/// one walk of the live System: the field sequence of ChildLayout's
/// comment, with the absorption quotient applied (decided processes
/// fold to their decision, dead messages are deleted).  Position r of
/// the renamed configuration holds what process inverse(g)[r-1] holds
/// in `sys`, with every id mapped through renaming(g); the identity
/// (g = 0) calls no renaming function.  Message arrival order is
/// renaming-invariant (the renamed schedule delivers the renamed
/// messages in the same order), so buffers are walked front to back
/// unchanged.  The absorption quotient is renaming-invariant too
/// (message_inert and decidedness commute with renaming), so it is
/// applied before renaming.
Digest128 walk_state(const System& sys, const Algorithm& algorithm,
                     const SymmetryGroup& group, std::size_t g,
                     RenameScratch& scratch, const AbsorptionContext& abs) {
    const ProcessRenaming& ren = group.renaming(g);
    StateHasher h;
    for (const ProcessId q : group.inverse(g)) {
        auto d = sys.decision_of(q);
        if (abs.decided_final && d) {
            // Decided processes of a decisions-are-final algorithm fold
            // to their decision alone: buffer, crash flag and internal
            // bookkeeping are observationally dead.  The marker 2 is
            // disjoint from the 0/1 the crashed flag feeds below.
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
        for (const Message& m : buf) {
            if (dead_message(m.from, *m.payload, recv, abs)) continue;
            h.fold(g == 0 ? message_digest(m.from, *m.payload)
                          : renamed_msg_hash(m.from, *m.payload, algorithm,
                                             ren, scratch));
        }
    }
    for (const ProcessId q : group.inverse(g)) {
        if (abs.decided_final && sys.decision_of(q)) continue;  // collapsed
        const bool stepped = sys.steps_of(q) > 0;
        h.u64(stepped ? 1 : 0);
        if (!stepped) continue;
        const Behavior& b = sys.behavior_of(q);
        h.fold(g == 0 ? behavior_hash(b)
                      : renamed_behavior_hash(b, ren, scratch.sub));
    }
    return h.digest();
}

}  // namespace

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

Digest128 RenamedNodeDigests::min_child_key(const ChildLayout& child,
                                            Digest128 identity_key) {
    invariant(sys_ != nullptr && child.stepped != nullptr &&
                      child.processes.size() == static_cast<std::size_t>(n_),
              "RenamedNodeDigests::min_child_key: no node built, or a "
              "layout without its step's clone or of another system");
    // Resolve what the layout holds to memo entries: a buffered message
    // through the node's own entries, an arrival through the memo (the
    // consecutive copies of a broadcast once), the stepper's behavior
    // through its stepped clone and everyone else's through the node.
    child_msg_entry_.clear();
    child_msg_begin_.resize(static_cast<std::size_t>(n_) + 1);
    child_behavior_entry_.resize(static_cast<std::size_t>(n_));
    const SharedPayload* resolved = nullptr;
    std::size_t resolved_entry = 0;
    for (ProcessId q = 1; q <= n_; ++q) {
        const ChildLayout::Process& c = child.processes[q - 1];
        child_msg_begin_[q - 1] = child_msg_entry_.size();
        for (std::size_t r = c.begin; r < c.end; ++r) {
            const ChildLayout::Run& run = child.runs[r];
            if (run.position != ChildLayout::kArriving) {
                const std::size_t first = live_->begin(q) + run.position;
                for (std::size_t k = 0; k < run.size; ++k)
                    child_msg_entry_.push_back(msg_entry_[first + k]);
                continue;
            }
            if (resolved == nullptr || !run.payload->same_body(*resolved)) {
                resolved = run.payload;
                resolved_entry = message_entry(*run.digests, child.stepper,
                                               *run.payload);
            }
            child_msg_entry_.push_back(resolved_entry);
        }
        if (c.collapsed || !c.stepped) continue;
        child_behavior_entry_[q - 1] =
                q == child.stepper
                        ? behavior_entry(c.behavior, *child.stepped)
                        : behavior_entry_[q - 1];
    }
    child_msg_begin_[static_cast<std::size_t>(n_)] = child_msg_entry_.size();

    // The layout's fold once per element: inverse(g) lists the
    // processes in renamed-position order, and an entry's digest under
    // g is column[entry].
    const SymmetryGroup& group = *group_;
    Digest128 key = identity_key;
    for (std::size_t g = 1; g < group.size(); ++g) {
        const Digest128* column = renamed_.data() + (g - 1);
        StateHasher h;
        for (const ProcessId q : group.inverse(g))
            fold_child_process(h, child.processes[q - 1], [&](StateHasher& f) {
                for (std::size_t m = child_msg_begin_[q - 1];
                     m < child_msg_begin_[q]; ++m)
                    f.fold(column[child_msg_entry_[m]]);
            });
        for (const ProcessId q : group.inverse(g))
            fold_child_behavior(h, child.processes[q - 1], [&] {
                return column[child_behavior_entry_[q - 1]];
            });
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
    invariant(group.renaming(0).size() == static_cast<std::size_t>(n),
              "canonical_state_key: group of another system size");
    Digest128 key = walk_state(sys, algorithm, group, 0, scratch, abs);
    for (std::size_t g = 1; g < group.size(); ++g) {
        const Digest128 d = walk_state(sys, algorithm, group, g, scratch, abs);
        if (d < key) key = d;
    }
    return key;
}

}  // namespace ksa::core
