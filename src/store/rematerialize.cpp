#include "store/rematerialize.hpp"

#include <algorithm>
#include <utility>

namespace ksa::store {

Rematerializer::Rematerializer(const Algorithm& algorithm, int n,
                               std::vector<Value> inputs, FailurePlan plan,
                               const DeltaStore& deltas,
                               DigestSendFn digest_send)
    : algorithm_(algorithm),
      n_(n),
      inputs_(std::move(inputs)),
      plan_(std::move(plan)),
      reader_(deltas),
      digest_send_(digest_send) {
    reset_to_root();
}

void Rematerializer::reset_to_root() {
    live_ = std::make_unique<System>(algorithm_, n_, inputs_, plan_);
    live_->set_recording(false);
    top_ = 0;
    if (trail_.empty()) trail_.emplace_back();
    Level& root = trail_[0];
    root.id = 0;
    root.marks.assign(static_cast<std::size_t>(n_), BehaviorMark{});
    root.mhash.resize(static_cast<std::size_t>(n_));
    for (ProcessId p = 1; p <= n_; ++p) {
        auto& mp = root.mhash[p - 1];
        mp.clear();
        for (const Message& m : live_->buffer(p))
            mp.push_back(digest_send_(m.from, *m.payload));
    }
}

void Rematerializer::redo(std::uint64_t child_id, const DeltaRecord& rec) {
    if (trail_.size() == top_ + 1) trail_.emplace_back();
    const Level& below = trail_[top_];
    Level& level = trail_[top_ + 1];
    const ProcessId stepper = static_cast<ProcessId>(rec.stepper);
    // The delivered-prefix length plus the live buffer fully determine
    // the original step, message ids included: the live id counter is
    // the one the original acceptance saw.
    level.id = child_id;
    live_->step_undoable(stepper, rec.delivered, level.undo);
    ++top_;
    ++replay_steps_;

    // Advance the incremental caches exactly the way the step advanced
    // the buffers: only the stepper's behavior changed; the stepper's
    // delivered prefix left its buffer; the step's kept sends were
    // appended (emission order) to their destinations.  Those sends are
    // all the stepper's, and the copies of a broadcast share one payload
    // body, which is digested once.
    level.marks = below.marks;
    level.marks[stepper - 1] = BehaviorMark{
            true, behavior_hash(live_->behavior_of(stepper))};
    level.mhash = below.mhash;
    auto& sm = level.mhash[stepper - 1];
    sm.erase(sm.begin(),
             sm.begin() + static_cast<std::ptrdiff_t>(std::min(
                                  level.undo.input.delivered.size(), sm.size())));
    const SharedPayload* digested = nullptr;
    Digest128 hash{};
    for (ProcessId q = 1; q <= n_; ++q) {
        auto& mq = level.mhash[q - 1];
        const auto& b = live_->buffer(q);
        require(b.size() >= mq.size(),
                "Rematerializer: cache longer than live buffer");
        for (std::size_t i = mq.size(); i < b.size(); ++i) {
            const SharedPayload& payload = b[i].payload;
            if (digested == nullptr || !payload.same_body(*digested)) {
                digested = &payload;
                hash = digest_send_(stepper, *payload);
            }
            mq.push_back(hash);
        }
    }
}

MaterializedNode Rematerializer::materialize(std::uint64_t id) {
    // Walk the delta chain upward until it meets the trail.  The root
    // (id 0, trail_[0]) terminates the walk unconditionally.
    chain_.clear();
    std::uint64_t cur = id;
    std::size_t meet = 0;
    for (bool found = false; !found;) {
        for (std::size_t j = top_ + 1; j-- > 0;) {
            if (trail_[j].id == cur) {
                meet = j;
                found = true;
                break;
            }
        }
        if (found) break;
        const DeltaRecord rec = reader_.get(cur);
        chain_.emplace_back(cur, rec);
        cur = rec.parent;
    }
    // Undo the levels the node does not share, redo its own suffix.
    // BFS id locality makes both one or two steps in the common case.
    try {
        for (; top_ > meet; --top_) live_->undo_step(trail_[top_].undo);
        for (auto it = chain_.rbegin(); it != chain_.rend(); ++it)
            redo(it->first, it->second);
    } catch (...) {
        reset_to_root();
        throw;
    }
    const Level& level = trail_[top_];
    return MaterializedNode{live_.get(), &level.marks, &level.mhash};
}

std::vector<StepChoice> Rematerializer::script_of(std::uint64_t id) {
    // Root-to-node record path.
    std::vector<DeltaRecord> records;
    for (std::uint64_t cur = id; cur != 0;) {
        const DeltaRecord rec = reader_.get(cur);
        records.push_back(rec);
        cur = rec.parent;
    }
    std::reverse(records.begin(), records.end());
    // Replay on a fresh System, reading concrete message ids back from
    // the live buffers -- the same ids the original run delivered.
    System sys(algorithm_, n_, inputs_, plan_);
    sys.set_recording(false);
    std::vector<StepChoice> script;
    script.reserve(records.size());
    for (const DeltaRecord& rec : records) {
        StepChoice choice = sys.prefix_choice(
                static_cast<ProcessId>(rec.stepper), rec.delivered);
        sys.apply_choice(choice);
        script.push_back(std::move(choice));
    }
    return script;
}

}  // namespace ksa::store
