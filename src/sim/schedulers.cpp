#include "sim/schedulers.hpp"

#include <algorithm>

#include "check/contract.hpp"
#include "sim/text_writer.hpp"

namespace ksa {
namespace {

/// A faulty process that still has planned steps to take (stepping it is
/// required to realize the crash plan).
bool faulty_pending(const SystemView& v, ProcessId p) {
    return v.plan().is_faulty(p) && v.can_step(p);
}

/// A correct process that still has work: it has not decided, or it has
/// undrained messages (admissibility requires eventual delivery).
bool useful_correct(const SystemView& v, ProcessId p) {
    return !v.plan().is_faulty(p) && (!v.decided(p) || !v.buffer(p).empty());
}

/// True when the run prefix is decisive: all correct processes decided,
/// their buffers are drained, and every planned crash is realized.
bool all_done(const SystemView& v) {
    if (!v.all_correct_decided() || !v.correct_buffers_empty()) return false;
    for (ProcessId p = 1; p <= v.n(); ++p)
        if (faulty_pending(v, p)) return false;
    return true;
}

}  // namespace

std::optional<StepChoice> RoundRobinScheduler::next(const SystemView& view) {
    if (all_done(view)) return std::nullopt;
    const int n = view.n();
    for (int off = 1; off <= n; ++off) {
        ProcessId p = (cursor_ + off - 1) % n + 1;
        if (!view.can_step(p)) continue;
        if (faulty_pending(view, p) || useful_correct(view, p)) {
            cursor_ = p;
            StepChoice c;
            c.process = p;
            c.deliver_all = true;
            return c;
        }
    }
    return std::nullopt;
}

std::string RandomScheduler::name() const {
    std::string label;
    TextWriter(label) << "random(seed=" << seed_ << ",max_age=" << max_age_
                      << ')';
    return label;
}

std::optional<StepChoice> RandomScheduler::next(const SystemView& view) {
    if (all_done(view)) return std::nullopt;
    std::vector<ProcessId> candidates;
    for (ProcessId p = 1; p <= view.n(); ++p)
        if (view.can_step(p) &&
            (faulty_pending(view, p) || useful_correct(view, p)))
            candidates.push_back(p);
    if (candidates.empty()) return std::nullopt;

    std::uniform_int_distribution<std::size_t> pick(0, candidates.size() - 1);
    StepChoice c;
    c.process = candidates[pick(rng_)];

    if (view.all_correct_decided()) {
        c.deliver_all = true;
        return c;
    }
    std::bernoulli_distribution coin(0.5);
    for (const Message& m : view.buffer(c.process)) {
        const bool aged = view.now() - m.sent_at >= max_age_;
        if (aged || coin(rng_)) c.deliver.push_back(m.id);
    }
    return c;
}

PartitionScheduler::PartitionScheduler(
        std::vector<std::vector<ProcessId>> blocks, int block_budget)
    : blocks_(std::move(blocks)), block_budget_(block_budget) {
    // The blocks B_1..B_m are the D_1,...,D_{k-1},D of the Theorem 2/10
    // partition arguments: a process in two blocks would make the pasted
    // run's plan ill-defined, so disjointness is a hard precondition.
    KSA_REQUIRE(block_budget_ > 0, "PartitionScheduler: non-positive budget");
    std::vector<ProcessId> seen;
    for (const auto& block : blocks_) {
        KSA_REQUIRE(!block.empty(), "PartitionScheduler: empty block");
        for (ProcessId p : block) {
            KSA_REQUIRE(p >= 1, "PartitionScheduler: invalid process id");
            KSA_REQUIRE(std::find(seen.begin(), seen.end(), p) == seen.end(),
                        "PartitionScheduler: blocks must be disjoint");
            seen.push_back(p);
        }
    }
}

bool PartitionScheduler::block_done(const SystemView& view, int b) const {
    for (ProcessId p : blocks_[b]) {
        if (view.plan().is_faulty(p)) {
            if (view.can_step(p)) return false;  // crash not yet realized
        } else if (!view.decided(p)) {
            return false;
        }
    }
    return true;
}

std::optional<StepChoice> PartitionScheduler::intra_block_step(
        const SystemView& view, int b) {
    // Cycles through the block's members in order starting after the last
    // stepped one -- the same relative order a fair round-robin schedule
    // produces when everyone outside the block is dead, which is what the
    // run-pasting indistinguishability arguments (Lemmas 11/12) rely on.
    const auto& block = blocks_[b];
    const int size = static_cast<int>(block.size());
    for (int off = 0; off < size; ++off) {
        const int idx = (block_cursor_ + off) % size;
        ProcessId p = block[idx];
        if (!view.can_step(p)) continue;
        StepChoice c;
        c.process = p;
        for (const Message& m : view.buffer(p))
            if (std::find(block.begin(), block.end(), m.from) != block.end())
                c.deliver.push_back(m.id);
        // A process is worth stepping if it must realize a planned crash,
        // has not decided, or has deliverable messages to drain (matching
        // the fair scheduler's rule).
        const bool faulty = view.plan().is_faulty(p);
        const bool useful = faulty_pending(view, p) ||
                            (!faulty && (!view.decided(p) || !c.deliver.empty()));
        if (!useful) continue;
        block_cursor_ = (idx + 1) % size;
        return c;
    }
    return std::nullopt;
}

std::optional<StepChoice> PartitionScheduler::next(const SystemView& view) {
    while (!releasing_) {
        if (current_block_ >= static_cast<int>(blocks_.size())) {
            releasing_ = true;
            release_time_ = view.now();
            break;
        }
        if (block_done(view, current_block_)) {
            ++current_block_;
            budget_used_ = 0;
            block_cursor_ = 0;
            continue;
        }
        if (budget_used_ >= block_budget_) {
            stalled_.push_back(current_block_);
            ++current_block_;
            budget_used_ = 0;
            block_cursor_ = 0;
            continue;
        }
        std::optional<StepChoice> c = intra_block_step(view, current_block_);
        if (!c) {
            // Nobody in the block can make progress in isolation at all
            // (e.g. all members crashed before deciding).
            stalled_.push_back(current_block_);
            ++current_block_;
            budget_used_ = 0;
            block_cursor_ = 0;
            continue;
        }
        ++budget_used_;
        return c;
    }

    // Release phase: fair round-robin with full delivery.
    if (all_done(view)) return std::nullopt;
    const int n = view.n();
    for (int off = 1; off <= n; ++off) {
        ProcessId p = (release_cursor_ + off - 1) % n + 1;
        if (!view.can_step(p)) continue;
        if (faulty_pending(view, p) || useful_correct(view, p)) {
            release_cursor_ = p;
            StepChoice c;
            c.process = p;
            c.deliver_all = true;
            return c;
        }
    }
    return std::nullopt;
}

StagedScheduler::StagedScheduler(std::vector<Stage> stages)
    : stages_(std::move(stages)) {
    for (const Stage& s : stages_) {
        KSA_REQUIRE(!s.active.empty(),
                    "StagedScheduler: stage with no active set");
        KSA_REQUIRE(s.budget > 0, "StagedScheduler: non-positive stage budget");
    }
}

bool StagedScheduler::stage_done(const SystemView& view,
                                 const Stage& s) const {
    if (s.done) return s.done(view);
    for (ProcessId p : s.active) {
        if (view.plan().is_faulty(p)) {
            if (view.can_step(p)) return false;
        } else if (!view.decided(p)) {
            return false;
        }
    }
    return true;
}

std::optional<StepChoice> StagedScheduler::next(const SystemView& view) {
    while (!releasing_) {
        if (current_ >= stages_.size()) {
            releasing_ = true;
            release_time_ = view.now();
            break;
        }
        const Stage& stage = stages_[current_];
        if (stage_done(view, stage)) {
            ++current_;
            used_ = 0;
            cursor_ = 0;
            continue;
        }
        if (used_ >= stage.budget) {
            stalled_.push_back(static_cast<int>(current_));
            ++current_;
            used_ = 0;
            cursor_ = 0;
            continue;
        }
        // Cursor-based round-robin over the stage's active processes, in
        // the same relative order a fair scheduler would use (see
        // PartitionScheduler::intra_block_step for why this matters).
        bool issued = false;
        StepChoice choice;
        const int size = static_cast<int>(stage.active.size());
        for (int off = 0; off < size && !issued; ++off) {
            const int idx = (cursor_ + off) % size;
            ProcessId p = stage.active[idx];
            if (!view.can_step(p)) continue;
            choice.process = p;
            choice.deliver.clear();
            for (const Message& m : view.buffer(p)) {
                const bool admit =
                    stage.filter
                        ? stage.filter(m, p)
                        : std::find(stage.active.begin(), stage.active.end(),
                                    m.from) != stage.active.end();
                if (admit) choice.deliver.push_back(m.id);
            }
            const bool faulty = view.plan().is_faulty(p);
            const bool useful =
                faulty_pending(view, p) ||
                (!faulty && (!view.decided(p) || !choice.deliver.empty()));
            if (!useful) continue;
            cursor_ = (idx + 1) % size;
            issued = true;
        }
        if (!issued) {
            stalled_.push_back(static_cast<int>(current_));
            ++current_;
            used_ = 0;
            cursor_ = 0;
            continue;
        }
        ++used_;
        return choice;
    }

    if (all_done(view)) return std::nullopt;
    const int n = view.n();
    for (int off = 1; off <= n; ++off) {
        ProcessId p = (release_cursor_ + off - 1) % n + 1;
        if (!view.can_step(p)) continue;
        if (faulty_pending(view, p) || useful_correct(view, p)) {
            release_cursor_ = p;
            StepChoice c;
            c.process = p;
            c.deliver_all = true;
            return c;
        }
    }
    return std::nullopt;
}

std::optional<StepChoice> LockstepScheduler::next(const SystemView& view) {
    if (all_done(view)) return std::nullopt;
    const int n = view.n();
    for (int off = 1; off <= n; ++off) {
        ProcessId p = (cursor_ + off - 1) % n + 1;
        if (!view.can_step(p)) continue;
        if (p <= cursor_) ++cycles_;  // wrapped around: a cycle completed
        cursor_ = p;
        StepChoice c;
        c.process = p;
        for (const Message& m : view.buffer(p))
            if (!filter_ || filter_(m, p, view)) c.deliver.push_back(m.id);
        return c;
    }
    return std::nullopt;
}

std::optional<StepChoice> ScriptedScheduler::next(const SystemView&) {
    if (pos_ >= script_.size()) return std::nullopt;
    return script_[pos_++];
}

std::optional<StepChoice> FairCompletionScheduler::next(const SystemView& view) {
    if (!draining_) {
        std::optional<StepChoice> c = inner_->next(view);
        if (c) return c;
        draining_ = true;
    }
    return drain_.next(view);
}

}  // namespace ksa
