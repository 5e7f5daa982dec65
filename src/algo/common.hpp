#pragma once
// Shared helpers for protocol implementations.

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <vector>

#include "sim/behavior.hpp"
#include "sim/text_writer.hpp"
#include "sim/types.hpp"

namespace ksa::algo {

/// Base class for protocol state machines: stores identity, carries the
/// write-once decision flag and provides digest-rendering helpers.
class BehaviorBase : public Behavior {
public:
    BehaviorBase(ProcessId id, int n, Value input)
        : id_(id), n_(n), input_(input) {}

protected:
    ProcessId id() const { return id_; }
    int n() const { return n_; }
    Value input() const { return input_; }
    bool has_decided() const { return decided_; }

    /// Marks the decision in `out`; enforces write-once locally too.
    void decide(StepOutput& out, Value v) {
        require(!decided_, "BehaviorBase::decide: already decided");
        decided_ = true;
        out.decision = v;
    }

    /// Sends `payload` to every process except self, in ascending id
    /// order.  Every send holds a handle to the one payload body.
    void broadcast_others(StepOutput& out, SharedPayload payload) const {
        const ProcessId last = id_ == n_ ? n_ - 1 : n_;
        if (last < 1) return;
        out.sends.reserve(out.sends.size() +
                          static_cast<std::size_t>(n_ - 1));
        for (ProcessId q = 1; q < last; ++q)
            if (q != id_) out.send(q, payload);
        out.send(last, std::move(payload));
    }

    /// Appends the digest fragment `{a,b,...}` of a set of ids/values.
    template <typename Container>
    static void render(TextWriter& out, const Container& xs) {
        out << '{';
        bool first = true;
        for (const auto& x : xs) {
            if (!first) out << ',';
            first = false;
            out << x;
        }
        out << '}';
    }

private:
    ProcessId id_;
    int n_;
    Value input_;
    bool decided_ = false;
};

// -- fold_state_renamed helpers ---------------------------------------
//
// The reduced explorer folds every stepped behavior under every element
// of the symmetry group once per expanded node (up to 120 renamings at
// n = 5), so fold_state_renamed must not allocate: re-sorting renamed
// id sets happens in stack buffers.

/// The new name of process q under `ren`.
inline int renamed_id(const ProcessRenaming& ren, int q) {
    return ren[static_cast<std::size_t>(q) - 1];
}

/// A scratch array of `size` elements: on the stack up to kInline
/// elements (every id set of an n <= kInline system), on the heap
/// beyond.
template <typename T, std::size_t kInline = 16>
class StackBuffer {
public:
    explicit StackBuffer(std::size_t size) : size_(size) {
        if (size > kInline) heap_.resize(size);
    }
    T* begin() { return size_ > kInline ? heap_.data() : inline_.data(); }
    T* end() { return begin() + size_; }
    T& operator[](std::size_t i) { return begin()[i]; }

private:
    std::size_t size_;
    std::array<T, kInline> inline_{};
    std::vector<T> heap_;
};

}  // namespace ksa::algo
