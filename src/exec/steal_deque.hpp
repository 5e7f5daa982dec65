#pragma once
// Chase-Lev-style work-stealing deque (exec-layer internal).
//
// One deque per scheduler worker, holding chunk ids of the current
// parallel region.  The OWNER pushes and pops at the bottom (LIFO, so
// it drains its own share in cache-warm order); THIEVES steal from the
// top (FIFO, so a steal takes the chunk the owner would reach last --
// the two ends only collide on the final element, where a CAS on
// `top_` arbitrates).  Capacity is fixed per region: every chunk of a
// region is pushed before the workers are released, so the buffer
// never grows mid-flight and no reclamation protocol is needed.
//
// Determinism note (task_scheduler.hpp states the layer's contract): the
// deque only decides WHICH WORKER runs a chunk and WHEN -- never what
// the chunk computes or where its results go.  Chunk ids map to index
// ranges by pure arithmetic on (count, grain), and every index writes
// only its own output slot, so scheduling order is invisible in the
// output.  Stealing order is the one intentionally nondeterministic
// quantity in src/exec/ and is surfaced only as an observability
// counter (TaskScheduler::steal_count).
//
// Memory-order discipline: every cross-thread access goes through a
// std::atomic with acquire/release (seq_cst where the textbook
// algorithm needs the total order) -- no standalone fences, which
// keeps the implementation inside ThreadSanitizer's happens-before
// model (the tsan preset runs the exec suite over it).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "check/contract.hpp"

namespace ksa::exec {

/// Fixed-capacity work-stealing deque of chunk ids.  Single owner
/// (push_bottom/pop_bottom), any number of concurrent thieves
/// (steal_top).  reset() may only be called while no worker touches
/// the deque (the scheduler calls it during region setup, before the
/// generation handshake releases the workers).
class StealDeque {
public:
    /// Re-initializes for a region of up to `capacity` chunks and
    /// empties the deque.  NOT safe concurrently with push/pop/steal;
    /// the caller must be the only thread touching the deque.
    // ksa: thread_safe -- region setup only, sequenced before the
    // worker handshake by the scheduler's mutex.
    void reset(std::size_t capacity) {
        KSA_REQUIRE(capacity > 0, "StealDeque::reset: capacity must be > 0");
        if (slots_.size() < capacity) {
            // vector<atomic> cannot resize through assignment; rebuild.
            std::vector<std::atomic<std::size_t>> fresh(capacity);
            slots_.swap(fresh);
        }
        top_.store(0, std::memory_order_relaxed);
        bottom_.store(0, std::memory_order_relaxed);
    }

    /// Owner only: appends a chunk id at the bottom.  The scheduler
    /// pre-fills every deque during region setup; capacity was sized
    /// for the whole region, so the buffer cannot wrap into live data.
    // ksa: wait_free -- one slot store + one release store.
    void push_bottom(std::size_t v) {
        const std::int64_t b = bottom_.load(std::memory_order_relaxed);
        slots_[index(b)].store(v, std::memory_order_relaxed);
        // Publish the slot before the new bottom becomes visible to
        // thieves (steal_top acquires bottom_).
        bottom_.store(b + 1, std::memory_order_release);
    }

    /// Owner only: takes the most recently pushed chunk.  Returns
    /// false when the deque is empty (or the last element was lost to
    /// a concurrent thief -- the CAS on top_ decides).
    // ksa: wait_free -- bounded sequence of atomic ops, no loop.
    bool pop_bottom(std::size_t& out) {
        const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
        // Reserve the bottom slot BEFORE reading top: a thief that
        // observes the old bottom may still take this element, which
        // the t == b CAS below arbitrates.
        bottom_.store(b, std::memory_order_seq_cst);
        std::int64_t t = top_.load(std::memory_order_seq_cst);
        if (t > b) {
            // Empty: undo the reservation.
            bottom_.store(b + 1, std::memory_order_relaxed);
            return false;
        }
        out = slots_[index(b)].load(std::memory_order_relaxed);
        if (t == b) {
            // Last element: race the thieves for it.
            const bool won = top_.compare_exchange_strong(
                    t, t + 1, std::memory_order_seq_cst,
                    std::memory_order_seq_cst);
            bottom_.store(b + 1, std::memory_order_relaxed);
            return won;
        }
        return true;
    }

    /// Thief: takes the oldest chunk.  Returns false when empty or
    /// when it lost the top CAS to another thief / the owner's
    /// last-element pop (the caller moves on to the next victim).
    // ksa: wait_free -- one CAS attempt, no retry loop.
    bool steal_top(std::size_t& out) {
        std::int64_t t = top_.load(std::memory_order_seq_cst);
        const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
        if (t >= b) return false;
        out = slots_[index(t)].load(std::memory_order_relaxed);
        return top_.compare_exchange_strong(t, t + 1,
                                            std::memory_order_seq_cst,
                                            std::memory_order_seq_cst);
    }

    /// Racy size hint for victim selection; never used for
    /// correctness decisions.
    // ksa: wait_free -- two relaxed loads.
    bool looks_empty() const {
        return top_.load(std::memory_order_relaxed) >=
               bottom_.load(std::memory_order_relaxed);
    }

private:
    // ksa: wait_free -- pure arithmetic, i never negative in practice
    // (top_/bottom_ start at 0 and only grow within a region).
    std::size_t index(std::int64_t i) const {
        return static_cast<std::size_t>(i) % slots_.size();
    }

    std::vector<std::atomic<std::size_t>> slots_;
    std::atomic<std::int64_t> top_{0};
    std::atomic<std::int64_t> bottom_{0};
};

}  // namespace ksa::exec
