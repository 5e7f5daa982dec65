#include "exec/task_scheduler.hpp"

// src/exec/ is the one layer allowed to use threading primitives; the
// ksa_analyze rule `threading-outside-exec` enforces the boundary.
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "check/contract.hpp"

namespace ksa::exec {

int hardware_threads() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

struct TaskScheduler::Impl {
    /// The next unclaimed chunk of one slot's block, alone on its
    /// cache line so claims in different blocks do not contend.
    struct alignas(64) Cursor {
        std::atomic<std::size_t> next{0};
    };

    // Scheduler configuration --------------------------------------------
    int slots = 1;                     ///< effective parallelism (>= 1)
    std::vector<std::thread> workers;  ///< slots - 1 OS threads

    // Region handoff state, guarded by `mu` ------------------------------
    std::mutex mu;
    std::condition_variable work_cv;   ///< workers wait for a new region
    std::condition_variable done_cv;   ///< the caller waits for the workers
    std::uint64_t generation = 0;  ///< bumped per region // ksa: guarded_by(mu)
    bool shutting_down = false;    // ksa: guarded_by(mu)
    int active = 0;  ///< workers still inside drain() // ksa: guarded_by(mu)

    // Region work state, published by the generation handshake: written
    // under `mu` BEFORE the generation bump, read by workers only AFTER
    // they observed the new generation under `mu`, never written while
    // a region is in flight (the caller waits for active == 0 before
    // touching it again) -- so drain/run_chunk may read it lock-free.
    std::size_t count = 0;   ///< items of the current region
    std::size_t grain = 1;   ///< items per chunk
    std::size_t n_chunks = 0;
    const std::function<void(std::size_t, int)>* fn = nullptr;
    std::vector<std::exception_ptr> chunk_errors;  ///< slot per chunk
    std::unique_ptr<Cursor[]> cursors;             ///< one per worker slot

    std::atomic<std::uint64_t> steals{0};  ///< cumulative, observability only

    /// Slot w's block of chunks is [block_begin(w), block_begin(w + 1)):
    /// contiguous, index-ordered, and empty when n_chunks < slots.
    // ksa: wait_free -- pure arithmetic.
    std::size_t block_begin(std::size_t w) const {
        return n_chunks * w / static_cast<std::size_t>(slots);
    }

    /// Chunk c covers [c*grain, min(count, (c+1)*grain)): pure
    /// arithmetic on (count, grain), independent of timing and of who
    /// runs it, so the work partition is deterministic.
    // ksa: wait_free -- runs outside any lock; it must never block, or
    // the whole region waits on it.
    void run_chunk(std::size_t c, int w) noexcept {
        const std::size_t begin = c * grain;
        std::size_t end = begin + grain;
        if (end > count) end = count;
        try {
            for (std::size_t i = begin; i < end; ++i) (*fn)(i, w);
        } catch (...) {
            // First throw wins inside a chunk (the rest is skipped);
            // the caller re-throws the lowest chunk's slot, which
            // together select the lowest throwing item index overall.
            chunk_errors[c] = std::current_exception();
        }
    }

    /// Worker slot w's share of the region: one pass over the slots,
    /// starting at its own, claiming each block's chunks front to back
    /// until its cursor passes the block's end.  Cursors only grow
    /// within a region, so one pass leaves every chunk claimed; the
    /// caller's wait for active == 0 covers the chunks still running
    /// elsewhere.  A chunk claimed from another slot's block is a steal.
    void drain(int w) {
        const std::size_t s = static_cast<std::size_t>(slots);
        for (std::size_t k = 0; k < s; ++k) {
            const std::size_t v = (static_cast<std::size_t>(w) + k) % s;
            const std::size_t end = block_begin(v + 1);
            std::atomic<std::size_t>& next = cursors[v].next;
            for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
                 c < end; c = next.fetch_add(1, std::memory_order_relaxed)) {
                if (k != 0) steals.fetch_add(1, std::memory_order_relaxed);
                run_chunk(c, w);
            }
        }
    }

    void worker_loop(int w) {
        std::uint64_t seen = 0;
        while (true) {
            {
                std::unique_lock<std::mutex> lock(mu);
                work_cv.wait(lock, [&] {
                    return shutting_down || generation != seen;
                });
                if (shutting_down) return;
                seen = generation;
            }
            drain(w);
            {
                std::lock_guard<std::mutex> lock(mu);
                // The caller may not recycle region state until every
                // worker left drain(), even ones that woke late and
                // found nothing: `active` counts them all out.
                if (--active == 0) done_cv.notify_all();
            }
        }
    }
};

TaskScheduler::TaskScheduler(int threads)
    : TaskScheduler(threads, /*oversubscribe=*/false) {}

TaskScheduler::TaskScheduler(int threads, bool oversubscribe)
    : impl_(std::make_unique<Impl>()) {
    int slots = threads < 1 ? 1 : threads;
    if (!oversubscribe && slots > hardware_threads())
        slots = hardware_threads();
    impl_->slots = slots;
    impl_->cursors = std::make_unique<Impl::Cursor[]>(
        static_cast<std::size_t>(slots));
    // Worker w drains from slot w; the caller's thread is slot slots - 1.
    for (int w = 0; w + 1 < slots; ++w)
        impl_->workers.emplace_back([this, w] { impl_->worker_loop(w); });
}

TaskScheduler::~TaskScheduler() {
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        impl_->shutting_down = true;
    }
    impl_->work_cv.notify_all();
    for (std::thread& t : impl_->workers) t.join();
}

int TaskScheduler::size() const { return impl_->slots; }

std::uint64_t TaskScheduler::steal_count() const {
    return impl_->steals.load(std::memory_order_relaxed);
}

// ksa: guarded_by(mu)
void TaskScheduler::run_chunked(
        std::size_t count, std::size_t grain,
        const std::function<void(std::size_t, int)>& fn) {
    KSA_REQUIRE(fn != nullptr, "TaskScheduler::run_chunked: null function");
    if (count == 0) return;
    Impl& im = *impl_;
    if (grain == 0) grain = auto_grain(count, im.slots);
    const std::size_t n_chunks = (count + grain - 1) / grain;
    if (im.slots == 1 || n_chunks == 1) {
        // Reference path: inline, in index order, first error wins --
        // the behavior every parallel region reproduces byte-for-byte.
        for (std::size_t i = 0; i < count; ++i) fn(i, 0);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(im.mu);
        im.count = count;
        im.grain = grain;
        im.n_chunks = n_chunks;
        im.fn = &fn;
        im.chunk_errors.assign(n_chunks, nullptr);
        im.active = im.slots - 1;
        // Point every cursor at the front of its slot's block: the
        // owner claims it in ascending order (cache-warm, matching the
        // sequential visit order), and so does a peer that runs out.
        for (std::size_t w = 0; w < static_cast<std::size_t>(im.slots); ++w)
            im.cursors[w].next.store(im.block_begin(w),
                                     std::memory_order_relaxed);
        ++im.generation;
    }
    im.work_cv.notify_all();

    // The caller participates as the last worker slot, then waits for
    // every worker to leave the region before recycling its state.
    im.drain(im.slots - 1);
    {
        std::unique_lock<std::mutex> lock(im.mu);
        if (im.active != 0)
            im.done_cv.wait(lock, [&] { return im.active == 0; });
        im.fn = nullptr;
    }

    // Deterministic error reporting: the lowest chunk's exception,
    // which is the lowest throwing item's (chunks are index-ordered
    // and each stores its first throw).
    for (const std::exception_ptr& e : im.chunk_errors)
        if (e) std::rethrow_exception(e);
}

}  // namespace ksa::exec
