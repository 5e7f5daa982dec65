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
#include "exec/steal_deque.hpp"

namespace ksa::exec {

int hardware_threads() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

namespace {

/// splitmix64 mix step (same finalizer family as sim/digest.hpp and
/// chaos/resilience.cpp): drives victim selection from a per-worker
/// seed instead of wall clocks or std::random_device, so the lint
/// raw-random rule keeps holding.  Steal order is timing-dependent
/// anyway; the mixer only decorrelates the victim sweep across
/// workers so they do not all hammer deque 0.
std::uint64_t mix64(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

}  // namespace

struct TaskScheduler::Impl {
    // Scheduler configuration --------------------------------------------
    int slots = 1;                     ///< effective parallelism (>= 1)
    int requested = 1;                 ///< pre-clamp logical parallelism
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
    std::unique_ptr<StealDeque[]> deques;          ///< one per worker slot

    // Cross-thread region progress: how many chunks have not finished
    // executing.  Decremented exactly once per chunk (by whoever ran
    // it); drain() terminates on 0 because chunks are only ever
    // created during region setup -- an empty sweep with chunks still
    // outstanding means they are in flight elsewhere, not lost.
    std::atomic<std::size_t> chunks_left{0};
    std::atomic<std::uint64_t> steals{0};  ///< cumulative, observability only

    /// Chunk c covers [c*grain, min(count, (c+1)*grain)): pure
    /// arithmetic on (count, grain), independent of timing and of who
    /// runs it, so the work partition is deterministic.
    // ksa: wait_free -- runs outside any lock; it must never block, or
    // stealing convoys behind it.
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
        chunks_left.fetch_sub(1, std::memory_order_acq_rel);
    }

    /// Worker slot w's share of the region: drain the own deque LIFO,
    /// then steal the oldest chunk of pseudo-random victims until every
    /// chunk of the region has finished executing.
    void drain(int w) {
        std::uint64_t rng =
            0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(w + 1);
        std::size_t c = 0;
        while (true) {
            if (deques[w].pop_bottom(c)) {
                run_chunk(c, w);
                continue;
            }
            if (chunks_left.load(std::memory_order_acquire) == 0) return;
            bool stole = false;
            for (int attempt = 0; attempt < slots && !stole; ++attempt) {
                const int victim = static_cast<int>(
                    mix64(rng) % static_cast<std::uint64_t>(slots));
                if (victim == w || deques[victim].looks_empty()) continue;
                if (deques[victim].steal_top(c)) {
                    steals.fetch_add(1, std::memory_order_relaxed);
                    run_chunk(c, w);
                    stole = true;
                }
            }
            if (!stole) {
                // Nothing visibly stealable but chunks still
                // outstanding: they are in flight (or a CAS was lost
                // to a peer).  Yield and re-sweep; no new chunks can
                // appear, so this loop is bounded by region progress.
                if (chunks_left.load(std::memory_order_acquire) == 0) return;
                std::this_thread::yield();
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
    const int requested = threads < 1 ? 1 : threads;
    int slots = requested;
    if (!oversubscribe && slots > hardware_threads())
        slots = hardware_threads();
    impl_->requested = requested;
    impl_->slots = slots;
    impl_->deques = std::make_unique<StealDeque[]>(
        static_cast<std::size_t>(slots));
    // Worker w owns deque w; the caller's thread owns deque slots - 1.
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

int TaskScheduler::requested() const { return impl_->requested; }

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
        im.chunks_left.store(n_chunks, std::memory_order_relaxed);
        im.active = im.slots - 1;
        // Deal chunks to deques in index order: worker w gets the
        // contiguous block [n_chunks*w/slots, n_chunks*(w+1)/slots),
        // pushed in reverse so the owner pops it in ascending order
        // (cache-warm, and matching the sequential visit order) while
        // thieves take from the far end of the block.
        const std::size_t s = static_cast<std::size_t>(im.slots);
        for (std::size_t w = 0; w < s; ++w) {
            const std::size_t begin = n_chunks * w / s;
            const std::size_t end = n_chunks * (w + 1) / s;
            im.deques[w].reset(end > begin ? end - begin : 1);
            for (std::size_t c = end; c > begin; --c)
                im.deques[w].push_bottom(c - 1);
        }
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
