// M1 -- micro-benchmarks of the substrate: simulator step throughput
// under each scheduler, run-recording overhead, one chaos trial, SCC
// scaling, failure detector query cost, digest computation, delta
// rematerialization, and heap-allocation counts of the explorer hot
// paths.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "algo/flooding.hpp"
#include "algo/initial_clique.hpp"
#include "algo/paxos_consensus.hpp"
#include "chaos/profile.hpp"
#include "chaos/resilience.hpp"
#include "core/explorer.hpp"
#include "core/ghost_step.hpp"
// The message-digest and canonical-key micro-benchmarks measure the
// reduction layer's own hot paths, so this is a justified importer of
// the private header.
#include "core/reduction.hpp"  // ksa-lint: allow(layering)
#include "exec/task_scheduler.hpp"
#include "fd/sources.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"
#include "sim/schedulers.hpp"
#include "sim/system.hpp"
#include "store/delta_store.hpp"
#include "store/rematerialize.hpp"
#include "store/visited_store.hpp"

// ---------------------------------------------------------------------
// Allocation-counting hook.
//
// This binary replaces the global operator new/delete with a counting
// shim so benchmarks can report allocations-per-unit-of-work, the
// metric the explorer's allocation-lean hot paths (ghost stepping,
// message hashing, scratch reuse) are tuned against.  Wall
// time alone under-reports allocator pressure: a malloc that is cheap
// in a micro-benchmark fragments and contends at exploration scale.
//
// Besides call/byte totals, the shim tracks LIVE and PEAK heap bytes:
// each allocation is prefixed with a 16-byte header stashing its size,
// so the matching delete can subtract it.  Peak tracking is what sizes
// the out-of-core store's memory ceiling (doc/performance.md §6): the
// BM_ExplorerPeakMemory cases below measure the whole-process heap
// high-water mark of a spill-forced exploration and cross-check the
// explorer's own peak_resident_bytes accounting against it.
//
// The counters are atomics so multi-threaded cases stay well-defined;
// the hook lives only in this benchmark binary.  Aligned-new overloads
// are deliberately NOT intercepted: the language pairs them with
// aligned delete, so no un-prefixed pointer can ever reach the
// prefix-stripping deletes below.

namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_peak_bytes{0};

/// Header large enough to preserve max_align_t alignment of the
/// returned pointer.
constexpr std::size_t kAllocHeader =
    alignof(std::max_align_t) > sizeof(std::size_t)
        ? alignof(std::max_align_t)
        : sizeof(std::size_t);

void* counted_alloc(std::size_t size) {
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    const std::uint64_t live =
        g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
    std::uint64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_peak_bytes.compare_exchange_weak(peak, live,
                                               std::memory_order_relaxed)) {
    }
    void* raw = std::malloc(size + kAllocHeader);
    if (!raw) throw std::bad_alloc();
    std::memcpy(raw, &size, sizeof(size));
    return static_cast<char*>(raw) + kAllocHeader;
}

void counted_free(void* p) noexcept {
    if (p == nullptr) return;
    char* raw = static_cast<char*>(p) - kAllocHeader;
    std::size_t size = 0;
    std::memcpy(&size, raw, sizeof(size));
    g_live_bytes.fetch_sub(size, std::memory_order_relaxed);
    std::free(raw);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace {

using namespace ksa;

std::uint64_t alloc_calls_now() {
    return g_alloc_calls.load(std::memory_order_relaxed);
}

void BM_SimulatorRoundRobin(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    algo::FloodingKSet algorithm(n);
    std::size_t steps = 0;
    for (auto _ : state) {
        RoundRobinScheduler rr;
        Run run = execute_run(algorithm, n, distinct_inputs(n), {}, rr);
        steps += run.steps.size();
        benchmark::DoNotOptimize(run);
    }
    state.counters["steps/s"] = benchmark::Counter(
        static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorRoundRobin)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_SimulatorRandom(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    algo::FloodingKSet algorithm(n);
    std::size_t steps = 0;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        RandomScheduler sched(seed++);
        Run run = execute_run(algorithm, n, distinct_inputs(n), {}, sched);
        steps += run.steps.size();
        benchmark::DoNotOptimize(run);
    }
    state.counters["steps/s"] = benchmark::Counter(
        static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorRandom)->Arg(4)->Arg(16);

// One recorded round-robin run of the Section VI protocol to its
// decisions: the recording execute path every chaos trial takes.
// allocs/step counts the allocations of execute_run per recorded step.
void BM_FlpProtocolEndToEnd(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    auto algorithm = algo::make_flp_consensus(n);
    std::uint64_t allocs = 0;
    std::uint64_t steps = 0;
    for (auto _ : state) {
        RoundRobinScheduler rr;
        const std::uint64_t before = alloc_calls_now();
        Run run = execute_run(*algorithm, n, distinct_inputs(n), {}, rr);
        allocs += alloc_calls_now() - before;
        steps += run.steps.size();
        benchmark::DoNotOptimize(run);
    }
    state.counters["allocs/step"] =
        steps > 0 ? static_cast<double>(allocs) / static_cast<double>(steps)
                  : 0.0;
}
BENCHMARK(BM_FlpProtocolEndToEnd)->Arg(5)->Arg(9)->Arg(17)->Arg(25);

// One guarded chaos trial at f = 1, k = 1: what every cell of the
// resilience sweep repeats -- three seeded RNGs, a fault-injected
// recording run whose every step renders a state digest, and one
// classification walk.  Each iteration takes the next trial seed, so
// the time column reads us per trial over a fixed seed sequence.
void BM_ChaosTrial(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const chaos::ChaosProfile profile = chaos::guarded_profile(1);
    std::uint64_t seed = 1;
    std::uint64_t allocs = 0;
    std::uint64_t steps = 0;
    for (auto _ : state) {
        const std::uint64_t before = alloc_calls_now();
        chaos::TrialResult trial = chaos::chaos_trial(n, 1, 1, profile, seed++);
        allocs += alloc_calls_now() - before;
        steps += trial.run.steps.size();
        benchmark::DoNotOptimize(trial);
    }
    state.counters["allocs/step"] =
        steps > 0 ? static_cast<double>(allocs) / static_cast<double>(steps)
                  : 0.0;
}
BENCHMARK(BM_ChaosTrial)->Arg(5)->Arg(7)->ArgName("n")->Unit(
        benchmark::kMicrosecond);

void BM_PaxosEndToEnd(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    algo::PaxosConsensus algorithm;
    FailurePlan plan;
    for (auto _ : state) {
        auto oracle = fd::make_benign_sigma_omega(n, plan, {1});
        RoundRobinScheduler rr;
        Run run = execute_run(algorithm, n, distinct_inputs(n), plan, rr,
                              oracle.get());
        benchmark::DoNotOptimize(run);
    }
}
BENCHMARK(BM_PaxosEndToEnd)->Arg(4)->Arg(8)->Arg(16);

void BM_FdQuery(benchmark::State& state) {
    FailurePlan plan;
    auto oracle =
        fd::make_partition_detector(16, 4, {{1, 2, 3, 4},
                                            {5, 6, 7, 8},
                                            {9, 10, 11, 12},
                                            {13, 14, 15, 16}},
                                    plan, {1, 5, 9, 13}, 100);
    QueryContext ctx;
    ctx.querier = 7;
    ctx.now = 1;
    for (auto _ : state) {
        ctx.now++;
        FdSample s = oracle->query(ctx);
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(BM_FdQuery);

void BM_TarjanScc(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    graph::Digraph g = graph::random_gnp(n, 4.0 / n, 99);
    for (auto _ : state) {
        graph::SccDecomposition dec(g);
        benchmark::DoNotOptimize(dec.num_components());
    }
    state.SetComplexityN(n);
}
BENCHMARK(BM_TarjanScc)->Range(64, 4096)->Complexity(benchmark::oN);

void BM_SourceComponents(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    graph::Digraph g = graph::random_min_indegree(n, 3, 7);
    for (auto _ : state) {
        auto sources = graph::source_components(g);
        benchmark::DoNotOptimize(sources);
    }
}
BENCHMARK(BM_SourceComponents)->Arg(64)->Arg(256)->Arg(1024);

void BM_DigestComputation(benchmark::State& state) {
    auto algorithm = algo::make_flp_consensus(15);
    auto behavior = algorithm->make_behavior(1, 15, 1);
    StepInput input;  // first step: the stage-1 broadcast
    behavior->on_step(input);
    for (auto _ : state) {
        std::string d = behavior->state_digest();
        benchmark::DoNotOptimize(d);
    }
}
BENCHMARK(BM_DigestComputation);

// The state hasher in isolation: what every identity and canonical key
// pays per 64-bit word it absorbs.  One iteration folds kFeeds inputs,
// made at run time, into one running hasher -- the dependent chain a
// key fold is -- and reads the digest.  Words per feed: u64 1, fold of
// a Digest128 2, str of a 2-byte tag 2 (length prefix plus one tail
// word), Payload::fold of an initial-clique stage-2 payload 9.
enum class HasherFeed { kU64, kFold, kTag, kPayload };

void BM_StateHasher(benchmark::State& state, HasherFeed feed) {
    constexpr std::size_t kFeeds = 256;
    std::mt19937_64 rng(5);
    std::vector<std::uint64_t> words;
    std::vector<Digest128> digests;
    std::vector<std::string> tags;
    std::vector<Payload> payloads;
    for (std::size_t i = 0; i < kFeeds; ++i) {
        words.push_back(rng() % 64);
        digests.push_back(Digest128{rng(), rng()});
        tags.push_back({static_cast<char>('A' + rng() % 26),
                        static_cast<char>('0' + rng() % 10)});
        const int id = static_cast<int>(1 + rng() % 5);
        payloads.push_back(make_payload(
            "S2", {id, static_cast<int>(rng() % 5)}, {{1, id}}));
    }
    static constexpr double kWordsPerFeed[] = {1, 2, 2, 9};

    StateHasher h;
    std::uint64_t feeds = 0;
    double ns = 0.0;
    for (auto _ : state) {
        const auto start = std::chrono::steady_clock::now();
        h.reset();
        switch (feed) {
            case HasherFeed::kU64:
                for (const std::uint64_t w : words) h.u64(w);
                break;
            case HasherFeed::kFold:
                for (const Digest128& d : digests) h.fold(d);
                break;
            case HasherFeed::kTag:
                for (const std::string& t : tags) h.str(t);
                break;
            case HasherFeed::kPayload:
                for (const Payload& p : payloads) p.fold(h);
                break;
        }
        benchmark::DoNotOptimize(h.digest());
        ns += std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - start)
                  .count();
        feeds += kFeeds;
    }
    const double absorbed =
        static_cast<double>(feeds) * kWordsPerFeed[static_cast<int>(feed)];
    state.counters["ns/word"] = absorbed > 0 ? ns / absorbed : 0.0;
}
BENCHMARK_CAPTURE(BM_StateHasher, u64, HasherFeed::kU64);
BENCHMARK_CAPTURE(BM_StateHasher, fold, HasherFeed::kFold);
BENCHMARK_CAPTURE(BM_StateHasher, tag, HasherFeed::kTag);
BENCHMARK_CAPTURE(BM_StateHasher, payload, HasherFeed::kPayload);

// Allocations per explored state and per candidate (a child key the
// explorer computed, accepted or a dedup hit), fast vs reduced engine,
// on distinct and on uniform inputs (where the reduced engine's
// symmetry group is all of S_n), at n = 3, 4 and 5.  The ghost stepping
// + scratch-reuse design keeps both a small constant; the reduced
// engine must not regress them even though every candidate key
// additionally runs the absorption quotient (and, for symmetric
// instances, the renamed keys).  Depths keep each case under about 1 s.
// replays/state counts the delta-chain steps rematerialization redid
// (ExploreStats::replay_steps) per explored state: deterministic at 1
// thread, where one rematerializer materializes every node in id order.
void BM_ExplorerAllocsPerState(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const bool reduced = state.range(1) != 0;
    const bool uniform = state.range(2) != 0;
    auto algorithm = algo::make_flp_kset(n, 1);
    core::ExploreConfig cfg;
    cfg.n = n;
    cfg.inputs = uniform ? uniform_inputs(n, 7) : distinct_inputs(n);
    cfg.k = 1;
    cfg.max_depth = n == 3 ? 10 : n == 4 ? 8 : 6;
    cfg.max_states = 400000;
    cfg.mode = reduced ? core::ExploreMode::kReduced
                       : core::ExploreMode::kFast;
    std::uint64_t allocs = 0;
    std::uint64_t states = 0;
    std::uint64_t candidates = 0;
    std::uint64_t replays = 0;
    for (auto _ : state) {
        const std::uint64_t before = alloc_calls_now();
        core::ExploreResult r = core::explore_schedules(*algorithm, cfg);
        allocs += alloc_calls_now() - before;
        states += r.states_explored;
        candidates += r.states_explored - 1 + r.dedup_hits;  // root excluded
        replays += r.replay_steps;
        benchmark::DoNotOptimize(r);
    }
    auto per = [](std::uint64_t count, std::uint64_t units) {
        return units > 0 ? static_cast<double>(count) /
                                   static_cast<double>(units)
                         : 0.0;
    };
    state.counters["allocs/state"] = per(allocs, states);
    state.counters["allocs/candidate"] = per(allocs, candidates);
    state.counters["replays/state"] = per(replays, states);
}
BENCHMARK(BM_ExplorerAllocsPerState)
    ->ArgsProduct({{3, 4, 5}, {0, 1}, {0, 1}})
    ->ArgNames({"n", "reduced", "uniform"});

// The symmetry layer in isolation: canonical keys of one mid-run node's
// candidates under the full group S_n of a uniform-input initial-clique
// system (|G| = 6, 24, 120 for n = 3, 4, 5).  One iteration is what the
// reduced explorer pays per expanded node on top of the identity keys:
// NodeLiveness::build and RenamedNodeDigests::build once, then
// min_child_key per candidate.  warm:0 starts every iteration from a
// fresh RenamedNodeDigests, so every local state of the node misses the
// memo and is renamed (the first node an exploration meets); warm:1
// reuses one whose memo already holds them (the common case: one
// symmetric-n5 exploration renames 62 local states for 2,545
// candidates).
// The node comes from a seeded random schedule; the candidates are the
// explorer's (process, prefix_menu) moves, stepped up front and laid
// out by hand as the explorer's lay_out_child lays them out.
// allocs/candidate of the warm case is counted after a warm-up pass and
// must be 0.
void BM_CanonicalKey(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const bool warm = state.range(1) != 0;
    auto algorithm = algo::make_flp_kset(n, 1);
    const std::vector<Value> inputs = uniform_inputs(n, 7);
    const FailurePlan plan;
    const core::SymmetryGroup group =
        core::SymmetryGroup::compute(*algorithm, n, inputs, plan);
    core::AbsorptionContext abs;
    abs.strip_inert = true;
    abs.decided_final = algorithm->decided_is_final();

    System sys(*algorithm, n, inputs, plan);
    sys.set_recording(false);
    RandomScheduler walk(/*seed=*/11);
    for (int i = 0; i < 2 * n; ++i) {
        std::optional<StepChoice> choice = walk.next(sys);
        if (!choice) break;
        sys.apply_choice(*choice);
    }
    // The identity key's caches of the node.
    std::vector<Digest128> behavior_digests;
    std::vector<std::vector<Digest128>> message_digests;
    for (ProcessId p = 1; p <= n; ++p) {
        behavior_digests.push_back(behavior_hash(sys.behavior_of(p)));
        message_digests.emplace_back();
        for (const Message& m : sys.buffer(p))
            message_digests.back().push_back(
                core::message_digest(m.from, *m.payload));
    }

    // A layout borrows its candidate's clone, payloads and arrival
    // digests, whose addresses survive the candidate's moves.
    struct Candidate {
        std::unique_ptr<Behavior> behavior;
        StepOutput out;
        std::vector<Digest128> arrivals;
        core::ChildLayout child;
    };
    std::vector<Candidate> candidates;
    StepInput input;
    for (ProcessId p = 1; p <= n; ++p) {
        if (abs.decided_final && sys.decision_of(p)) continue;  // absorbed
        for (const std::size_t delivered : core::prefix_menu(sys, p)) {
            Candidate c;
            sys.deliver_prefix(p, delivered, input);
            c.behavior = sys.clone_behavior(p);
            c.out = c.behavior->on_step(input);
            c.arrivals.reserve(c.out.sends.size());
            core::ChildLayout& child = c.child;
            child.stepper = p;
            child.stepped = c.behavior.get();
            for (ProcessId q = 1; q <= n; ++q) {
                const bool stepping = q == p;
                std::optional<Value> d = sys.decision_of(q);
                if (stepping && c.out.decision) d = c.out.decision;
                auto& proc = child.processes.emplace_back();
                proc.begin = proc.end =
                    static_cast<std::uint32_t>(child.runs.size());
                proc.collapsed = abs.decided_final && d.has_value();
                if (proc.collapsed) {
                    proc.head[0] = 2;
                    proc.head[1] = static_cast<std::uint64_t>(*d);
                    proc.head_words = 2;
                    continue;
                }
                proc.head[proc.head_words++] = sys.crashed(q) ? 1 : 0;
                proc.head[proc.head_words++] = d ? 1 : 0;
                if (d)
                    proc.head[proc.head_words++] =
                        static_cast<std::uint64_t>(*d);
                proc.stepped = stepping || sys.steps_of(q) > 0;
                proc.behavior = stepping ? behavior_hash(*c.behavior)
                                         : behavior_digests[q - 1];
                const Behavior& receiver =
                    stepping ? *c.behavior : sys.behavior_of(q);
                // One run per live message.
                const auto& buf = sys.buffer(q);
                for (std::size_t i = stepping ? delivered : 0; i < buf.size();
                     ++i)
                    if (!core::dead_message(buf[i].from, *buf[i].payload,
                                            receiver, abs))
                        child.runs.push_back({&message_digests[q - 1][i], 1,
                                              static_cast<std::uint32_t>(i),
                                              nullptr});
                for (const auto& [dest, payload] : c.out.sends) {
                    if (dest != q ||
                        core::dead_message(p, *payload, receiver, abs))
                        continue;
                    c.arrivals.push_back(core::message_digest(p, *payload));
                    child.runs.push_back({&c.arrivals.back(), 1,
                                          core::ChildLayout::kArriving,
                                          &payload});
                }
                proc.end = static_cast<std::uint32_t>(child.runs.size());
                proc.head[proc.head_words++] = proc.end - proc.begin;
            }
            candidates.push_back(std::move(c));
        }
    }

    // Every renamed key competes: the identity key is the maximum.
    const Digest128 identity{~std::uint64_t{0}, ~std::uint64_t{0}};
    core::NodeLiveness live;
    std::optional<core::RenamedNodeDigests> memo;
    auto key_node = [&] {
        if (!warm || !memo) memo.emplace(n, *algorithm, group, abs);
        live.build(sys, n, abs);
        memo->build(sys, live, behavior_digests, message_digests);
        for (const Candidate& c : candidates)
            benchmark::DoNotOptimize(memo->min_child_key(c.child, identity));
    };
    key_node();  // warm-up: grows every scratch buffer once

    std::uint64_t allocs = 0;
    std::uint64_t keyed = 0;
    double ns = 0.0;
    for (auto _ : state) {
        const std::uint64_t before = alloc_calls_now();
        const auto start = std::chrono::steady_clock::now();
        key_node();
        ns += std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - start)
                  .count();
        allocs += alloc_calls_now() - before;
        keyed += candidates.size();
    }
    const double per = keyed > 0 ? 1.0 / static_cast<double>(keyed) : 0.0;
    state.counters["group"] = static_cast<double>(group.size());
    state.counters["candidates"] = static_cast<double>(candidates.size());
    state.counters["memo_entries"] = static_cast<double>(memo->memo_entries());
    state.counters["ns/candidate"] = ns * per;
    state.counters["allocs/candidate"] = static_cast<double>(allocs) * per;
}
BENCHMARK(BM_CanonicalKey)
    ->ArgsProduct({{3, 4, 5}, {0, 1}})
    ->ArgNames({"n", "warm"});

// The ghost step in isolation (core/ghost_step.hpp): every candidate of
// one seeded mid-run node of kFast's n = 4 instance (initial clique,
// distinct inputs), ghost-stepped as the explorer does, with the
// transition memo on.  warm:0 starts every pass from a fresh
// GhostStepper, so each candidate misses the memo, is stepped on a
// behavior clone, digested and recorded (the first time a worker meets
// a transition); warm:1 reuses one whose memo already holds them (the
// common case: 96% of fast-n4's candidates at one thread).
// allocs/candidate of the warm case is counted after a warm-up pass and
// must be 0.
void BM_GhostStep(benchmark::State& state) {
    const bool warm = state.range(0) != 0;
    const int n = 4;
    auto algorithm = algo::make_flp_kset(n, 1);
    System sys(*algorithm, n, distinct_inputs(n), FailurePlan{});
    sys.set_recording(false);
    RandomScheduler walk(/*seed=*/11);
    for (int i = 0; i < 2 * n; ++i) {
        std::optional<StepChoice> choice = walk.next(sys);
        if (!choice) break;
        sys.apply_choice(*choice);
    }
    // The node's trail caches: behavior marks (iff stepped) and
    // buffered-message digests.
    std::vector<store::BehaviorMark> marks;
    std::vector<std::vector<Digest128>> message_digests;
    for (ProcessId p = 1; p <= n; ++p) {
        store::BehaviorMark m;
        m.stepped = sys.steps_of(p) > 0;
        if (m.stepped) m.hash = behavior_hash(sys.behavior_of(p));
        marks.push_back(m);
        message_digests.emplace_back();
        for (const Message& msg : sys.buffer(p))
            message_digests.back().push_back(
                core::message_digest(msg.from, *msg.payload));
    }
    // The explorer's moves: every process's prefix_menu.
    std::vector<std::pair<ProcessId, std::size_t>> moves;
    for (ProcessId p = 1; p <= n; ++p)
        for (const std::size_t delivered : core::prefix_menu(sys, p))
            moves.emplace_back(p, delivered);

    std::optional<core::GhostStepper> stepper;
    core::GhostStep g;
    auto step_node = [&] {
        if (!warm || !stepper) stepper.emplace(&core::message_digest, true);
        for (const auto& [p, delivered] : moves) {
            stepper->ghost_step(sys, p, delivered, marks[p - 1],
                                message_digests[p - 1], g);
            benchmark::DoNotOptimize(g.bhash);
        }
    };
    step_node();  // warm-up: fills the memo and grows every scratch buffer

    std::uint64_t allocs = 0;
    std::uint64_t stepped = 0;
    double ns = 0.0;
    for (auto _ : state) {
        const std::uint64_t before = alloc_calls_now();
        const auto start = std::chrono::steady_clock::now();
        step_node();
        ns += std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - start)
                  .count();
        allocs += alloc_calls_now() - before;
        stepped += moves.size();
    }
    const double per = stepped > 0 ? 1.0 / static_cast<double>(stepped) : 0.0;
    state.counters["candidates"] = static_cast<double>(moves.size());
    state.counters["memo_transitions"] =
        static_cast<double>(stepper->memo()->transitions_held());
    state.counters["ns/candidate"] = ns * per;
    state.counters["allocs/candidate"] = static_cast<double>(allocs) * per;
}
BENCHMARK(BM_GhostStep)->Arg(0)->Arg(1)->ArgName("warm");

// The store path's rematerialization layer in isolation.  A seeded BFS
// tree of the initial-clique protocol (n = 4, distinct inputs, every
// node keeping kFanout of its explorer moves) is built in a DeltaStore;
// each measured materialize() moves a worker's trail from one leaf to
// another whose deepest common ancestor sits `hops` levels up, so it
// undoes `hops` steps and redoes `hops` steps: hops = 1 is a sibling
// (the common case of BFS id order), 2 a cousin, kDepth a cold replay
// from the root (a layer boundary).  Only the second materialize of
// each leaf pair is timed and counted.
constexpr int kRematDepth = 6;

void BM_Rematerialize(benchmark::State& state) {
    const int hops = static_cast<int>(state.range(0));
    constexpr int kN = 4;
    constexpr std::size_t kFanout = 3;
    auto algorithm = algo::make_flp_kset(kN, 1);
    const std::vector<Value> inputs = distinct_inputs(kN);
    const FailurePlan plan;
    store::StoreOptions opt;
    store::DeltaStore deltas(opt);
    store::Rematerializer remat(*algorithm, kN, inputs, plan, deltas,
                                &core::message_digest);

    // The tree: the root, then kFanout seeded picks among each node's
    // (process, delivered-prefix) moves, layer by layer.
    std::vector<store::DeltaRecord> records = {store::DeltaRecord{}};
    deltas.append(records[0]);
    std::mt19937_64 rng(/*seed=*/23);
    std::uint64_t layer_begin = 0;
    for (int d = 0; d < kRematDepth; ++d) {
        const std::uint64_t layer_end = records.size();
        for (std::uint64_t id = layer_begin; id < layer_end; ++id) {
            const System& sys = *remat.materialize(id).sys;
            std::vector<store::DeltaRecord> moves;
            for (ProcessId p = 1; p <= kN; ++p)
                for (const std::size_t delivered : core::prefix_menu(sys, p))
                    moves.push_back({id, static_cast<std::uint32_t>(p),
                                     static_cast<std::uint32_t>(delivered)});
            for (std::size_t c = 0; c < kFanout && !moves.empty(); ++c) {
                const std::size_t pick = rng() % moves.size();
                records.push_back(moves[pick]);
                deltas.append(moves[pick]);
                moves.erase(moves.begin() + static_cast<std::ptrdiff_t>(pick));
            }
        }
        layer_begin = layer_end;
    }

    // Leaf pairs whose deepest common ancestor is `hops` levels up.
    auto ancestor = [&](std::uint64_t id, int up) {
        for (int i = 0; i < up; ++i) id = records[id].parent;
        return id;
    };
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
    for (std::uint64_t a = layer_begin; a < records.size() && pairs.size() < 64;
         ++a) {
        for (std::uint64_t b = a + 1; b < records.size(); ++b) {
            if (ancestor(a, hops) == ancestor(b, hops) &&
                ancestor(a, hops - 1) != ancestor(b, hops - 1)) {
                pairs.emplace_back(a, b);
                break;
            }
        }
    }
    if (pairs.empty()) {
        state.SkipWithError("no leaf pair at this distance");
        return;
    }
    for (const auto& [a, b] : pairs) {  // warm-up: sizes every trail level
        remat.materialize(a);
        remat.materialize(b);
    }

    std::uint64_t allocs = 0;
    std::uint64_t steps = 0;
    std::uint64_t calls = 0;
    double ns = 0.0;
    for (auto _ : state) {
        for (const auto& [a, b] : pairs) {
            remat.materialize(a);
            const std::uint64_t allocs_before = alloc_calls_now();
            const std::uint64_t steps_before = remat.replay_steps();
            const auto start = std::chrono::steady_clock::now();
            benchmark::DoNotOptimize(remat.materialize(b));
            ns += std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - start)
                      .count();
            allocs += alloc_calls_now() - allocs_before;
            steps += remat.replay_steps() - steps_before;
            ++calls;
        }
    }
    state.counters["pairs"] = static_cast<double>(pairs.size());
    state.counters["ns/materialize"] =
        calls > 0 ? ns / static_cast<double>(calls) : 0.0;
    state.counters["allocs/replay-step"] =
        steps > 0 ? static_cast<double>(allocs) / static_cast<double>(steps)
                  : 0.0;
}
BENCHMARK(BM_Rematerialize)
    ->Arg(1)
    ->Arg(2)
    ->Arg(kRematDepth)
    ->ArgName("hops");

// Spilled-record reads through DeltaStore::Reader's block cache.  A
// 2^18-record store (a fanout-4 tree, parent = id / 4) sits behind a
// 64 KiB window, so nearly every record is on disk.  One iteration is a
// fresh reader making kReads reads: in BFS order, each id of a run of
// consecutive ids and then its parent (the rematerializer's walk up a
// delta chain), or at uniformly random spilled ids.  fetches/1k reads
// is how many block fetches (seek + read) a thousand reads cost.
enum class SpillOrder { kBfs, kRandom };

void BM_SpillRead(benchmark::State& state, SpillOrder order) {
    constexpr std::uint64_t kRecords = std::uint64_t{1} << 18;
    constexpr std::size_t kReads = 16384;
    store::StoreOptions opt;
    opt.frontier_ram_bytes = 64 << 10;
    store::DeltaStore deltas(opt);
    for (std::uint64_t i = 0; i < kRecords; ++i)
        deltas.append({i / 4, static_cast<std::uint32_t>(1 + i % 4),
                       static_cast<std::uint32_t>(i % 3)});
    const std::uint64_t spilled = deltas.spilled_records();

    std::vector<std::uint64_t> ids;
    ids.reserve(kReads);
    if (order == SpillOrder::kBfs) {
        for (std::uint64_t id = spilled - kReads / 2; ids.size() < kReads;
             ++id) {
            ids.push_back(id);
            ids.push_back(id / 4);
        }
    } else {
        std::mt19937_64 rng(/*seed=*/29);
        while (ids.size() < kReads) ids.push_back(rng() % spilled);
    }

    std::uint64_t reads = 0;
    std::uint64_t fetches = 0;
    double ns = 0.0;
    for (auto _ : state) {
        const auto start = std::chrono::steady_clock::now();
        store::DeltaStore::Reader reader(deltas);
        for (const std::uint64_t id : ids)
            benchmark::DoNotOptimize(reader.get(id));
        ns += std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - start)
                  .count();
        reads += ids.size();
        fetches += reader.spill_reads();
    }
    const double per = reads > 0 ? 1.0 / static_cast<double>(reads) : 0.0;
    state.counters["ns/read"] = ns * per;
    state.counters["fetches/1k reads"] =
        1000.0 * static_cast<double>(fetches) * per;
}
BENCHMARK_CAPTURE(BM_SpillRead, bfs, SpillOrder::kBfs);
BENCHMARK_CAPTURE(BM_SpillRead, random, SpillOrder::kRandom);

// The visited store's dedup batch with the bloom tier off (Arg 0) and
// at its default 10 bits per key.  A seeded stream of kProbes keys goes
// through insert_batch in kBlock-key blocks (the explorer's block size)
// on a 1-thread scheduler.  kNew of the keys are new, spread evenly;
// each other key repeats a uniformly chosen earlier one.  The mix is
// fast-n4's: 104,320 states accepted among 268,144 probed candidates,
// 38.9% (stutter moves are never probed).  One iteration feeds the
// whole stream to a fresh store.  ns/key is per probed key, resident
// B/key per stored key at the end of the stream.
void BM_InsertBatch(benchmark::State& state) {
    constexpr std::size_t kProbes = 268144;
    constexpr std::size_t kNew = 104320;
    constexpr std::size_t kBlock = 8192;
    std::vector<std::vector<Digest128>> blocks;
    {
        std::mt19937_64 rng(/*seed=*/31);
        std::vector<Digest128> fresh;
        const auto new_before = [&](std::size_t i) {
            return (i * kNew + kProbes - 1) / kProbes;  // ceil
        };
        for (std::size_t i = 0; i < kProbes; ++i) {
            if (i % kBlock == 0) blocks.emplace_back();
            // Key i is new iff ceil(i * kNew / kProbes) steps up at i
            // (at i = 0 among others), kNew times in all.
            if (new_before(i + 1) != new_before(i)) {
                fresh.push_back({rng(), rng()});
                blocks.back().push_back(fresh.back());
            } else {
                blocks.back().push_back(fresh[rng() % fresh.size()]);
            }
        }
    }
    store::StoreOptions opt;
    opt.filter_bits_per_key = static_cast<int>(state.range(0));
    exec::TaskScheduler sched(1);
    std::vector<std::uint8_t> verdict;
    double ns = 0.0;
    std::uint64_t probes = 0;
    store::VisitedStats last;
    for (auto _ : state) {
        store::ShardedVisitedStore visited(opt);
        const auto start = std::chrono::steady_clock::now();
        for (const std::vector<Digest128>& block : blocks)
            visited.insert_batch(sched, block, verdict);
        ns += std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - start)
                  .count();
        probes += kProbes;
        last = visited.stats();
    }
    state.counters["ns/key"] =
        probes > 0 ? ns / static_cast<double>(probes) : 0.0;
    state.counters["resident B/key"] =
        last.size > 0 ? static_cast<double>(last.resident_bytes) /
                            static_cast<double>(last.size)
                      : 0.0;
    state.counters["new share"] =
        static_cast<double>(last.size) / static_cast<double>(kProbes);
}
BENCHMARK(BM_InsertBatch)->Arg(0)->Arg(10)->ArgName("filter_bits");

// Whole-process heap high-water mark of a spill-forced exploration,
// and the cross-check of the explorer's own accounting: the reported
// peak_resident_bytes (visited tier + delta window) must stay below
// what the heap actually peaked at.  Arg = frontier RAM budget in KB
// (0 = never spill), so the case family shows the spill knob trading
// resident bytes for disk traffic at fixed exploration results.
void BM_ExplorerPeakMemory(benchmark::State& state) {
    auto algorithm = algo::make_flp_kset(3, 1);
    core::ExploreConfig cfg;
    cfg.n = 3;
    cfg.inputs = distinct_inputs(3);
    cfg.k = 1;
    cfg.max_depth = 12;
    cfg.max_states = 400000;
    cfg.mode = core::ExploreMode::kFast;
    cfg.store.frontier_ram_bytes =
        static_cast<std::size_t>(state.range(0)) * 1024;
    double peak_mb = 0.0;
    double reported_mb = 0.0;
    std::uint64_t spilled = 0;
    for (auto _ : state) {
        // Rebase the high-water mark to the current live level so the
        // measurement covers this exploration alone.
        g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
        const std::uint64_t before =
            g_peak_bytes.load(std::memory_order_relaxed);
        core::ExploreResult r = core::explore_schedules(*algorithm, cfg);
        const std::uint64_t after =
            g_peak_bytes.load(std::memory_order_relaxed);
        peak_mb = static_cast<double>(after - before) / (1024.0 * 1024.0);
        reported_mb =
            static_cast<double>(r.peak_resident_bytes) / (1024.0 * 1024.0);
        spilled = r.spilled_records;
        benchmark::DoNotOptimize(r);
    }
    state.counters["heap_peak_mb"] = peak_mb;
    state.counters["store_peak_mb"] = reported_mb;
    state.counters["spilled"] = static_cast<double>(spilled);
}
BENCHMARK(BM_ExplorerPeakMemory)
    ->Arg(0)
    ->Arg(64)
    ->Arg(4)
    ->ArgName("frontier_kb");

// The message digest every state key folds must be allocation-free:
// the hasher runs on the stack and Payload::fold walks the payload in
// place.
void BM_MessageDigestAllocs(benchmark::State& state) {
    Payload payload;
    payload.tag = "S2";
    payload.ints = {2, 41};
    payload.lists = {{1, 3}};
    std::uint64_t allocs = 0;
    std::uint64_t calls = 0;
    for (auto _ : state) {
        const std::uint64_t before = alloc_calls_now();
        Digest128 d = core::message_digest(1, payload);
        allocs += alloc_calls_now() - before;
        ++calls;
        benchmark::DoNotOptimize(d);
    }
    state.counters["allocs/hash"] =
        calls > 0 ? static_cast<double>(allocs) / static_cast<double>(calls)
                  : 0.0;
}
BENCHMARK(BM_MessageDigestAllocs);

void BM_IndistinguishabilityCheck(benchmark::State& state) {
    algo::FloodingKSet algorithm(8);
    RoundRobinScheduler rr1, rr2;
    Run a = execute_run(algorithm, 8, distinct_inputs(8), {}, rr1);
    Run b = execute_run(algorithm, 8, distinct_inputs(8), {}, rr2);
    std::vector<ProcessId> all;
    for (ProcessId p = 1; p <= 8; ++p) all.push_back(p);
    for (auto _ : state) {
        bool same = indistinguishable_for_all(a, b, all);
        benchmark::DoNotOptimize(same);
    }
}
BENCHMARK(BM_IndistinguishabilityCheck);

}  // namespace

BENCHMARK_MAIN();
