#include "probes.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "chaos/profile.hpp"
#include "chaos/resilience.hpp"
#include "exec/task_scheduler.hpp"
#include "sim/digest.hpp"
#include "sim/schedulers.hpp"
#include "sim/system.hpp"
#include "store/delta_store.hpp"
#include "store/rematerialize.hpp"
#include "store/visited_store.hpp"

namespace ksa::perfbench {

namespace {

/// Results fold into this so the compiler cannot drop probed calls.
std::uint64_t g_sink = 0;

constexpr int kBatches = 7;
constexpr int kSampledStates = 256;

/// Times `batches` runs of `batch` (each covering `calls` calls) after
/// an untimed `prep`; one span per batch.
template <typename Prep, typename Batch>
PerCall timed_batches(Tracer* tracer, const char* name, std::int64_t calls,
                      Prep&& prep, Batch&& batch, int batches = kBatches) {
    std::vector<std::int64_t> ns;
    for (int b = 0; b < batches; ++b) {
        prep();
        const std::int64_t t0 = now_ns();
        {
            ScopedSpan span(tracer, name, calls);
            batch();
        }
        ns.push_back(now_ns() - t0);
    }
    return {median(std::move(ns)), std::max<std::int64_t>(calls, 1)};
}

/// (process, delivered-prefix length): the explorer's moves -- deliver
/// nothing, the oldest message or the whole buffer -- skipping steps of
/// a decided process with an empty buffer, which change nothing.
using Move = std::pair<ProcessId, std::size_t>;

std::vector<Move> legal_moves(const System& sys) {
    std::vector<Move> moves;
    for (ProcessId p = 1; p <= sys.n(); ++p) {
        if (!sys.can_step(p)) continue;
        const std::size_t buffered = sys.buffer(p).size();
        if (sys.decision_of(p) && buffered == 0) continue;
        moves.emplace_back(p, 0);
        if (buffered >= 1) moves.emplace_back(p, 1);
        if (buffered > 1) moves.emplace_back(p, buffered);
    }
    return moves;
}

std::unique_ptr<System> root_of(const Subject& s) {
    auto sys = std::make_unique<System>(*s.algorithm, s.n, s.inputs, FailurePlan{});
    sys->set_recording(false);
    return sys;
}

/// States at the end of seeded random schedules of 1..depth steps.
std::vector<std::unique_ptr<System>> sample_states(const Subject& s,
                                                   std::mt19937_64& rng) {
    std::vector<std::unique_ptr<System>> states;
    for (int i = 0; i < kSampledStates; ++i) {
        auto sys = root_of(s);
        const auto steps = 1 + rng() % static_cast<std::uint64_t>(s.depth);
        for (std::uint64_t step = 0; step < steps; ++step) {
            const std::vector<Move> moves = legal_moves(*sys);
            if (moves.empty()) break;
            const Move& m = moves[rng() % moves.size()];
            sys->apply_choice(sys->prefix_choice(m.first, m.second));
        }
        states.push_back(std::move(sys));
    }
    return states;
}

/// The benchmark's own message digest for the Rematerializer: sender
/// plus payload, the fields a state key folds per buffered message.
Digest128 message_digest(ProcessId from, const Payload& payload) {
    StateHasher h;
    h.i64(from);
    payload.fold(h);
    return h.digest();
}

}  // namespace

SimCosts probe_sim(ProbeEnv& env) {
    SimCosts c;
    const auto states = sample_states(env.subject, env.rng);

    std::vector<std::pair<const System*, Move>> candidates;
    std::vector<std::pair<std::size_t, Move>> one_move;  // state index, move
    for (std::size_t i = 0; i < states.size(); ++i) {
        const std::vector<Move> moves = legal_moves(*states[i]);
        for (const Move& m : moves) candidates.emplace_back(states[i].get(), m);
        if (!moves.empty()) one_move.emplace_back(i, moves[env.rng() % moves.size()]);
    }

    StepInput scratch;
    c.ghost_step = timed_batches(
            env.tracer, "sim.ghost_step", static_cast<std::int64_t>(candidates.size()),
            [] {},
            [&] {
                for (const auto& [sys, m] : candidates) {
                    sys->deliver_prefix(m.first, m.second, scratch);
                    const auto behavior = sys->clone_behavior(m.first);
                    g_sink += behavior->on_step(scratch).sends.size();
                }
            });

    std::vector<std::unique_ptr<System>> forks;
    c.fork = timed_batches(
            env.tracer, "sim.fork", static_cast<std::int64_t>(states.size()),
            [&] { forks.clear(); },
            [&] {
                for (const auto& s : states) forks.push_back(s->fork(false));
            });

    c.apply_choice = timed_batches(
            env.tracer, "sim.apply_choice", static_cast<std::int64_t>(one_move.size()),
            [&] {
                forks.clear();
                for (const auto& [i, m] : one_move) forks.push_back(states[i]->fork(false));
            },
            [&] {
                for (std::size_t j = 0; j < one_move.size(); ++j) {
                    const Move& m = one_move[j].second;
                    forks[j]->apply_choice(forks[j]->prefix_choice(m.first, m.second));
                }
            });

    // Recording execution to decision under a seeded random schedule:
    // the path every chaos trial takes.
    constexpr int kRuns = 32;
    std::vector<std::unique_ptr<System>> systems;
    std::vector<RandomScheduler> schedulers;
    c.execute = timed_batches(
            env.tracer, "sim.execute", kRuns,
            [&] {
                systems.clear();
                schedulers.clear();
                for (int i = 0; i < kRuns; ++i) {
                    const Subject& s = env.subject;
                    systems.push_back(std::make_unique<System>(*s.algorithm, s.n,
                                                               s.inputs, FailurePlan{}));
                    schedulers.emplace_back(env.rng());
                }
            },
            [&] {
                for (int i = 0; i < kRuns; ++i)
                    g_sink += systems[i]->execute(schedulers[i]).steps.size();
            });
    return c;
}

DigestCosts probe_digest(ProbeEnv& env) {
    DigestCosts c;
    constexpr std::size_t kBlock = 4096;
    constexpr int kRounds = 64;
    std::vector<unsigned char> block(kBlock);
    for (auto& b : block) b = static_cast<unsigned char>(env.rng());
    c.per_byte = timed_batches(
            env.tracer, "digest.StateHasher::bytes", kBlock * kRounds, [] {},
            [&] {
                StateHasher h;
                for (int r = 0; r < kRounds; ++r) h.bytes(block.data(), block.size());
                g_sink ^= h.digest().lo;
            });

    // The fields a hashed state key feeds per state (core/explorer.cpp's
    // hash_state layout): per process crash flag, decision flag and
    // value, buffer length and one 128-bit digest per buffered message,
    // then a stepped flag and one behavior digest per stepped process.
    const auto states = sample_states(env.subject, env.rng);
    std::vector<const Behavior*> behaviors;
    std::int64_t bytes = 0;
    for (const auto& s : states) {
        for (ProcessId p = 1; p <= s->n(); ++p) {
            bytes += 8 + 8 + (s->decision_of(p) ? 8 : 0) + 8 +
                     16 * static_cast<std::int64_t>(s->buffer(p).size()) + 8;
            if (s->steps_of(p) > 0) {
                bytes += 16;
                behaviors.push_back(&s->behavior_of(p));
            }
        }
    }
    c.key_bytes = {bytes, static_cast<std::int64_t>(states.size())};
    c.fold_state = timed_batches(
            env.tracer, "digest.Behavior::fold_state",
            static_cast<std::int64_t>(behaviors.size()), [] {},
            [&] {
                for (const Behavior* b : behaviors) {
                    StateHasher h;
                    b->fold_state(h);
                    g_sink ^= h.digest().lo;
                }
            });
    return c;
}

StoreCosts probe_store(ProbeEnv& env, std::int64_t keys, Ratio accept) {
    StoreCosts c;
    // The candidate key stream: a share `accept` of fresh keys, the rest
    // repeats of earlier keys (dedup hits), fed in explorer-sized blocks
    // on a 1-thread scheduler (per-call costs are single-thread costs).
    keys = std::clamp<std::int64_t>(keys, 1024, std::int64_t(1) << 21);
    constexpr std::size_t kBlockKeys = 32768;
    std::vector<std::vector<Digest128>> blocks;
    std::vector<Digest128> fresh;
    for (std::int64_t i = 0; i < keys; ++i) {
        if (blocks.empty() || blocks.back().size() == kBlockKeys) blocks.emplace_back();
        const bool is_new = fresh.empty() ||
                            static_cast<std::int64_t>(env.rng() % 1000000) * accept.den <
                                    accept.num * 1000000;
        if (is_new) fresh.push_back({env.rng() | 1, env.rng()});
        blocks.back().push_back(is_new ? fresh.back() : fresh[env.rng() % fresh.size()]);
    }
    exec::TaskScheduler one(1);
    std::unique_ptr<store::ShardedVisitedStore> visited;
    std::vector<std::uint8_t> verdict;
    c.insert = timed_batches(
            env.tracer, "store.insert_stream", keys,
            [&] { visited = std::make_unique<store::ShardedVisitedStore>(store::StoreOptions{}); },
            [&] {
                for (const auto& block : blocks) {
                    ScopedSpan span(env.tracer, "store.insert_batch",
                                    static_cast<std::int64_t>(block.size()));
                    visited->insert_batch(one, block, verdict);
                }
            },
            5);
    g_sink += visited->size();

    // Spill: appends through a 64 KiB RAM window, then random reads of
    // spilled ids.
    store::StoreOptions spill;
    spill.frontier_ram_bytes = 64 << 10;
    spill.spill_dir = env.spill_dir;
    constexpr std::uint32_t kAppends = 1u << 18;
    std::unique_ptr<store::DeltaStore> deltas;
    c.spill_append = timed_batches(
            env.tracer, "store.DeltaStore::append", kAppends,
            [&] {
                deltas.reset();
                deltas = std::make_unique<store::DeltaStore>(spill);
            },
            [&] {
                for (std::uint32_t i = 0; i < kAppends; ++i)
                    deltas->append({i / 4, 1 + i % 4, i % 3});
            },
            5);
    store::DeltaStore::Reader reader(*deltas);
    const std::uint64_t spilled = std::max<std::uint64_t>(deltas->spilled_records(), 1);
    constexpr int kReads = 16384;
    std::vector<std::uint64_t> ids(kReads);
    c.spill_read = timed_batches(
            env.tracer, "store.DeltaStore::Reader::get", kReads,
            [&] {
                for (auto& id : ids) id = env.rng() % spilled;
            },
            [&] {
                for (std::uint64_t id : ids) g_sink += reader.get(id).stepper;
            },
            5);

    // Materialize: a legal seeded tree in BFS id order (each node keeps
    // up to three random moves), replayed by a fresh Rematerializer --
    // the id order and spine locality of the explorer's expansion.
    const Subject& s = env.subject;
    store::StoreOptions in_ram;
    in_ram.frontier_ram_bytes = 0;
    store::DeltaStore tree(in_ram);
    tree.append({0, 0, 0});
    std::vector<std::unique_ptr<System>> layer;
    std::vector<std::uint64_t> layer_ids = {0};
    layer.push_back(root_of(s));
    constexpr std::uint64_t kNodes = 4096;
    for (int d = 0; d < s.depth && tree.size() < kNodes; ++d) {
        std::vector<std::unique_ptr<System>> next;
        std::vector<std::uint64_t> next_ids;
        for (std::size_t i = 0; i < layer.size() && tree.size() < kNodes; ++i) {
            std::vector<Move> moves = legal_moves(*layer[i]);
            std::shuffle(moves.begin(), moves.end(), env.rng);
            moves.resize(std::min<std::size_t>(moves.size(), 3));
            for (const Move& m : moves) {
                auto child = layer[i]->fork(false);
                child->apply_choice(child->prefix_choice(m.first, m.second));
                next_ids.push_back(tree.append({layer_ids[i], static_cast<std::uint32_t>(m.first),
                                                static_cast<std::uint32_t>(m.second)}));
                next.push_back(std::move(child));
            }
        }
        layer = std::move(next);
        layer_ids = std::move(next_ids);
    }
    std::unique_ptr<store::Rematerializer> remat;
    c.materialize = timed_batches(
            env.tracer, "store.Rematerializer::materialize",
            static_cast<std::int64_t>(tree.size() - 1),
            [&] {
                remat = std::make_unique<store::Rematerializer>(
                        *s.algorithm, s.n, s.inputs, FailurePlan{}, tree, &message_digest);
            },
            [&] {
                for (std::uint64_t id = 1; id < tree.size(); ++id)
                    g_sink += static_cast<std::uint64_t>(remat->materialize(id).sys->now());
            },
            5);
    return c;
}

Ratio probe_canon(ProbeEnv& env, int depth) {
    const Subject& s = env.subject;
    core::ExploreConfig cfg;
    cfg.n = s.n;
    cfg.k = 1;
    cfg.inputs = s.inputs;
    cfg.max_depth = depth;
    cfg.max_states = std::size_t(100) * 1000 * 1000;
    cfg.mode = core::ExploreMode::kReduced;
    cfg.threads = 1;
    cfg.store.spill_dir = env.spill_dir;
    auto timed = [&](bool symmetry, std::int64_t& states) {
        cfg.reduction.symmetry = symmetry;
        const std::int64_t t0 = now_ns();
        {
            ScopedSpan span(env.tracer, symmetry ? "core.explore_schedules[symmetry on]"
                                                 : "core.explore_schedules[symmetry off]");
            states = static_cast<std::int64_t>(
                    core::explore_schedules(*s.algorithm, cfg).states_explored);
        }
        return now_ns() - t0;
    };
    // Alternating rounds, so both sides see the same drift in machine
    // speed; the median of each side.
    constexpr int kRounds = 5;
    std::int64_t on_states = 0, off_states = 0;
    std::vector<std::int64_t> on_ns, off_ns;
    for (int r = 0; r < kRounds; ++r) {
        on_ns.push_back(timed(true, on_states));
        off_ns.push_back(timed(false, off_states));
    }
    const Ratio on = median(std::move(on_ns));
    const Ratio off = median(std::move(off_ns));
    // on/on_states - off/off_states, in microseconds.
    return {on.num * off.den * off_states - off.num * on.den * on_states,
            on.den * off.den * on_states * off_states * 1000};
}

PerCall probe_region(ProbeEnv& env) {
    constexpr int kRegions = 1000;
    const auto slots = static_cast<std::size_t>(env.sched.size());
    return timed_batches(
            env.tracer, "exec.run_chunked[empty]", kRegions, [] {},
            [&] {
                for (int i = 0; i < kRegions; ++i)
                    env.sched.run_chunked(slots, 1, [](std::size_t, int) {});
            },
            5);
}

ChaosCosts probe_chaos(ProbeEnv& env, const std::vector<Cell>& cells, int trials) {
    ChaosCosts c;
    const chaos::ChaosProfile profile = chaos::guarded_profile(1);
    const std::uint64_t base = env.rng();
    std::int64_t classify_ns = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell& cell = cells[i];
        const std::int64_t cell_t0 = now_ns();
        for (int t = 0; t < trials; ++t) {
            const std::uint64_t seed = mix(base ^ (i << 32) ^ static_cast<std::uint64_t>(t));
            const std::int64_t t0 = now_ns();
            chaos::TrialResult r;
            {
                ScopedSpan trial(env.tracer, "chaos.chaos_trial");
                r = chaos::chaos_trial(cell.n, cell.k, cell.f, profile, seed);
            }
            const std::int64_t t1 = now_ns();
            c.trial_ns.push_back(t1 - t0);
            c.faults += r.stats.total_faults();
            {
                ScopedSpan classify(env.tracer, "chaos.classify_run");
                g_sink += chaos::classify_run(r.run, cell.k) == chaos::Outcome::kDecidedCorrectly;
            }
            classify_ns += now_ns() - t1;
        }
        c.cell_ns_max = std::max(c.cell_ns_max, now_ns() - cell_t0);
    }
    c.classify = {{classify_ns, 1}, static_cast<std::int64_t>(c.trial_ns.size())};
    return c;
}

}  // namespace ksa::perfbench
