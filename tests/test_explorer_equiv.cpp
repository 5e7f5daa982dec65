// Golden equivalence suite for the exploration engines.
//
// core/explorer.hpp promises that kFast (the store path: delta records,
// ghost stepping, hashed keys) and kReference (a sequential BFS that
// replays each node's schedule + collision-free canonical strings)
// produce IDENTICAL ExploreVerdicts on every configuration -- same
// state, expansion and dedup counts, same exhaustiveness, same witness
// schedule step for step, same quiescent outcomes and decision sets --
// and that the store path's verdict is identical across thread counts.
// This suite is the enforcement: every bench_model_check case, a
// chaos-style crash plan with final-step omissions, and a max_states
// truncation case (where any divergence in insertion *order* becomes a
// divergence in *content*) run through both engines, anchored on the
// reference.
//
// If the store path's ghost stepping or hash keying ever drifts from
// the real transition semantics, it shows up here as a state-count or
// witness mismatch long before anybody trusts a speedup number.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "algo/flooding.hpp"
#include "algo/initial_clique.hpp"
#include "core/explorer.hpp"
#include "exec/task_scheduler.hpp"
#include "sim/system.hpp"

namespace ksa::core {
namespace {

void expect_same_verdict(const ExploreResult& a, const ExploreResult& b,
                         const std::string& label) {
    EXPECT_TRUE(a.verdict() == b.verdict())
            << label << "\n  " << a.summary() << "\n  " << b.summary();
}

/// expect_same_verdict plus the deterministic store counters; valid
/// only when both runs used the same StoreOptions.  (replay_steps and
/// spill_reads are excluded: they depend on work distribution, like
/// steal counts.)
void expect_equal_with_store_counters(const ExploreResult& a,
                                      const ExploreResult& b,
                                      const std::string& label) {
    expect_same_verdict(a, b, label);
    EXPECT_EQ(a.store_shards, b.store_shards) << label;
    EXPECT_EQ(a.filter_definite_new, b.filter_definite_new) << label;
    EXPECT_EQ(a.filter_false_positives, b.filter_false_positives) << label;
    EXPECT_EQ(a.spilled_records, b.spilled_records) << label;
    EXPECT_EQ(a.spill_bytes, b.spill_bytes) << label;
}

/// `counts` plus the hardware thread count, each distinct count once,
/// in ascending order: on a machine whose hardware count is already
/// listed, that configuration runs once, not twice.
std::vector<int> thread_counts(std::initializer_list<int> counts) {
    std::vector<int> out(counts);
    out.push_back(exec::hardware_threads());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

/// Runs `cfg` through the reference -- the anchor; it is sequential, so
/// one run covers every thread count -- then through the store path at
/// threads 1, 2, 4 and the hardware count, and requires every verdict
/// to equal the anchor's.  Returns the anchor result for case-specific
/// assertions.
ExploreResult expect_all_engines_agree(const Algorithm& algorithm,
                                       ExploreConfig cfg,
                                       const std::string& label) {
    cfg.mode = ExploreMode::kReference;
    cfg.threads = 1;
    const ExploreResult anchor = explore_schedules(algorithm, cfg);
    cfg.mode = ExploreMode::kFast;
    for (const int threads : thread_counts({1, 2, 4})) {
        cfg.threads = threads;
        expect_same_verdict(anchor, explore_schedules(algorithm, cfg),
                            label + ": reference vs fast(" +
                                    std::to_string(threads) + ")");
    }
    return anchor;
}

/// The decisions `witness` reaches, replayed on a fresh System.
std::set<Value> witness_decisions(const Algorithm& algorithm,
                                  const ExploreConfig& cfg,
                                  const std::vector<StepChoice>& witness) {
    System sys(algorithm, cfg.n, cfg.inputs, cfg.plan);
    sys.set_recording(false);
    for (const StepChoice& choice : witness) sys.apply_choice(choice);
    std::set<Value> decisions;
    for (ProcessId p = 1; p <= cfg.n; ++p)
        if (auto d = sys.decision_of(p)) decisions.insert(*d);
    return decisions;
}

ExploreConfig base_config(int n, int k, int depth) {
    ExploreConfig cfg;
    cfg.n = n;
    cfg.inputs = distinct_inputs(n);
    cfg.k = k;
    cfg.max_depth = depth;
    cfg.max_states = 400000;
    return cfg;
}

TEST(ExplorerEquivalence, FloodingConsensusViolation) {
    algo::FloodingKSet algorithm(2);
    const ExploreResult r = expect_all_engines_agree(
            algorithm, base_config(3, 1, 9), "flooding k=1");
    EXPECT_TRUE(r.violation_found);
}

TEST(ExplorerEquivalence, FloodingTwoSetHolds) {
    algo::FloodingKSet algorithm(2);
    const ExploreResult r = expect_all_engines_agree(
            algorithm, base_config(3, 2, 9), "flooding k=2");
    EXPECT_FALSE(r.violation_found);
}

TEST(ExplorerEquivalence, InitialCliqueWithInitialDeath) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 14);
    cfg.plan.set_initially_dead({3});
    const ExploreResult r =
            expect_all_engines_agree(*algorithm, cfg, "flp dead{3}");
    EXPECT_FALSE(r.violation_found);
    EXPECT_TRUE(r.exhaustive);
}

TEST(ExplorerEquivalence, InitialCliqueNoCrash) {
    auto algorithm = algo::make_flp_kset(3, 1);
    const ExploreResult r = expect_all_engines_agree(
            *algorithm, base_config(3, 1, 10), "flp no crash");
    EXPECT_FALSE(r.violation_found);
}

TEST(ExplorerEquivalence, KSetGeneralization) {
    auto algorithm = algo::make_flp_kset(4, 2);
    ExploreConfig cfg = base_config(4, 2, 10);
    cfg.plan.set_initially_dead({1, 2});
    const ExploreResult r =
            expect_all_engines_agree(*algorithm, cfg, "flp k=2");
    EXPECT_FALSE(r.violation_found);
}

TEST(ExplorerEquivalence, TrivialViolatesImmediately) {
    algo::TrivialWaitFree algorithm;
    const ExploreResult r = expect_all_engines_agree(
            algorithm, base_config(3, 2, 4), "trivial");
    EXPECT_TRUE(r.violation_found);
}

/// Three processes whose steps deliver nothing and still change the
/// configuration, one way each.  p1 counts its own steps and decides 1
/// on its third: its behavior digest moves with no send and no
/// decision.  p2 sends a beacon to itself on every step, in the same
/// state after its first.  p3 decides 3 on its second step, in the
/// same state as before it.  Nobody sends to p1 or p3, so neither is
/// stepped again once it has decided.
class QuietSteps final : public Behavior {
  public:
    explicit QuietSteps(ProcessId id) : id_(id) {}
    StepOutput on_step(const StepInput&) override {
        StepOutput out;
        if (id_ == 1) {
            if (++steps_ == 3) out.decision = 1;
        } else if (id_ == 2) {
            steps_ = 1;
            out.send(2, make_payload("B"));
        } else if (steps_ == 0) {
            steps_ = 1;
        } else {
            out.decision = 3;
        }
        return out;
    }
    std::string state_digest() const override {
        return "steps " + std::to_string(steps_);
    }
    std::unique_ptr<Behavior> clone() const override {
        return std::make_unique<QuietSteps>(*this);
    }

  private:
    ProcessId id_;
    int steps_ = 0;
};

class QuietStepsAlgorithm final : public Algorithm {
  public:
    std::unique_ptr<Behavior> make_behavior(ProcessId id, int,
                                            Value) const override {
        return std::make_unique<QuietSteps>(id);
    }
    std::string name() const override { return "quiet-steps"; }
};

// The store path counts a step that provably reaches its own node -- no
// delivery, no send, no decision, not a final crash step, an unchanged
// behavior digest -- as a dedup hit without keying it.  Each of
// QuietSteps' processes takes steps that meet all but one of those
// conditions, so the reference must see exactly the store path's
// states: p2's beacons reach new buffers, and both decisions (the
// violation) are reached only through such steps.
TEST(ExplorerEquivalence, QuietStepsAreNotStutters) {
    QuietStepsAlgorithm algorithm;
    const ExploreResult r = expect_all_engines_agree(
            algorithm, base_config(3, 1, 7), "quiet steps");
    EXPECT_TRUE(r.violation_found);
}

/// Every process decides its own id on its second step, which delivers
/// nothing.  Its local state leaves the id out: after one step each,
/// p1 and p2 are in equal states (equal digests), and their next steps
/// have different outputs.
class OwnIdOnSecondStep final : public Behavior {
  public:
    explicit OwnIdOnSecondStep(ProcessId id) : id_(id) {}
    StepOutput on_step(const StepInput&) override {
        StepOutput out;
        if (++steps_ == 2) out.decision = id_;
        return out;
    }
    std::string state_digest() const override {
        return "steps " + std::to_string(steps_);
    }
    std::unique_ptr<Behavior> clone() const override {
        return std::make_unique<OwnIdOnSecondStep>(*this);
    }

  private:
    ProcessId id_;
    int steps_ = 0;
};

class OwnIdOnSecondStepAlgorithm final : public Algorithm {
  public:
    std::unique_ptr<Behavior> make_behavior(ProcessId id, int,
                                            Value) const override {
        return std::make_unique<OwnIdOnSecondStep>(id);
    }
    std::string name() const override { return "own-id-on-second-step"; }
};

// The store path's transition memo (core/ghost_step.hpp) names a step
// by its stepper, local state and delivered messages.  A local state
// need not render its process's id -- every engine keys it at its
// process's position -- so the memo must key on the stepper: otherwise
// p2's second step would recall p1's decision.
TEST(ExplorerEquivalence, TransitionMemoKeysOnTheProcess) {
    OwnIdOnSecondStepAlgorithm algorithm;
    const ExploreResult r = expect_all_engines_agree(
            algorithm, base_config(3, 1, 7), "own id on second step");
    EXPECT_TRUE(r.violation_found);
    EXPECT_TRUE(r.exhaustive);
}

// perfbench's fast-n4 instance meets about 6,100 distinct transitions,
// more than a worker's memo holds (TransitionMemo::kMaxSlots), so its
// workers replace memo entries as they go.  The store path must still
// reproduce the reference's partition, on the pinned counts, at every
// thread count.  At 104,321 states (n = 4, cut by depth) this is the
// suite's largest reference run, 30 times the next largest, so a
// divergence that needs a deep or wide configuration has room to show.
TEST(ExplorerEquivalence, TransitionMemoReplacementKeepsCounts) {
    auto algorithm = algo::make_flp_kset(4, 1);
    const ExploreResult r = expect_all_engines_agree(
            *algorithm, base_config(4, 1, 8), "flp n=4 depth 8");
    EXPECT_EQ(r.states_explored, 104321u);
    EXPECT_EQ(r.schedules_expanded, 104321u);
    EXPECT_EQ(r.dedup_hits, 327484u);
    EXPECT_FALSE(r.exhaustive);
}

// The crash plan of the chaos layer's staggered adversary: a process
// that crashes mid-run with the sends of its final step omitted to a
// strict subset of receivers.  The ghost-step key must reproduce the
// omission semantics (GhostStep::send_survives) bit-for-bit, and this
// is the case that exercises it.
TEST(ExplorerEquivalence, MidRunCrashWithOmissions) {
    algo::FloodingKSet algorithm(2);
    ExploreConfig cfg = base_config(3, 1, 9);
    cfg.plan.set_crash(1, CrashSpec{2, {3}});
    expect_all_engines_agree(algorithm, cfg, "crash omit{3}");
}

TEST(ExplorerEquivalence, MidRunCrashOmittingAll) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 12);
    cfg.plan.set_crash_omit_all(2, 1, 3);
    expect_all_engines_agree(*algorithm, cfg, "crash omit-all");
}

// max_states truncation: which states fall inside the cut depends on
// the BFS insertion order, so any ordering divergence between the
// engines -- or between thread counts -- changes states_explored,
// quiescent_outcomes or the witness.  All of them must still agree.
TEST(ExplorerEquivalence, TruncationCutsIdentically) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 14);
    cfg.max_states = 200;
    const ExploreResult r =
            expect_all_engines_agree(*algorithm, cfg, "truncated");
    EXPECT_FALSE(r.exhaustive);
    EXPECT_GT(r.states_explored, 200u);  // cut just past the cap
}

// Determinism across repeated runs of the same engine (the PR-1
// contract applied to the parallel fast path).
TEST(ExplorerEquivalence, FastModeRunToRunDeterminism) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 12);
    cfg.mode = ExploreMode::kFast;
    cfg.threads = 4;
    const ExploreResult a = explore_schedules(*algorithm, cfg);
    const ExploreResult b = explore_schedules(*algorithm, cfg);
    expect_same_verdict(a, b, "fast(4) run-to-run");
}

// ---------------------------------------------------------------------
// Reduced engine (ExploreMode::kReduced).
//
// kReduced explores a QUOTIENT of the configuration space, so state and
// expansion counts are allowed (expected!) to shrink; what must be
// preserved, exactly, on every exhaustive golden case, are the three
// observables: violation_found, reachable_decision_sets and
// quiescent_outcomes.  The helpers below enforce that, plus thread-count
// byte-identity of the reduced engine itself, on every golden case.

void expect_observables_equal(const ExploreResult& full,
                              const ExploreResult& reduced,
                              const std::string& label) {
    EXPECT_EQ(full.violation_found, reduced.violation_found) << label;
    EXPECT_EQ(full.reachable_decision_sets, reduced.reachable_decision_sets)
            << label;
    EXPECT_EQ(full.quiescent_outcomes, reduced.quiescent_outcomes) << label;
}

/// Runs `cfg` through kFast and through kReduced (threads 1, 2, 4 and
/// the hardware count), requires the three observables to match and
/// the reduced runs to be byte-identical across thread counts, and
/// returns (fast, reduced).
std::pair<ExploreResult, ExploreResult> expect_reduced_agrees(
        const Algorithm& algorithm, ExploreConfig cfg,
        const std::string& label) {
    cfg.mode = ExploreMode::kFast;
    cfg.threads = 1;
    const ExploreResult fast = explore_schedules(algorithm, cfg);
    cfg.mode = ExploreMode::kReduced;
    const ExploreResult red1 = explore_schedules(algorithm, cfg);
    for (const int threads : thread_counts({2, 4})) {
        if (threads == 1) continue;  // red1 itself
        cfg.threads = threads;
        const ExploreResult red_n = explore_schedules(algorithm, cfg);
        expect_same_verdict(red1, red_n,
                            label + ": reduced(1) vs reduced(" +
                                    std::to_string(threads) + ")");
    }
    expect_observables_equal(fast, red1, label + ": fast vs reduced");
    EXPECT_LE(red1.states_explored, fast.states_explored) << label;
    return {fast, red1};
}

TEST(ReducedEquivalence, FloodingConsensusViolation) {
    algo::FloodingKSet algorithm(2);
    auto [fast, red] = expect_reduced_agrees(algorithm, base_config(3, 1, 9),
                                             "flooding k=1");
    EXPECT_TRUE(red.violation_found);
}

TEST(ReducedEquivalence, FloodingTwoSetHolds) {
    algo::FloodingKSet algorithm(2);
    auto [fast, red] = expect_reduced_agrees(algorithm, base_config(3, 2, 9),
                                             "flooding k=2");
    EXPECT_FALSE(red.violation_found);
}

TEST(ReducedEquivalence, InitialCliqueWithInitialDeath) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 14);
    cfg.plan.set_initially_dead({3});
    expect_reduced_agrees(*algorithm, cfg, "flp dead{3}");
}

// The flagship bench case ("Thm 8, no crash", depth 14, exhaustive):
// besides the observables agreeing, this is where the reduction has to
// EARN its keep -- at least 2x fewer expansions than the fast engine,
// with the skipped work visible in por_skips.  BENCH_explorer.json
// records the measured counts; this test pins the invariant so a
// regression in the reduction layer fails loudly rather than silently
// eroding the speedup.
TEST(ReducedEquivalence, FlagshipAtLeastTwofoldReduction) {
    auto algorithm = algo::make_flp_kset(3, 1);
    auto [fast, red] = expect_reduced_agrees(
            *algorithm, base_config(3, 1, 14), "flp no crash d14");
    EXPECT_TRUE(fast.exhaustive);
    EXPECT_TRUE(red.exhaustive);
    EXPECT_GE(fast.schedules_expanded, 2 * red.schedules_expanded)
            << "reduction lost its 2x on the flagship case";
    EXPECT_GT(red.por_skips, 0u);
}

/// p1 decides 1 on its first step and never sends.  p2 sends one
/// message "M" to p1 on its first step and decides 1 on its second.
/// Both ignore delivered messages, and a decided process's steps
/// change nothing, so decisions are final.
class SendThenDecide final : public Behavior {
  public:
    explicit SendThenDecide(ProcessId id) : id_(id) {}
    StepOutput on_step(const StepInput&) override {
        StepOutput out;
        if (id_ == 1 && phase_ == 0) {
            out.decision = 1;
            phase_ = 1;
        } else if (id_ == 2 && phase_ == 0) {
            out.send(1, make_payload("M"));
            phase_ = 1;
        } else if (id_ == 2 && phase_ == 1) {
            out.decision = 1;
            phase_ = 2;
        }
        return out;
    }
    std::string state_digest() const override {
        return "phase " + std::to_string(phase_);
    }
    bool may_send() const override { return id_ == 2 && phase_ == 0; }
    std::unique_ptr<Behavior> clone() const override {
        return std::make_unique<SendThenDecide>(*this);
    }

  private:
    ProcessId id_;
    int phase_ = 0;
};

class SendThenDecideAlgorithm final : public Algorithm {
  public:
    std::unique_ptr<Behavior> make_behavior(ProcessId id, int,
                                            Value) const override {
        return std::make_unique<SendThenDecide>(id);
    }
    std::string name() const override { return "send-then-decide"; }
    bool decided_is_final() const override { return true; }
};

// por_skips adds a node's persistent-set skips to the skipped moves of
// its absorbed processes.  The reduced run of SendThenDecide, by BFS
// layer (p1 first; "p1 (1)" delivers p1's oldest message):
//
//   R  root.  No persistent set: p2 sends to the live p1, and p1's
//      move decides a fresh value.  Children: A = R.p1, B = R.p2.
//   A  p1 decided, empty buffer: its steps are dropped, not counted.
//      p2 is the persistent set (its send lands at the decided p1)
//      and the only move: skips 0.  Child: C = A.p2.
//   B  p1 holds M.  No process may send, but every move decides the
//      fresh 1: no persistent set.  B.p1 (0) and B.p1 (1) equal C
//      (p1 decided is keyed by its value alone); child D = B.p2.
//   C  p1 decided and holding M is absorbed: its moves with 0 and 1
//      messages delivered are skipped (2).  p2's one move decides the
//      1 already decided, so p2 is the persistent set; nothing else is
//      left to skip (0).  Child: E = C.p2.
//   D  p2 decided with an empty buffer (dropped).  p1's two moves
//      decide the decided 1: p1 is the persistent set, skips 0.  Both
//      children equal E.
//   E  both decided: quiescent.
//
// So 6 states, 4 dedup hits and por_skips = 2, all of it from C,
// where an absorbed process and a persistent-set pick meet.
TEST(ReducedEquivalence, PorSkipsCountAbsorbedAndPersistentSetSkips) {
    SendThenDecideAlgorithm algorithm;
    auto [fast, red] = expect_reduced_agrees(algorithm, base_config(2, 1, 6),
                                             "send-then-decide");
    EXPECT_TRUE(red.exhaustive);
    EXPECT_EQ(red.states_explored, 6u);
    EXPECT_EQ(red.dedup_hits, 4u);
    EXPECT_EQ(red.por_skips, 2u);
}

TEST(ReducedEquivalence, KSetGeneralization) {
    auto algorithm = algo::make_flp_kset(4, 2);
    ExploreConfig cfg = base_config(4, 2, 10);
    cfg.plan.set_initially_dead({1, 2});
    expect_reduced_agrees(*algorithm, cfg, "flp k=2");
}

TEST(ReducedEquivalence, TrivialViolatesImmediately) {
    algo::TrivialWaitFree algorithm;
    auto [fast, red] =
            expect_reduced_agrees(algorithm, base_config(3, 2, 4), "trivial");
    EXPECT_TRUE(red.violation_found);
}

TEST(ReducedEquivalence, MidRunCrashWithOmissions) {
    algo::FloodingKSet algorithm(2);
    ExploreConfig cfg = base_config(3, 1, 9);
    cfg.plan.set_crash(1, CrashSpec{2, {3}});
    expect_reduced_agrees(algorithm, cfg, "crash omit{3}");
}

TEST(ReducedEquivalence, MidRunCrashOmittingAll) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 12);
    cfg.plan.set_crash_omit_all(2, 1, 3);
    expect_reduced_agrees(*algorithm, cfg, "crash omit-all");
}

// Uniform inputs make the whole symmetric group admissible: the
// symmetry axis alone must collapse the space by far more than the
// group order would suggest (orbits compound down the tree) while the
// orbit-expanded outcomes still match the full engine's exactly.
TEST(ReducedEquivalence, UniformInputsSymmetry) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 14);
    cfg.inputs = {7, 7, 7};
    auto [fast, red] = expect_reduced_agrees(*algorithm, cfg, "flp uniform");
    EXPECT_TRUE(fast.exhaustive);
    EXPECT_LT(red.states_explored * 3, fast.states_explored)
            << "uniform-input symmetry should shrink the space >3x";
}

// Pins the canonical key stream of a symmetric run (|G| = 24), not only
// the partition it induces.  With a 1-bit-per-key filter most probes of
// a present-looking key are false positives, so the two tier counters
// move if any word any renamed key folds moves -- while the verdict
// counts would not.  The run takes the persistent-set branch too
// (por_skips > 0).  The filter counters therefore pin both the hash
// function (sim/digest.hpp) and the field sequence every key folds: a
// change to either moves them, and must say so.
TEST(ReducedEquivalence, SymmetricKeyFingerprint) {
    auto algorithm = algo::make_flp_kset(4, 1);
    ExploreConfig cfg = base_config(4, 1, 7);
    cfg.inputs = uniform_inputs(4, 7);
    cfg.mode = ExploreMode::kReduced;
    cfg.store.filter_bits_per_key = 1;
    for (const int threads : {1, 4}) {
        cfg.threads = threads;
        const ExploreResult r = explore_schedules(*algorithm, cfg);
        const std::string label = "threads " + std::to_string(threads);
        EXPECT_EQ(r.states_explored, 1131u) << label;
        EXPECT_EQ(r.schedules_expanded, 1131u) << label;
        EXPECT_EQ(r.dedup_hits, 3612u) << label;
        EXPECT_EQ(r.por_skips, 52u) << label;
        EXPECT_EQ(r.filter_definite_new, 366u) << label;
        EXPECT_EQ(r.filter_false_positives, 765u) << label;
    }
}

// The renamed-digest memo (core/reduction.hpp, RenamedNodeDigests) has
// a fixed byte budget, and this run crosses it: at n = 7 with uniform
// inputs |G| = 5,040, so one memo entry holds 5,039 digests (80,624
// bytes), and the 32 behavior states and messages met by depth 4 need
// 2.6 MB.  The worker clears its memo at the start of a node's build()
// several times.  The keys must not notice: the counts and the 1-bit
// filter's tier counters are the values of the renaming that kept no
// memo, at 1 and 4 threads, and the observables match kFast's.  (Debug
// builds check each of these keys against a 5,040-renaming walk, so
// the case runs the reduced engine only twice.)
TEST(ReducedEquivalence, MemoBudgetCrossingKeepsKeys) {
    auto algorithm = algo::make_flp_kset(7, 1);
    ExploreConfig cfg = base_config(7, 1, 4);
    cfg.inputs = uniform_inputs(7, 7);
    cfg.store.filter_bits_per_key = 1;
    cfg.mode = ExploreMode::kFast;
    const ExploreResult fast = explore_schedules(*algorithm, cfg);
    cfg.mode = ExploreMode::kReduced;
    for (const int threads : {1, 4}) {
        cfg.threads = threads;
        const ExploreResult r = explore_schedules(*algorithm, cfg);
        const std::string label = "threads " + std::to_string(threads);
        EXPECT_EQ(r.states_explored, 45u) << label;
        EXPECT_EQ(r.schedules_expanded, 45u) << label;
        EXPECT_EQ(r.dedup_hits, 165u) << label;
        EXPECT_EQ(r.filter_definite_new, 25u) << label;
        EXPECT_EQ(r.filter_false_positives, 20u) << label;
        expect_observables_equal(fast, r, label + ": fast vs reduced");
    }
}

// The same pin for the path that absorption alone shapes: distinct
// inputs make the group trivial, so every key is an identity key folded
// from lay_out_child's layout, whose dead-message deletion reads the
// node's liveness table for the non-stepping processes and judges the
// stepper's remaining buffer and the arriving sends per candidate.  Depth 7 is
// deep enough for decided (absorbed) processes and persistent-set
// skips; the 1-bit filter makes the tier counters sensitive to every
// key, as in SymmetricKeyFingerprint.
TEST(ReducedEquivalence, AbsorptionKeyFingerprint) {
    auto algorithm = algo::make_flp_kset(4, 1);
    ExploreConfig cfg = base_config(4, 1, 7);
    cfg.mode = ExploreMode::kReduced;
    cfg.store.filter_bits_per_key = 1;
    for (const int threads : {1, 4}) {
        cfg.threads = threads;
        const ExploreResult r = explore_schedules(*algorithm, cfg);
        const std::string label = "threads " + std::to_string(threads);
        EXPECT_EQ(r.states_explored, 26797u) << label;
        EXPECT_EQ(r.schedules_expanded, 26797u) << label;
        EXPECT_EQ(r.dedup_hits, 84500u) << label;
        EXPECT_EQ(r.por_skips, 1056u) << label;
        EXPECT_EQ(r.filter_definite_new, 7869u) << label;
        EXPECT_EQ(r.filter_false_positives, 18928u) << label;
    }
}

// With every reduction switched off, kReduced must not merely agree --
// it must run exactly as kFast does: the same verdict (counts, witness,
// everything) and, because it feeds the visited store the very same
// key stream, the same deterministic store counters.  The counters pin
// the keys themselves, not only the partition they induce.
TEST(ReducedEquivalence, AllReductionsOffIsBitIdenticalToFast) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 12);
    // A 2-bit-per-key filter makes false positives common (about one
    // probe in five here), so a different key stream shows in the tier
    // counters even where it induces the same partition; the tiny
    // window makes the run spill.
    cfg.store.filter_bits_per_key = 2;
    cfg.store.frontier_ram_bytes = 1024;
    cfg.mode = ExploreMode::kFast;
    const ExploreResult fast = explore_schedules(*algorithm, cfg);
    cfg.mode = ExploreMode::kReduced;
    cfg.reduction.symmetry = false;
    cfg.reduction.por = false;
    cfg.reduction.absorption = false;
    const ExploreResult red = explore_schedules(*algorithm, cfg);
    expect_equal_with_store_counters(fast, red, "reduction-off vs fast");
    EXPECT_EQ(red.por_skips, 0u);
    EXPECT_GT(red.spilled_records, 0u);
}

// kFast is the store path with every axis off whatever the config says:
// switching every ExploreConfig::reduction axis on must change nothing.
TEST(ReducedEquivalence, FastIgnoresReductionOptions) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 12);
    cfg.inputs = {7, 7, 7};  // a non-trivial symmetry group to ignore
    cfg.mode = ExploreMode::kFast;
    cfg.reduction.symmetry = false;
    cfg.reduction.por = false;
    cfg.reduction.absorption = false;
    const ExploreResult off = explore_schedules(*algorithm, cfg);
    cfg.reduction = ReductionOptions{};  // every axis on
    const ExploreResult on = explore_schedules(*algorithm, cfg);
    expect_equal_with_store_counters(off, on, "kFast, axes on vs off");
}

// Each reduction axis must be individually sound, not only the default
// all-on combination: sweep all 8 on/off combinations on a case with
// crashes (omission semantics) and assert the observables every time.
TEST(ReducedEquivalence, EveryAxisCombinationAgrees) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 12);
    cfg.plan.set_crash_omit_all(2, 1, 3);
    cfg.mode = ExploreMode::kFast;
    const ExploreResult fast = explore_schedules(*algorithm, cfg);
    for (int mask = 0; mask < 8; ++mask) {
        ExploreConfig rcfg = cfg;
        rcfg.mode = ExploreMode::kReduced;
        rcfg.reduction.symmetry = (mask & 1) != 0;
        rcfg.reduction.por = (mask & 2) != 0;
        rcfg.reduction.absorption = (mask & 4) != 0;
        const ExploreResult red = explore_schedules(*algorithm, rcfg);
        expect_observables_equal(fast, red,
                                 "axis mask " + std::to_string(mask));
    }
}

// A kReduced violation witness is a real schedule (frontier nodes are
// realized Systems, never merely renamed ones): replaying it step for
// step on a fresh System must reproduce a state with more than k
// distinct decisions.
TEST(ReducedEquivalence, WitnessReplaysToViolation) {
    algo::FloodingKSet algorithm(2);
    ExploreConfig cfg = base_config(3, 1, 9);
    cfg.mode = ExploreMode::kReduced;
    const ExploreResult red = explore_schedules(algorithm, cfg);
    ASSERT_TRUE(red.violation_found);
    ASSERT_FALSE(red.witness.empty());

    const std::set<Value> decisions =
            witness_decisions(algorithm, cfg, red.witness);
    EXPECT_GT(static_cast<int>(decisions.size()), cfg.k)
            << "reduced witness does not replay to a violation";
}

// Under max_depth truncation exact equality is NOT promised (the
// quotient can reach -- and absorb -- outcomes the depth-bounded full
// engine never gets to; doc/performance.md).  What still holds: every
// observable the truncated full engine records is genuinely reachable,
// so the exhaustive reduced run must contain it.
TEST(ReducedEquivalence, TruncatedFastIsContainedInReduced) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 10);  // fast needs 14 for exhaustion
    cfg.mode = ExploreMode::kFast;
    const ExploreResult fast = explore_schedules(*algorithm, cfg);
    cfg.mode = ExploreMode::kReduced;
    const ExploreResult red = explore_schedules(*algorithm, cfg);
    EXPECT_FALSE(fast.exhaustive);
    EXPECT_TRUE(red.exhaustive);  // the quotient closes by depth 8
    for (const auto& ds : fast.reachable_decision_sets)
        EXPECT_TRUE(red.reachable_decision_sets.count(ds) != 0)
                << "decision set seen by truncated fast missing from reduced";
    for (const auto& qo : fast.quiescent_outcomes)
        EXPECT_TRUE(red.quiescent_outcomes.count(qo) != 0)
                << "outcome seen by truncated fast missing from reduced";
}

TEST(ReducedEquivalence, RunToRunDeterminism) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 14);
    cfg.mode = ExploreMode::kReduced;
    cfg.threads = 4;
    const ExploreResult a = explore_schedules(*algorithm, cfg);
    const ExploreResult b = explore_schedules(*algorithm, cfg);
    expect_same_verdict(a, b, "reduced(4) run-to-run");
}

// ---------------------------------------------------------------------
// Depth-bound sweep.
//
// The store path pops the last BFS layer from the classifications its
// parents made when they keyed it (core/explorer.cpp, classify_leaf):
// a leaf is never materialized.  Sweeping max_depth from 0 until the
// reference is exhaustive makes every layer the leaf layer once.  At
// each depth kFast must equal the reference, witness included, at 1
// and 4 threads, with a 1 KiB frontier window (spilling) and under a
// max_states cut just below the depth's state count (which cuts at the
// first leaf).  kReduced explores a quotient, so it must equal itself
// across the same configurations, replay its witness to a violation,
// report only observables the exhaustive reference reports, and match
// them once the reference is exhaustive.  (Debug builds also
// materialize every leaf and check its classification.)

/// `cfg` at 4 threads, with a 1 KiB window, and at 1 and 4 threads cut
/// at `anchor`'s state count minus one: each must give `anchor`'s
/// verdict, or `cut`'s for the cut runs.
void expect_depth_configs_agree(const Algorithm& algorithm, ExploreConfig cfg,
                                const ExploreResult& anchor,
                                const ExploreResult& cut,
                                const std::string& label) {
    ExploreConfig c = cfg;
    c.threads = 4;
    expect_same_verdict(anchor, explore_schedules(algorithm, c),
                        label + " 4 threads");
    c = cfg;
    c.store.frontier_ram_bytes = 1024;
    expect_same_verdict(anchor, explore_schedules(algorithm, c),
                        label + " 1 KiB window");
    for (const int threads : {1, 4}) {
        c = cfg;
        c.threads = threads;
        c.max_states = anchor.states_explored - 1;
        expect_same_verdict(cut, explore_schedules(algorithm, c),
                            label + " cut, " + std::to_string(threads) +
                                    " threads");
    }
}

void expect_depth_sweep_agrees(const Algorithm& algorithm, ExploreConfig cfg,
                               const std::string& name) {
    std::vector<ExploreResult> refs;
    cfg.mode = ExploreMode::kReference;
    cfg.threads = 1;
    for (cfg.max_depth = 0; refs.empty() || !refs.back().exhaustive;
         ++cfg.max_depth) {
        ASSERT_LT(cfg.max_depth, 40) << name << ": never exhaustive";
        refs.push_back(explore_schedules(algorithm, cfg));
    }
    const ExploreResult& full = refs.back();
    for (std::size_t depth = 0; depth < refs.size(); ++depth) {
        const ExploreResult& ref = refs[depth];
        const std::string label = name + " depth " + std::to_string(depth);
        cfg.max_depth = static_cast<int>(depth);
        ExploreConfig c = cfg;
        c.mode = ExploreMode::kReference;
        c.max_states = ref.states_explored - 1;
        const ExploreResult ref_cut = explore_schedules(algorithm, c);
        EXPECT_FALSE(ref_cut.exhaustive) << label;
        c = cfg;
        c.mode = ExploreMode::kFast;
        expect_same_verdict(ref, explore_schedules(algorithm, c),
                            label + ": fast");
        expect_depth_configs_agree(algorithm, c, ref, ref_cut,
                                   label + ": fast");

        ReductionOptions absorption_por;
        absorption_por.symmetry = false;
        for (const ReductionOptions& axes :
             {ReductionOptions{}, absorption_por}) {
            c = cfg;
            c.mode = ExploreMode::kReduced;
            c.reduction = axes;
            const std::string rlabel =
                    label + (axes.symmetry ? ": reduced" :
                                             ": reduced, absorption + POR");
            const ExploreResult red = explore_schedules(algorithm, c);
            ExploreConfig cc = c;
            cc.max_states = red.states_explored - 1;
            const ExploreResult red_cut = explore_schedules(algorithm, cc);
            expect_depth_configs_agree(algorithm, c, red, red_cut, rlabel);
            if (red.violation_found) {
                const std::set<Value> decided =
                        witness_decisions(algorithm, c, red.witness);
                EXPECT_GT(static_cast<int>(decided.size()), c.k) << rlabel;
            }
            for (const auto& ds : red.reachable_decision_sets)
                EXPECT_TRUE(full.reachable_decision_sets.count(ds) != 0)
                        << rlabel << ": unreachable decision set";
            for (const auto& qo : red.quiescent_outcomes)
                EXPECT_TRUE(full.quiescent_outcomes.count(qo) != 0)
                        << rlabel << ": unreachable quiescent outcome";
            if (ref.exhaustive) {
                EXPECT_TRUE(red.exhaustive) << rlabel;
                expect_observables_equal(ref, red, rlabel);
            }
        }
    }
}

// The first violation sits at the bound, at depth 3; quiescent outcomes
// first appear at depth 5.
TEST(DepthSweep, Flooding) {
    algo::FloodingKSet algorithm(2);
    expect_depth_sweep_agrees(algorithm, base_config(3, 1, 0), "flooding");
}

// p3 crashes in its second step, whose sends are all lost: a leaf that
// step reaches can be quiescent only because it was p3's last.
TEST(DepthSweep, MidRunCrashWithOmissions) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 0);
    cfg.plan.set_crash_omit_all(3, 2, 3);
    expect_depth_sweep_agrees(*algorithm, cfg, "flp crash omit-all");
}

TEST(DepthSweep, KSetWithTwoDead) {
    auto algorithm = algo::make_flp_kset(4, 2);
    ExploreConfig cfg = base_config(4, 2, 0);
    cfg.plan.set_initially_dead({3, 4});
    expect_depth_sweep_agrees(*algorithm, cfg, "flp k=2 dead{3,4}");
}

/// p1 and p3 decide their ids on their first steps, and p3 then sends
/// p2 a message.  p2 decides 2 on the first step that delivers it, or
/// else alone on its fourth step.  So {1, 2, 3} is reached at depth 3
/// and {1, 2} only at depth 5: a leaf can add a decision set although a
/// larger set holding its parent's set and its step's value was
/// recorded before.
class HelpedOrSlow final : public Behavior {
  public:
    explicit HelpedOrSlow(ProcessId id) : id_(id) {}
    StepOutput on_step(const StepInput& in) override {
        StepOutput out;
        if (decided_) return out;
        if (id_ == 2 && in.delivered.empty() && ++steps_ < 4) return out;
        decided_ = true;
        out.decision = id_;
        if (id_ == 3) out.send(2, make_payload("go"));
        return out;
    }
    std::string state_digest() const override {
        return std::to_string(steps_) + (decided_ ? " decided" : "");
    }
    std::unique_ptr<Behavior> clone() const override {
        return std::make_unique<HelpedOrSlow>(*this);
    }

  private:
    ProcessId id_;
    int steps_ = 0;
    bool decided_ = false;
};

class HelpedOrSlowAlgorithm final : public Algorithm {
  public:
    std::unique_ptr<Behavior> make_behavior(ProcessId id, int,
                                            Value) const override {
        return std::make_unique<HelpedOrSlow>(id);
    }
    std::string name() const override { return "helped-or-slow"; }
};

TEST(DepthSweep, LeafSetUnderARecordedSuperset) {
    HelpedOrSlowAlgorithm algorithm;
    expect_depth_sweep_agrees(algorithm, base_config(3, 1, 0),
                              "helped or slow");
}

/// Decides its own id on its first step and again on its second: the
/// protocol bug System::transition rejects.  The first step also sends
/// the process a message, so that the menu offers its second step (it
/// drops a decided correct process's steps only while its buffer is
/// empty).  It declares no reduction claim, so absorption keeps a
/// decided process in the key and does not skip its second step.
class DecidesTwice final : public Behavior {
  public:
    explicit DecidesTwice(ProcessId id) : id_(id) {}
    StepOutput on_step(const StepInput&) override {
        StepOutput out;
        if (steps_ == 0) out.send(id_, make_payload("again"));
        if (steps_++ < 2) out.decision = id_;
        return out;
    }
    std::string state_digest() const override {
        return "steps " + std::to_string(steps_);
    }
    std::unique_ptr<Behavior> clone() const override {
        return std::make_unique<DecidesTwice>(*this);
    }

  private:
    ProcessId id_;
    int steps_ = 0;
};

class DecidesTwiceAlgorithm final : public Algorithm {
  public:
    std::unique_ptr<Behavior> make_behavior(ProcessId id, int,
                                            Value) const override {
        return std::make_unique<DecidesTwice>(id);
    }
    std::string name() const override { return "decides-twice"; }
};

// At max_depth 2 the second decision is a leaf's step.  No engine may
// let it pass: the reference applies it, and the store path, which no
// longer redoes a leaf's step, checks it when it classifies the leaf.
TEST(DepthSweep, DecidingTwiceThrowsAtTheLeaves) {
    DecidesTwiceAlgorithm algorithm;
    ExploreConfig cfg = base_config(2, 1, 2);
    for (const ExploreMode mode : {ExploreMode::kReference, ExploreMode::kFast,
                                   ExploreMode::kReduced}) {
        cfg.mode = mode;
        try {
            explore_schedules(algorithm, cfg);
            ADD_FAILURE() << to_string(mode) << ": no error";
        } catch (const UsageError& e) {
            EXPECT_NE(std::string(e.what()).find("decided twice"),
                      std::string::npos)
                    << to_string(mode) << ": " << e.what();
        }
    }
}

// ---------------------------------------------------------------------
// Store configuration sweeps (src/store/).
//
// The out-of-core store promises that NONE of its sizing knobs -- shard
// count, bloom budget, spill budget, expansion block size -- changes
// any exploration result, and that for a FIXED store configuration the
// deterministic store counters (tier hits, spill tallies) are
// themselves byte-identical across thread counts
// (expect_equal_with_store_counters).

/// Store configurations that must all yield the same result: defaults,
/// a single unsharded table without a filter tier, maximal sharding
/// with a spill-everything budget, and a degenerate one-node block.
std::vector<store::StoreOptions> store_sweep() {
    std::vector<store::StoreOptions> sweep(4);
    sweep[1].shard_bits = 0;
    sweep[1].filter_bits_per_key = 0;
    sweep[2].shard_bits = 8;
    sweep[2].frontier_ram_bytes = 1024;  // 64-record window: spills hard
    sweep[3].expand_block = 1;
    sweep[3].shard_bits = 1;
    sweep[3].frontier_ram_bytes = 2048;
    return sweep;
}

TEST(StoreEquivalence, EveryStoreConfigYieldsTheSameResult) {
    auto algorithm = algo::make_flp_kset(3, 1);
    for (const auto mode : {ExploreMode::kFast, ExploreMode::kReduced}) {
        ExploreConfig cfg = base_config(3, 1, 12);
        cfg.mode = mode;
        const ExploreResult baseline = explore_schedules(*algorithm, cfg);
        int i = 0;
        for (const store::StoreOptions& opt : store_sweep()) {
            cfg.store = opt;
            const ExploreResult r = explore_schedules(*algorithm, cfg);
            expect_same_verdict(baseline, r,
                                "store config " + std::to_string(i++));
        }
    }
}

TEST(StoreEquivalence, CountersAreThreadCountInvariant) {
    auto algorithm = algo::make_flp_kset(3, 1);
    for (const auto mode : {ExploreMode::kFast, ExploreMode::kReduced}) {
        int i = 0;
        for (const store::StoreOptions& opt : store_sweep()) {
            ExploreConfig cfg = base_config(3, 1, 11);
            cfg.mode = mode;
            cfg.store = opt;
            cfg.threads = 1;
            const ExploreResult one = explore_schedules(*algorithm, cfg);
            for (const int threads : thread_counts({2})) {
                if (threads == 1) continue;  // `one` itself
                cfg.threads = threads;
                const ExploreResult many = explore_schedules(*algorithm, cfg);
                expect_equal_with_store_counters(
                        one, many,
                        "store config " + std::to_string(i) + " threads " +
                                std::to_string(threads));
            }
            ++i;
        }
    }
}

TEST(StoreEquivalence, TruncationCutsIdenticallyUnderSpill) {
    // The sharpest determinism case and the spill path combined: which
    // states fall inside max_states must not depend on the spill
    // budget, the block size or the thread count.
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 14);
    cfg.max_states = 500;
    const ExploreResult baseline = explore_schedules(*algorithm, cfg);
    EXPECT_FALSE(baseline.exhaustive);
    cfg.store.frontier_ram_bytes = 1024;
    cfg.store.expand_block = 7;
    cfg.store.shard_bits = 2;
    for (const int threads : {1, 4}) {
        cfg.threads = threads;
        const ExploreResult r = explore_schedules(*algorithm, cfg);
        expect_same_verdict(baseline, r,
                            "spilled truncation, threads " +
                                    std::to_string(threads));
    }
}

TEST(StoreEquivalence, CrashPlansSurviveRematerialization) {
    // Rematerialization undoes and redoes delta chains on one live
    // System per worker; crash plans (mid-run crashes with omissions)
    // must survive the replay byte-identically even when the chain
    // crosses the spill file.
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 12);
    cfg.plan.set_crash(1, CrashSpec{2, {3}});
    const ExploreResult baseline = explore_schedules(*algorithm, cfg);
    cfg.store.frontier_ram_bytes = 1024;
    cfg.store.expand_block = 5;
    const ExploreResult spilled = explore_schedules(*algorithm, cfg);
    EXPECT_GT(spilled.spilled_records, 0u);
    expect_same_verdict(baseline, spilled, "crash plan under spill");
}

}  // namespace
}  // namespace ksa::core
