// Unit tests for the simulation substrate: payloads, messages, the
// state hasher, failure plans, the System executor (its fork and undo
// round-trips included), schedulers, admissibility and run queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "algo/flooding.hpp"
#include "algo/initial_clique.hpp"
#include "check/contract.hpp"
#include "core/explorer.hpp"
#include "sim/admissibility.hpp"
#include "sim/digest.hpp"
#include "sim/model.hpp"
#include "sim/payload.hpp"
#include "sim/schedulers.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

namespace ksa {
namespace {

// ---------------------------------------------------------------- payload

TEST(Payload, RenderingIsCanonical) {
    Payload p = make_payload("S2", {3, 7}, {{1, 2}, {4}});
    EXPECT_EQ(p.to_string(), "S2(3,7|[1,2],[4])");
    EXPECT_EQ(make_payload("S1", {5}).to_string(), "S1(5)");
    EXPECT_EQ(make_payload("PING").to_string(), "PING()");
}

TEST(Payload, RenderingKeepsSignsAndEmptyLists) {
    const Payload p = make_payload("E", {-3, 0, 2147483647, -2147483647 - 1},
                                   {{}, {-1, 5}, {}});
    EXPECT_EQ(p.to_string(), "E(-3,0,2147483647,-2147483648|[],[-1,5],[])");
    EXPECT_EQ(make_payload("L", {}, {{}}).to_string(), "L(|[])");
    EXPECT_EQ(make_payload("", {-40}).to_string(), "(-40)");
}

TEST(Payload, EqualityIsStructural) {
    EXPECT_EQ(make_payload("A", {1}), make_payload("A", {1}));
    EXPECT_NE(make_payload("A", {1}), make_payload("A", {2}));
    EXPECT_NE(make_payload("A", {1}), make_payload("B", {1}));
}

TEST(Message, ContentEqualityIgnoresIdentity) {
    Message a{1, 2, 3, 10, make_payload("T", {1})};
    Message b{99, 2, 3, 55, make_payload("T", {1})};
    EXPECT_TRUE(content_equal(a, b));
    EXPECT_EQ(a.to_string(), "2->3:T(1)");
}

TEST(SharedPayload, CopiesShareOneBody) {
    const SharedPayload a = make_payload("S2", {3, 7}, {{1, 2}});
    const SharedPayload b = a;
    EXPECT_TRUE(b.same_body(a));
    EXPECT_EQ(&*b, &*a);
    EXPECT_EQ(b->to_string(), "S2(3,7|[1,2])");
    // A message copy shares its payload body too.
    const Message m{1, 2, 3, 10, a};
    const Message copy = m;
    EXPECT_TRUE(copy.payload.same_body(a));
}

TEST(SharedPayload, DistinctBodiesCompareByContent) {
    const SharedPayload a = make_payload("T", {1}, {{2}});
    const SharedPayload b = make_payload("T", {1}, {{2}});
    EXPECT_FALSE(a.same_body(b));
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a == SharedPayload(make_payload("T", {1}, {{3}})));
    EXPECT_TRUE(content_equal(Message{1, 2, 3, 10, a},
                              Message{9, 2, 3, 55, b}));
    EXPECT_FALSE(content_equal(Message{1, 2, 3, 10, a},
                               Message{1, 2, 3, 10, make_payload("T", {1})}));
}

TEST(SharedPayload, DefaultHandleReadsAsEmptyPayload) {
    const SharedPayload empty;
    EXPECT_EQ(*empty, Payload{});
    EXPECT_EQ(empty->to_string(), "()");
    EXPECT_TRUE(empty == SharedPayload(Payload{}));
    EXPECT_FALSE(empty.same_body(SharedPayload(Payload{})));
    EXPECT_TRUE(empty.same_body(SharedPayload{}));
    EXPECT_EQ(Message{}.to_string(), "0->0:()");
}

// ------------------------------------------------------------ state hasher

Digest128 digest_of_words(const std::vector<std::uint64_t>& words) {
    StateHasher h;
    for (std::uint64_t w : words) h.u64(w);
    return h.digest();
}

// Every dedup and canonical key is a StateHasher digest, so these pin
// the hash function itself: a change to it changes every key (and the
// store's filter counters) and must say so.
TEST(StateHasher, KnownAnswers) {
    const auto expect_digest = [](const StateHasher& h, std::uint64_t hi,
                                  std::uint64_t lo) {
        EXPECT_EQ(h.digest(), (Digest128{hi, lo}))
                << h.digest().to_string();
    };
    StateHasher h;
    expect_digest(h, 0x893f92fbbc557e6aull, 0x6bc0810cc751a61bull);
    h.u64(0);
    expect_digest(h, 0x5f16df43f6d575beull, 0xcfc098c3c693f402ull);
    h.reset();
    h.i64(-1);
    expect_digest(h, 0x24f7a9ed46272d08ull, 0xa9c5ad81fb15a00eull);
    h.reset();
    h.str("IC");
    expect_digest(h, 0x289a3dde5a57ca05ull, 0xd1eeb726cda6b405ull);
    h.reset();
    h.fold(Digest128{0x0123456789abcdefull, 0xfedcba9876543210ull});
    expect_digest(h, 0xa21f070761a4a131ull, 0x8ffa8c66282d338cull);
    h.reset();
    make_payload("E", {1, 2}, {{3}}).fold(h);
    expect_digest(h, 0x0a2659b32e5d13a8ull, 0xa9f62180e0ec7de1ull);
}

TEST(StateHasher, BoundaryRules) {
    // u64(v) absorbs exactly bytes() of v's little-endian bytes, on
    // every host; a short tail is one zero-padded word.
    for (const std::uint64_t v :
         {0ull, 1ull, 0x0102030405060708ull, ~0ull}) {
        std::array<unsigned char, 8> le{};
        for (std::size_t i = 0; i < le.size(); ++i)
            le[i] = static_cast<unsigned char>(v >> (8 * i));
        StateHasher a, b;
        a.u64(v);
        b.bytes(le.data(), le.size());
        EXPECT_EQ(a.digest(), b.digest()) << v;
    }
    const unsigned char eleven[11] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
    StateHasher chunked;
    chunked.bytes(eleven, sizeof eleven);
    EXPECT_EQ(chunked.digest(),
              digest_of_words({0x0807060504030201ull, 0x0b0a09ull}));

    // The length prefix separates what zero padding and concatenation
    // would merge.
    StateHasher ab_c, a_bc;
    ab_c.str("ab");
    ab_c.str("c");
    a_bc.str("a");
    a_bc.str("bc");
    EXPECT_NE(ab_c.digest(), a_bc.digest());
    StateHasher empty_str, none;
    empty_str.str("");
    EXPECT_NE(empty_str.digest(), none.digest());
    StateHasher a, a_nul;
    a.str(std::string("a"));
    a_nul.str(std::string("a\0", 2));
    EXPECT_NE(a.digest(), a_nul.digest());

    StateHasher reused;
    reused.str("state");
    reused.i64(-7);
    reused.reset();
    EXPECT_EQ(reused.digest(), StateHasher{}.digest());
    reused.u64(42);
    EXPECT_EQ(reused.digest(), digest_of_words({42}));
}

// Each lane update is a bijection of the lane state for a fixed word
// and of the word for a fixed state, so streams of equal length that
// differ in one word differ in both halves.
TEST(StateHasher, OneWordChangeNeverCollidesInEitherHalf) {
    std::mt19937_64 rng(20110411);
    std::vector<std::uint64_t> words;
    for (int trial = 0; trial < 100000; ++trial) {
        words.resize(1 + rng() % 8);
        for (std::uint64_t& w : words)
            w = rng() % 2 == 0 ? rng() % 16 : rng();  // small ids too
        const Digest128 before = digest_of_words(words);
        std::uint64_t& changed = words[rng() % words.size()];
        changed ^= rng() % 2 == 0 ? 1 + rng() % 8 : rng() | 1;
        const Digest128 after = digest_of_words(words);
        ASSERT_NE(before.hi, after.hi) << "trial " << trial;
        ASSERT_NE(before.lo, after.lo) << "trial " << trial;
    }
}

// Key words are mostly small integers: every 1-word stream below 2^20
// and every 2-word stream below 2^10 (about 2.1 M digests) must give
// distinct values in each 64-bit half on its own.
TEST(StateHasher, SmallStreamsAreDistinctInEachHalf) {
    std::vector<std::uint64_t> hi, lo;
    const auto add = [&](const Digest128& d) {
        hi.push_back(d.hi);
        lo.push_back(d.lo);
    };
    for (std::uint64_t v = 0; v < (1u << 20); ++v) add(digest_of_words({v}));
    for (std::uint64_t v = 0; v < (1u << 10); ++v)
        for (std::uint64_t w = 0; w < (1u << 10); ++w)
            add(digest_of_words({v, w}));
    for (std::vector<std::uint64_t>* half : {&hi, &lo}) {
        std::sort(half->begin(), half->end());
        EXPECT_EQ(std::adjacent_find(half->begin(), half->end()),
                  half->end());
    }
}

// Flipping any input bit of a 4-word stream flips each of the 128
// output bits with probability near 1/2.
TEST(StateHasher, Avalanche) {
    constexpr int kStreams = 2000;
    constexpr int kWords = 4;
    constexpr int kInBits = 64 * kWords;
    std::vector<int> flips(static_cast<std::size_t>(kInBits) * 128, 0);
    std::mt19937_64 rng(7);
    std::vector<std::uint64_t> words(kWords);
    for (int s = 0; s < kStreams; ++s) {
        for (std::uint64_t& w : words) w = rng() & 0xffff;
        const Digest128 base = digest_of_words(words);
        for (int bit = 0; bit < kInBits; ++bit) {
            words[bit / 64] ^= std::uint64_t{1} << (bit % 64);
            const Digest128 d = digest_of_words(words);
            words[bit / 64] ^= std::uint64_t{1} << (bit % 64);
            const std::uint64_t diff[2] = {d.hi ^ base.hi, d.lo ^ base.lo};
            for (int out = 0; out < 128; ++out)
                flips[static_cast<std::size_t>(bit) * 128 + out] +=
                        static_cast<int>((diff[out / 64] >> (out % 64)) & 1);
        }
    }
    const auto [lo, hi] = std::minmax_element(flips.begin(), flips.end());
    EXPECT_GE(*lo, kStreams * 40 / 100);
    EXPECT_LE(*hi, kStreams * 60 / 100);
}

// ------------------------------------------------------------ failure plan

TEST(FailurePlan, BasicQueries) {
    FailurePlan plan;
    plan.set_initially_dead(2);
    plan.set_crash(4, CrashSpec{3, {1, 5}});
    EXPECT_TRUE(plan.is_faulty(2));
    EXPECT_TRUE(plan.is_initially_dead(2));
    EXPECT_TRUE(plan.is_faulty(4));
    EXPECT_FALSE(plan.is_initially_dead(4));
    EXPECT_FALSE(plan.is_faulty(1));
    EXPECT_EQ(plan.allowed_steps(4), 3);
    EXPECT_EQ(plan.allowed_steps(1), -1);
    EXPECT_EQ(plan.num_faulty(), 2);
    EXPECT_EQ(plan.correct(5), (std::vector<ProcessId>{1, 3, 5}));
    EXPECT_EQ(plan.faulty(), (std::set<ProcessId>{2, 4}));
}

TEST(FailurePlan, SpecThrowsForCorrectProcess) {
    FailurePlan plan;
    EXPECT_THROW(plan.spec(1), UsageError);
}

// ---------------------------------------------------------------- system

TEST(System, TrivialAlgorithmDecidesOwnValues) {
    algo::TrivialWaitFree algorithm;
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 4, distinct_inputs(4), {}, rr);
    EXPECT_EQ(run.stop, StopReason::kQuiescent);
    for (ProcessId p = 1; p <= 4; ++p) EXPECT_EQ(run.decision_of(p), p);
    EXPECT_EQ(run.distinct_decisions().size(), 4u);
}

TEST(System, RejectsWrongInputCount) {
    algo::TrivialWaitFree algorithm;
    EXPECT_THROW(System(algorithm, 3, {1, 2}, {}), UsageError);
}

TEST(System, InitiallyDeadNeverSteps) {
    algo::TrivialWaitFree algorithm;
    FailurePlan plan;
    plan.set_initially_dead(2);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), plan, rr);
    EXPECT_EQ(run.steps_of(2), 0);
    EXPECT_FALSE(run.decision_of(2).has_value());
    EXPECT_TRUE(run.decision_of(1).has_value());
    EXPECT_EQ(run.crash_time_of(2), 1);
}

TEST(System, CrashPlanIsRealizedExactly) {
    algo::FloodingKSet algorithm(3);  // n=4, threshold 3
    FailurePlan plan;
    plan.set_crash(4, CrashSpec{2, {}});
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 4, distinct_inputs(4), plan, rr);
    EXPECT_EQ(run.steps_of(4), 2);
    EXPECT_NE(run.crash_time_of(4), kNever);
    AdmissibilityReport adm = check_admissibility(run);
    EXPECT_TRUE(adm.admissible) << run_summary(run);
}

TEST(System, OmitToDropsFinalStepSends) {
    // Process 1 crashes after its first step (the broadcast), omitting
    // its proposal to process 2 but not to process 3.
    algo::FloodingKSet algorithm(2);  // n=3, threshold 2
    FailurePlan plan;
    plan.set_crash(1, CrashSpec{1, {2}});
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), plan, rr);
    // p3 saw x1 and decides min(1,3)=1 or min over first 2 seen; p2 never
    // saw x1 so its minimum is 2 or min(2,3).
    ASSERT_TRUE(run.decision_of(3).has_value());
    ASSERT_TRUE(run.decision_of(2).has_value());
    EXPECT_EQ(*run.decision_of(3), 1);
    EXPECT_NE(*run.decision_of(2), 1);
    // The omitted message is recorded.
    bool omitted_seen = false;
    for (const StepRecord& s : run.steps)
        for (const Message& m : s.omitted)
            if (m.to == 2) omitted_seen = true;
    EXPECT_TRUE(omitted_seen);
}

TEST(System, DecidingTwiceAborts) {
    // A malicious behavior that decides twice.
    class Bad final : public Behavior {
    public:
        StepOutput on_step(const StepInput&) override {
            StepOutput out;
            out.decision = 1;
            return out;
        }
        std::string state_digest() const override { return "bad"; }
        std::unique_ptr<Behavior> clone() const override {
            return std::make_unique<Bad>(*this);
        }
    };
    class BadAlgo final : public Algorithm {
    public:
        std::unique_ptr<Behavior> make_behavior(ProcessId, int,
                                                Value) const override {
            return std::make_unique<Bad>();
        }
        std::string name() const override { return "bad"; }
    };
    BadAlgo algorithm;
    System sys(algorithm, 1, {1}, {});
    StepChoice c;
    c.process = 1;
    sys.apply_choice(c);
    EXPECT_THROW(sys.apply_choice(c), UsageError);
}

TEST(System, StepChoiceValidation) {
    algo::TrivialWaitFree algorithm;
    System sys(algorithm, 2, {1, 2}, {});
    StepChoice bad;
    bad.process = 7;
    EXPECT_THROW(sys.apply_choice(bad), UsageError);
    StepChoice ghost;
    ghost.process = 1;
    ghost.deliver.push_back(12345);  // no such message
    EXPECT_THROW(sys.apply_choice(ghost), UsageError);
}

TEST(System, DeterministicReplay) {
    algo::FloodingKSet algorithm(3);
    RoundRobinScheduler rr1, rr2;
    ksa::Run a = execute_run(algorithm, 4, distinct_inputs(4), {}, rr1);
    ksa::Run b = execute_run(algorithm, 4, distinct_inputs(4), {}, rr2);
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
        EXPECT_EQ(a.steps[i].process, b.steps[i].process);
        EXPECT_EQ(a.steps[i].digest_after, b.steps[i].digest_after);
    }
}

// The fork() contract: a snapshot taken mid-run is (a) independent of
// the original and (b) indistinguishable from it under any identical
// continuation -- the same further choices yield bit-identical digests,
// decisions and step records.  This is the primitive the snapshot
// explorer's correctness rests on (doc/performance.md).
TEST(System, ForkRoundTrip) {
    algo::FloodingKSet algorithm(2);
    System original(algorithm, 3, distinct_inputs(3), {});

    auto step_all = [](System& sys) {
        for (ProcessId p = 1; p <= 3; ++p) {
            StepChoice choice;
            choice.process = p;
            choice.deliver_all = true;
            sys.apply_choice(choice);
        }
    };

    step_all(original);  // mid-run: announcements still in flight to p1
    auto forked = original.fork(/*verify_digests=*/true);

    // The snapshot is digest-identical at the fork point...
    for (ProcessId p = 1; p <= 3; ++p) {
        EXPECT_EQ(forked->last_digest(p), original.last_digest(p));
        EXPECT_EQ(forked->buffer(p).size(), original.buffer(p).size());
        EXPECT_EQ(forked->steps_of(p), original.steps_of(p));
    }
    EXPECT_EQ(forked->now(), original.now());

    // ...and stays identical under the same continuation.
    step_all(original);
    step_all(*forked);
    for (ProcessId p = 1; p <= 3; ++p) {
        EXPECT_EQ(forked->last_digest(p), original.last_digest(p));
        EXPECT_EQ(forked->decision_of(p), original.decision_of(p));
    }

    ksa::Run run_a = original.finish(StopReason::kQuiescent);
    ksa::Run run_b = forked->finish(StopReason::kQuiescent);
    ASSERT_EQ(run_a.steps.size(), run_b.steps.size());
    for (std::size_t i = 0; i < run_a.steps.size(); ++i) {
        EXPECT_EQ(run_a.steps[i].process, run_b.steps[i].process);
        EXPECT_EQ(run_a.steps[i].digest_after, run_b.steps[i].digest_after);
    }
    EXPECT_EQ(run_a.distinct_decisions(), run_b.distinct_decisions());
}

/// Every piece of state a later step can observe, field by field:
/// buffers (ids, senders, receivers, send times, payloads), behavior
/// digests, step counts, crash flags, decisions and global time.
void expect_same_state(const System& a, const System& b,
                       const std::string& label) {
    ASSERT_EQ(a.n(), b.n()) << label;
    EXPECT_EQ(a.now(), b.now()) << label;
    for (ProcessId p = 1; p <= a.n(); ++p) {
        EXPECT_EQ(a.last_digest(p), b.last_digest(p)) << label << " p" << p;
        EXPECT_EQ(a.steps_of(p), b.steps_of(p)) << label << " p" << p;
        EXPECT_EQ(a.crashed(p), b.crashed(p)) << label << " p" << p;
        EXPECT_EQ(a.decision_of(p), b.decision_of(p)) << label << " p" << p;
        const auto& x = a.buffer(p);
        const auto& y = b.buffer(p);
        ASSERT_EQ(x.size(), y.size()) << label << " buffer of p" << p;
        for (std::size_t i = 0; i < x.size(); ++i) {
            EXPECT_EQ(x[i].id, y[i].id) << label << " p" << p;
            EXPECT_EQ(x[i].from, y[i].from) << label << " p" << p;
            EXPECT_EQ(x[i].to, y[i].to) << label << " p" << p;
            EXPECT_EQ(x[i].sent_at, y[i].sent_at) << label << " p" << p;
            EXPECT_TRUE(x[i].payload == y[i].payload) << label << " p" << p;
        }
    }
}

/// Steps every live process once, delivering its whole buffer, on both
/// systems, then compares them: state the public view does not show
/// (the message-id counter above all) surfaces in the continuation.
void continue_both(System& a, System& b, const std::string& label) {
    for (ProcessId p = 1; p <= a.n(); ++p) {
        if (!a.can_step(p)) continue;
        StepChoice choice;
        choice.process = p;
        choice.deliver_all = true;
        a.apply_choice(choice);
        b.apply_choice(choice);
    }
    expect_same_state(a, b, label + " + continuation");
}

/// The undoable-step configurations: the initial-clique protocol with
/// and without a crash whose final step omits sends, and flooding with
/// a crash in its second step.
struct UndoConfig {
    std::string name;
    std::unique_ptr<Algorithm> algorithm;
    int n = 0;
    FailurePlan plan;
};

std::vector<UndoConfig> undo_configs() {
    std::vector<UndoConfig> configs;
    configs.push_back({"flp(4,1)", algo::make_flp_kset(4, 1), 4, {}});
    FailurePlan omit;
    omit.set_crash(3, CrashSpec{1, {1, 2}});
    configs.push_back({"flp(4,1)+crash", algo::make_flp_kset(4, 1), 4, omit});
    FailurePlan late;
    late.set_crash(1, CrashSpec{2, {2}});
    configs.push_back(
            {"flooding+crash", std::make_unique<algo::FloodingKSet>(2), 3, late});
    return configs;
}

// The step_undoable / undo_step contract: a step is exactly what
// apply_choice(prefix_choice(...)) does, and its undo restores every
// buffer, behavior, flag and counter, so that a System carried up and
// down a trail of undone steps stays bit-identical to one that only
// ever stepped forward.  The steps tried at each walk state are the
// explorer's (core::prefix_menu).  Each walk step also checks the fork
// contract kReference rests on, against a System that never forks:
// fork(false) plus the walk's apply_choice lands on the same state as
// `shadow`, which only ever stepped forward from the root along the
// walk.
TEST(System, UndoStepRestoresTheExactState) {
    int undone_decisions = 0;
    int undone_crashes = 0;
    int undone_omissions = 0;
    for (const UndoConfig& c : undo_configs()) {
        for (const std::uint64_t seed : {3u, 17u, 42u}) {
            const std::string run =
                    c.name + " seed " + std::to_string(seed);
            System sys(*c.algorithm, c.n, distinct_inputs(c.n), c.plan);
            System shadow(*c.algorithm, c.n, distinct_inputs(c.n), c.plan);
            sys.set_recording(false);
            shadow.set_recording(false);
            RandomScheduler walk(seed);
            StepUndo undo;  // one capture, reused by every step
            for (int t = 0; t < 40; ++t) {
                for (ProcessId p = 1; p <= c.n; ++p) {
                    for (const std::size_t count : core::prefix_menu(sys, p)) {
                        const std::string label =
                                run + " t" + std::to_string(t) + " p" +
                                std::to_string(p) + " deliver " +
                                std::to_string(count);
                        const auto before = sys.fork(false);
                        const auto recorded = sys.fork(false);
                        recorded->apply_choice(
                                recorded->prefix_choice(p, count));
                        sys.step_undoable(p, count, undo);
                        expect_same_state(sys, *recorded, label + " step");
                        if (sys.decision_of(p) && !before->decision_of(p))
                            ++undone_decisions;
                        if (sys.crashed(p)) {
                            ++undone_crashes;
                            if (!c.plan.spec(p).omit_to.empty())
                                ++undone_omissions;
                        }
                        const auto stepped = sys.fork(false);
                        continue_both(*stepped, *recorded, label + " step");
                        sys.undo_step(undo);
                        expect_same_state(sys, *before, label + " undo");
                    }
                }
                const std::optional<StepChoice> choice = walk.next(sys);
                if (!choice) break;
                const auto forked = sys.fork(false);
                forked->apply_choice(*choice);
                sys.apply_choice(*choice);
                shadow.apply_choice(*choice);
                expect_same_state(sys, shadow, run + " walk");
                expect_same_state(*forked, shadow, run + " fork + walk step");
            }
            continue_both(sys, shadow, run + " end");
        }
    }
    EXPECT_GT(undone_decisions, 0);
    EXPECT_GT(undone_crashes, 0);
    EXPECT_GT(undone_omissions, 0);

    // Preconditions: a recorded step cannot be undone.
    algo::FloodingKSet flooding(2);
    System recording(flooding, 3, distinct_inputs(3), {});
    StepUndo undo;
    EXPECT_THROW(recording.step_undoable(1, 0, undo), UsageError);
}

// k undoable steps, then k undos newest first: each undo lands exactly
// on the state before its step.  Undos out of order are refused.
TEST(System, UndoStepsUnwindInLifoOrder) {
    for (const UndoConfig& c : undo_configs()) {
        for (const std::uint64_t seed : {5u, 9u}) {
            const std::string run =
                    c.name + " seed " + std::to_string(seed);
            System sys(*c.algorithm, c.n, distinct_inputs(c.n), c.plan);
            sys.set_recording(false);
            RandomScheduler walk(seed);
            constexpr std::size_t kSteps = 12;
            std::vector<std::unique_ptr<System>> before;
            std::vector<StepUndo> undos(kSteps);
            for (std::size_t i = 0; i < kSteps; ++i) {
                const std::optional<StepChoice> choice = walk.next(sys);
                if (!choice) break;
                const ProcessId p = choice->process;
                const core::PrefixMenu menu = core::prefix_menu(sys, p);
                ASSERT_GT(menu.size, 0u) << run;
                before.push_back(sys.fork(false));
                sys.step_undoable(p, menu.prefix[i % menu.size], undos[i]);
            }
            const std::size_t k = before.size();
            ASSERT_GT(k, 1u) << run;
            EXPECT_THROW(sys.undo_step(undos[0]), UsageError) << run;
            for (std::size_t i = k; i-- > 0;) {
                sys.undo_step(undos[i]);
                expect_same_state(sys, *before[i],
                                  run + " undo " + std::to_string(i));
            }
            // Each capture is spent once undone.
            EXPECT_THROW(sys.undo_step(undos[0]), UsageError) << run;
            continue_both(sys, *before[0], run + " root");
        }
    }
}

// Under Policy::kCount a violated precondition is counted and the call
// carries on, so the undoable step must stay memory-safe: an over-long
// prefix delivers the whole buffer, and a spent capture undoes nothing.
TEST(System, UndoableStepIsMemorySafeUnderTheCountPolicy) {
    check::PolicyGuard guard(check::Policy::kCount);
    algo::FloodingKSet algorithm(2);
    System sys(algorithm, 3, distinct_inputs(3), {});
    sys.set_recording(false);
    const auto before = sys.fork(false);
    StepUndo undo;
    sys.step_undoable(1, 5, undo);  // p1's buffer is empty
    EXPECT_EQ(check::violation_count(), 1u);
    sys.undo_step(undo);
    expect_same_state(sys, *before, "over-long prefix");
    sys.undo_step(undo);
    EXPECT_EQ(check::violation_count(), 2u);
    expect_same_state(sys, *before, "spent capture");
}

TEST(System, ForkIsIndependentOfTheOriginal) {
    algo::FloodingKSet algorithm(2);
    System original(algorithm, 3, distinct_inputs(3), {});
    StepChoice first;
    first.process = 1;
    first.deliver_all = true;
    original.apply_choice(first);

    auto forked = original.fork();
    const std::string digest_before = original.last_digest(2);
    const std::size_t buffered_before = original.buffer(2).size();

    // Drive only the fork; the original must not move.
    for (ProcessId p = 1; p <= 3; ++p) {
        StepChoice choice;
        choice.process = p;
        choice.deliver_all = true;
        forked->apply_choice(choice);
    }
    EXPECT_EQ(original.last_digest(2), digest_before);
    EXPECT_EQ(original.buffer(2).size(), buffered_before);
    EXPECT_FALSE(original.decided(2));
    EXPECT_NE(forked->last_digest(2), digest_before);  // the fork did move
}

// -------------------------------------------------------------- schedulers

TEST(RoundRobin, DrainsAllBuffersBeforeStopping) {
    algo::FloodingKSet algorithm(2);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), {}, rr);
    EXPECT_EQ(run.stop, StopReason::kQuiescent);
    for (ProcessId p = 1; p <= 3; ++p)
        EXPECT_TRUE(run.undelivered_to(p).empty());
}

TEST(RandomScheduler, IsFairAndDeterministicPerSeed) {
    algo::FloodingKSet algorithm(4);
    RandomScheduler s1(123), s2(123), s3(321);
    ksa::Run a = execute_run(algorithm, 5, distinct_inputs(5), {}, s1);
    ksa::Run b = execute_run(algorithm, 5, distinct_inputs(5), {}, s2);
    ksa::Run c = execute_run(algorithm, 5, distinct_inputs(5), {}, s3);
    EXPECT_EQ(a.steps.size(), b.steps.size());
    EXPECT_EQ(a.distinct_decisions(), b.distinct_decisions());
    EXPECT_EQ(a.stop, StopReason::kQuiescent);
    EXPECT_EQ(c.stop, StopReason::kQuiescent);
}

TEST(PartitionScheduler, IsolatesBlocksUntilDecision) {
    algo::FloodingKSet algorithm(2);  // n=4, threshold 2
    PartitionScheduler sched({{1, 2}, {3, 4}});
    ksa::Run run = execute_run(algorithm, 4, distinct_inputs(4), {}, sched);
    EXPECT_TRUE(sched.stalled_blocks().empty());
    // Block {1,2} decides min(1,2)=1; block {3,4} decides min(3,4)=3.
    EXPECT_EQ(*run.decision_of(1), 1);
    EXPECT_EQ(*run.decision_of(2), 1);
    EXPECT_EQ(*run.decision_of(3), 3);
    EXPECT_EQ(*run.decision_of(4), 3);
    // No cross-block reception before the release time.
    EXPECT_TRUE(run.silent_from_until(1, {3, 4}, sched.release_time()));
    EXPECT_TRUE(run.silent_from_until(3, {1, 2}, sched.release_time()));
    // Admissible: delayed messages were eventually delivered.
    EXPECT_TRUE(check_admissibility(run).admissible);
}

TEST(PartitionScheduler, ReportsStalledBlocks) {
    algo::FloodingKSet algorithm(3);  // n=4, threshold 3: block of 2 stalls
    PartitionScheduler sched({{1, 2}}, 50);
    ksa::Run run = execute_run(algorithm, 4, distinct_inputs(4), {}, sched);
    EXPECT_EQ(sched.stalled_blocks(), std::vector<int>{0});
    // After release everyone decides (threshold reachable system-wide).
    EXPECT_TRUE(run.all_correct_decided());
}

TEST(StagedScheduler, FilterControlsDeliveryByPayload) {
    // Hold back every message whose tag is "VAL" from reaching p2.
    algo::FloodingKSet algorithm(1);  // decide immediately on own value
    StagedScheduler::Stage stage;
    stage.active = {1, 2, 3};
    stage.filter = [](const Message& m, ProcessId dest) {
        return !(dest == 2 && m.payload->tag == "VAL");
    };
    StagedScheduler sched({stage});
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), {}, sched);
    EXPECT_TRUE(run.all_correct_decided());
    // p2 received nothing before release.
    EXPECT_TRUE(run.silent_from_until(2, {1, 3}, sched.release_time()));
}

TEST(ScriptedScheduler, ReplaysExactly) {
    algo::TrivialWaitFree algorithm;
    std::vector<StepChoice> script;
    StepChoice c1;
    c1.process = 2;
    StepChoice c2;
    c2.process = 1;
    script.push_back(c1);
    script.push_back(c2);
    ScriptedScheduler sched(script);
    System sys(algorithm, 2, {10, 20}, {});
    ksa::Run run = sys.execute(sched);
    ASSERT_EQ(run.steps.size(), 2u);
    EXPECT_EQ(run.steps[0].process, 2);
    EXPECT_EQ(run.steps[1].process, 1);
}

// ----------------------------------------------------------- admissibility

TEST(Admissibility, StepLimitIsInconclusive) {
    // Flooding with threshold 4 in a 4-process system where one process
    // is dead can never decide: the run hits the step limit.
    algo::FloodingKSet algorithm(4);
    FailurePlan plan;
    plan.set_initially_dead(4);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 4, distinct_inputs(4), plan, rr,
                          nullptr, {.max_steps = 500});
    EXPECT_EQ(run.stop, StopReason::kStepLimit);
    AdmissibilityReport adm = check_admissibility(run);
    EXPECT_FALSE(adm.conclusive);
}

TEST(Admissibility, FlagsUndeliveredMessages) {
    // A scheduler that stops early leaves messages undelivered.
    algo::FloodingKSet algorithm(2);
    std::vector<StepChoice> script;
    StepChoice c;
    c.process = 1;
    script.push_back(c);  // p1 broadcasts, then we stop
    ScriptedScheduler sched(script);
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), {}, sched);
    AdmissibilityReport adm = check_admissibility(run);
    EXPECT_FALSE(adm.admissible);
    EXPECT_FALSE(adm.violations.empty());
}

// ----------------------------------------------------- run queries / Def 2

TEST(Run, DigestSequencesAndIndistinguishability) {
    algo::FloodingKSet algorithm(2);
    // Run A: p3 dead.  Run B: p3 alive but silenced until 1,2 decide.
    FailurePlan plan_a;
    plan_a.set_initially_dead(3);
    RoundRobinScheduler rr;
    ksa::Run a = execute_run(algorithm, 3, distinct_inputs(3), plan_a, rr);

    PartitionScheduler part({{1, 2}});
    ksa::Run b = execute_run(algorithm, 3, distinct_inputs(3), {}, part);

    EXPECT_TRUE(indistinguishable_for(a, b, 1));
    EXPECT_TRUE(indistinguishable_for(a, b, 2));
    EXPECT_TRUE(indistinguishable_for_all(a, b, {1, 2}));
    // p3's experience differs radically (dead vs deciding).
    EXPECT_FALSE(indistinguishable_for(a, b, 3));
}

TEST(Run, ReceptionQueries) {
    algo::FloodingKSet algorithm(3);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), {}, rr);
    auto times = run.receptions_from(1, {2, 3});
    EXPECT_FALSE(times.empty());
    EXPECT_FALSE(run.silent_from_until(1, {2, 3}, kNever));
    EXPECT_TRUE(run.silent_from_until(1, {2, 3}, times.front()));
}

TEST(Run, DistinctDecisionsByGroup) {
    algo::TrivialWaitFree algorithm;
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 4, {5, 5, 7, 7}, {}, rr);
    EXPECT_EQ(run.distinct_decisions().size(), 2u);
    EXPECT_EQ(run.distinct_decisions({1, 2}).size(), 1u);
    EXPECT_EQ(run.distinct_decisions({2, 3}).size(), 2u);
}

// ------------------------------------------------------------------ model

TEST(Model, DescriptorsAndClassification) {
    ModelDescriptor masync = ModelDescriptor::asynchronous();
    EXPECT_FALSE(consensus_solvable_with_one_crash(masync));

    ModelDescriptor t2 = ModelDescriptor::theorem2();
    EXPECT_FALSE(consensus_solvable_with_one_crash(t2));

    ModelDescriptor sync = t2;
    sync.communication = CommSync::kSynchronous;
    EXPECT_TRUE(consensus_solvable_with_one_crash(sync));

    ModelDescriptor ordered = masync;
    ordered.order = MessageOrder::kOrdered;
    ordered.transmission = Transmission::kBroadcast;
    EXPECT_TRUE(consensus_solvable_with_one_crash(ordered));

    EXPECT_NE(masync.to_string(), t2.to_string());
    EXPECT_THROW(
        consensus_solvable_with_one_crash(ModelDescriptor::asynchronous_with_fd()),
        UsageError);
}

TEST(Trace, SummaryAndFullTraceRender) {
    algo::TrivialWaitFree algorithm;
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 2, {4, 9}, {}, rr);
    std::string summary = run_summary(run);
    EXPECT_NE(summary.find("trivial-wait-free"), std::string::npos);
    EXPECT_NE(summary.find("p1:4"), std::string::npos);
    std::string full = trace_string(run);
    EXPECT_NE(full.find("DECIDE"), std::string::npos);
}

}  // namespace
}  // namespace ksa
