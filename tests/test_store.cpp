// Tests for the out-of-core exploration store (src/store/): the bloom
// tier's no-false-negative guarantee, exact-tier equivalence against a
// std::set reference, batch-dedup determinism across thread and shard
// counts, the KSASPILL-1 delta spill round-trip and the spill reader's
// block cache (tail refills, a truncated file, fetch counts), delta
// replay on the undo trail (Rematerializer) equivalence against direct
// apply_choice replay, System::fork() round-trips under live Byzantine
// fault injection, and end-to-end exploration byte-identity under
// forced spill.
//
// doc/performance.md §6 describes the store; the determinism argument
// tested here is the one stated at the top of store/visited_store.hpp:
// shard ownership plus ascending-index per-shard insertion order makes
// every batch verdict byte-identical to sequential insertion.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algo/flooding.hpp"
#include "algo/initial_clique.hpp"
#include "core/explorer.hpp"
#include "exec/task_scheduler.hpp"
#include "sim/byzantine.hpp"
#include "sim/digest.hpp"
#include "sim/message.hpp"
#include "sim/payload.hpp"
#include "sim/system.hpp"
#include "store/delta_store.hpp"
#include "store/rematerialize.hpp"
#include "store/visited_store.hpp"

namespace ksa::store {
namespace {

/// Deterministic pseudo-random key stream: key(i) is the digest of i,
/// key_dup(i, m) collides on purpose every m-th index so batches carry
/// within-batch duplicates.
Digest128 key_of(std::uint64_t i) {
    StateHasher h;
    h.u64(i);
    h.u64(i * 0x9e3779b97f4a7c15ull);
    return h.digest();
}

// ------------------------------------------------------------ bloom

TEST(BloomFilter, NeverForgetsAnInsertedKey) {
    BloomFilter filter(4096);
    for (std::uint64_t i = 0; i < 2000; ++i) filter.insert(key_of(i));
    for (std::uint64_t i = 0; i < 2000; ++i)
        EXPECT_TRUE(filter.maybe_contains(key_of(i))) << "key " << i;
}

TEST(BloomFilter, RejectsMostAbsentKeysAtDesignLoad) {
    // ~10 bits/key: the false-positive rate must be well under 10%
    // (design target ~1%; the margin keeps the test robust).
    const std::size_t kKeys = 1000;
    BloomFilter filter(kKeys * 10);
    for (std::uint64_t i = 0; i < kKeys; ++i) filter.insert(key_of(i));
    std::size_t fp = 0;
    for (std::uint64_t i = kKeys; i < 2 * kKeys; ++i)
        if (filter.maybe_contains(key_of(i))) ++fp;
    EXPECT_LT(fp, kKeys / 10) << "false-positive rate out of control";
}

// ----------------------------------------------- exact-tier equivalence

TEST(ShardedVisitedStore, MatchesSetReferenceSequentially) {
    for (const int shard_bits : {0, 3}) {
        for (const int filter_bits : {0, 10}) {
            StoreOptions opt;
            opt.shard_bits = shard_bits;
            opt.filter_bits_per_key = filter_bits;
            ShardedVisitedStore store(opt);
            std::set<Digest128> reference;
            // Every 7th key repeats an earlier one; key 0 exercises the
            // all-zero sentinel path.
            for (std::uint64_t i = 0; i < 5000; ++i) {
                const Digest128 key =
                        i % 7 == 0 ? (i % 14 == 0 ? Digest128{} : key_of(i / 7))
                                   : key_of(i);
                EXPECT_EQ(store.insert(key), reference.insert(key).second)
                        << "insert " << i << " shard_bits=" << shard_bits
                        << " filter=" << filter_bits;
            }
            EXPECT_EQ(store.size(), reference.size());
            for (std::uint64_t i = 0; i < 6000; ++i) {
                const Digest128 key = key_of(i);
                EXPECT_EQ(store.contains(key), reference.count(key) != 0)
                        << "contains " << i;
            }
            EXPECT_TRUE(store.contains(Digest128{}));
        }
    }
}

TEST(ShardedVisitedStore, FilterCountersPartitionTheInsertions) {
    StoreOptions opt;
    opt.shard_bits = 2;
    opt.filter_bits_per_key = 10;
    ShardedVisitedStore store(opt);
    std::size_t new_keys = 0;
    for (std::uint64_t i = 0; i < 3000; ++i)
        if (store.insert(key_of(i % 2000))) ++new_keys;
    EXPECT_EQ(new_keys, 2000u);
    const VisitedStats st = store.stats();
    EXPECT_EQ(st.size, 2000u);
    EXPECT_EQ(st.shards, 4u);
    // Every genuinely new non-zero key went through exactly one of the
    // two filter paths: "definitely new" or "false positive".
    EXPECT_EQ(st.filter_negatives + st.filter_false_positives, 2000u);
    // At 10 bits/key the negatives dominate overwhelmingly.
    EXPECT_GT(st.filter_negatives, st.filter_false_positives * 10);
    EXPECT_GT(st.resident_bytes, 2000u * sizeof(Digest128));
}

// ------------------------------------------------- batch determinism

TEST(ShardedVisitedStore, BatchVerdictsMatchSequentialInsertion) {
    // Three batches with cross-batch and within-batch duplicates, run
    // through every (threads, shard_bits) combination: all verdicts
    // must equal the sequential std::set reference, byte for byte.
    std::vector<std::vector<Digest128>> batches(3);
    for (std::uint64_t b = 0; b < 3; ++b)
        for (std::uint64_t i = 0; i < 700; ++i)
            // Stride 5 duplicates inside a batch, stride 3 across
            // batches (batch b repeats keys of batch b-1).
            batches[b].push_back(
                    i % 5 == 0 ? key_of(i / 5)
                               : key_of(400 * (b - (i % 3 == 0 ? 1 : 0)) + i));

    std::vector<std::vector<std::uint8_t>> expected;
    {
        std::set<Digest128> reference;
        for (const auto& batch : batches) {
            std::vector<std::uint8_t> v;
            for (const Digest128& key : batch)
                v.push_back(reference.insert(key).second ? 1 : 0);
            expected.push_back(std::move(v));
        }
    }

    for (const int threads : {1, 2, 4}) {
        for (const int shard_bits : {0, 2, 6}) {
            exec::TaskScheduler sched(threads, /*oversubscribe=*/true);
            StoreOptions opt;
            opt.shard_bits = shard_bits;
            ShardedVisitedStore store(opt);
            std::vector<std::uint8_t> verdict;
            for (std::size_t b = 0; b < batches.size(); ++b) {
                store.insert_batch(sched, batches[b], verdict);
                EXPECT_EQ(verdict, expected[b])
                        << "batch " << b << " threads=" << threads
                        << " shard_bits=" << shard_bits;
            }
            EXPECT_EQ(store.size(), [&] {
                std::set<Digest128> all;
                for (const auto& batch : batches)
                    all.insert(batch.begin(), batch.end());
                return all.size();
            }());
        }
    }
}

// ------------------------------------------------------- delta spill

DeltaRecord numbered_record(std::uint64_t i) {
    DeltaRecord rec;
    rec.parent = i * 3;
    rec.stepper = static_cast<std::uint32_t>(i % 7 + 1);
    rec.delivered = static_cast<std::uint32_t>(i % 5);
    return rec;
}

void expect_numbered(const DeltaRecord& rec, std::uint64_t i) {
    EXPECT_EQ(rec.parent, i * 3) << i;
    EXPECT_EQ(rec.stepper, i % 7 + 1) << i;
    EXPECT_EQ(rec.delivered, i % 5) << i;
}

TEST(DeltaStore, SpillRoundTripPreservesEveryRecord) {
    StoreOptions opt;
    opt.frontier_ram_bytes = 64;  // 4-record window: spill constantly
    DeltaStore deltas(opt);
    const std::uint64_t kCount = 1000;
    for (std::uint64_t i = 0; i < kCount; ++i)
        EXPECT_EQ(deltas.append(numbered_record(i)), i);
    EXPECT_EQ(deltas.size(), kCount);
    EXPECT_GT(deltas.spilled_records(), 0u);
    EXPECT_EQ(deltas.spill_bytes(), deltas.spilled_records() * 16);
    EXPECT_TRUE(std::filesystem::exists(deltas.spill_path()));

    // Two independent readers, interleaved access orders (forward and
    // backward), spanning both the spilled prefix and the RAM window.
    DeltaStore::Reader fwd(deltas);
    DeltaStore::Reader bwd(deltas);
    for (std::uint64_t i = 0; i < kCount; ++i) {
        for (const std::uint64_t id : {i, kCount - 1 - i})
            expect_numbered((id == i ? fwd : bwd).get(id), id);
    }
    EXPECT_GT(fwd.spill_reads(), 0u);
}

constexpr std::uint64_t kBlock = DeltaStore::Reader::kBlockRecords;

// A reader that fetched the spill file's partial tail block must not
// answer from it for ids a later spill wrote past its end: it fetches
// that block again.
TEST(DeltaStore, ReaderRefillsACachedPartialTailBlock) {
    StoreOptions opt;
    opt.frontier_ram_bytes = 1024;  // 64-record window, spills of 32
    DeltaStore deltas(opt);
    std::uint64_t next = 0;
    while (deltas.spilled_records() == 0)
        deltas.append(numbered_record(next++));
    const std::uint64_t cached = deltas.spilled_records();
    ASSERT_LT(cached, kBlock);  // the file ends inside block 0

    DeltaStore::Reader reader(deltas);
    for (std::uint64_t id = 0; id < cached; ++id)
        expect_numbered(reader.get(id), id);
    EXPECT_EQ(reader.spill_reads(), 1u);

    while (deltas.spilled_records() < 2 * kBlock)
        deltas.append(numbered_record(next++));
    for (std::uint64_t id = cached; id < kBlock; ++id)
        expect_numbered(reader.get(id), id);
    EXPECT_EQ(reader.spill_reads(), 2u);  // one refill serves the rest
    for (std::uint64_t id = 0; id < kBlock; ++id)
        expect_numbered(reader.get(id), id);
    EXPECT_EQ(reader.spill_reads(), 2u);
}

// A spill file that lost its tail (a full disk, an outside truncation)
// makes a read of a lost id fail loudly; it never yields a record that
// was not written.  Records a reader already holds were written and
// stay readable.
TEST(DeltaStore, TruncatedSpillFileFailsLoudly) {
    StoreOptions opt;
    opt.frontier_ram_bytes = 1024;
    DeltaStore deltas(opt);
    for (std::uint64_t i = 0; i < 1000; ++i)
        deltas.append(numbered_record(i));
    ASSERT_GT(deltas.spilled_records(), 3 * kBlock);

    DeltaStore::Reader warm(deltas);
    expect_numbered(warm.get(5), 5);  // caches block 0
    const std::uint64_t kept = kBlock + kBlock / 2;
    std::filesystem::resize_file(deltas.spill_path(), 8 + 16 * kept);

    expect_numbered(warm.get(7), 7);
    DeltaStore::Reader cold(deltas);
    for (DeltaStore::Reader* reader : {&warm, &cold}) {
        EXPECT_THROW(reader->get(kept + 1), UsageError);       // block 1
        EXPECT_THROW(reader->get(2 * kBlock + 3), UsageError);  // block 2
        EXPECT_THROW(reader->get(kept + 1), UsageError);  // no half block
    }
    expect_numbered(cold.get(kBlock - 1), kBlock - 1);  // block 0 is whole
}

// A spill file cut short under a live store: the next spill must not
// append past the cut and leave a zero-filled hole that a read of a
// lost id would return as the record {0, 0, 0}.  Either the append or
// that read fails loudly.
TEST(DeltaStore, SpillAfterTruncationFailsLoudly) {
    StoreOptions opt;
    opt.frontier_ram_bytes = 1024;  // 64-record window, spills of 32
    DeltaStore deltas(opt);
    std::uint64_t next = 0;
    while (next < 1000) deltas.append(numbered_record(next++));
    ASSERT_GT(deltas.spilled_records(), 400u);
    std::filesystem::resize_file(deltas.spill_path(), 8 + 16 * 300);

    EXPECT_THROW(
            {
                while (next < 1200) deltas.append(numbered_record(next++));
                DeltaStore::Reader reader(deltas);
                (void)reader.get(400);
            },
            UsageError);
}

// Consecutive ids share block fetches, and a node's block and its
// parent's block -- slots a direct-mapped cache would collide on --
// stay cached side by side.
TEST(DeltaStore, SpilledReadsAreServedInBlocks) {
    StoreOptions opt;
    opt.frontier_ram_bytes = 1024;
    DeltaStore deltas(opt);
    for (std::uint64_t i = 0; i < 20 * kBlock; ++i)
        deltas.append(numbered_record(i));
    ASSERT_GT(deltas.spilled_records(), 1000u);

    DeltaStore::Reader reader(deltas);
    for (std::uint64_t id = 0; id < 1000; ++id)
        expect_numbered(reader.get(id), id);
    EXPECT_LE(reader.spill_reads(), 1000u / 16);

    DeltaStore::Reader pairs(deltas);
    const std::uint64_t far = DeltaStore::Reader::kBlocks * kBlock;
    for (std::uint64_t id = far; id < far + kBlock; ++id) {
        expect_numbered(pairs.get(id), id);
        expect_numbered(pairs.get(id - far), id - far);
    }
    EXPECT_EQ(pairs.spill_reads(), 2u);
}

TEST(DeltaStore, SpillFileIsRemovedOnDestruction) {
    std::string path;
    {
        StoreOptions opt;
        opt.frontier_ram_bytes = 64;
        DeltaStore deltas(opt);
        for (std::uint64_t i = 0; i < 100; ++i) deltas.append(DeltaRecord{});
        path = deltas.spill_path();
        ASSERT_FALSE(path.empty());
        ASSERT_TRUE(std::filesystem::exists(path));
    }
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(DeltaStore, UnboundedBudgetNeverTouchesDisk) {
    StoreOptions opt;
    opt.frontier_ram_bytes = 0;  // never spill
    DeltaStore deltas(opt);
    for (std::uint64_t i = 0; i < 10000; ++i) deltas.append(DeltaRecord{i});
    EXPECT_EQ(deltas.spilled_records(), 0u);
    EXPECT_TRUE(deltas.spill_path().empty());
    DeltaStore::Reader reader(deltas);
    EXPECT_EQ(reader.get(9999).parent, 9999u);
    EXPECT_EQ(reader.spill_reads(), 0u);
}

// ---------------------------------------------------- rematerializer

Digest128 test_msg_hash(ProcessId from, const Payload& payload) {
    StateHasher h;
    h.u64(static_cast<std::uint64_t>(from));
    payload.fold(h);
    return h.digest();
}

/// Asserts that `sys` is byte-identical (as far as the public API can
/// see) to the System produced by replaying `script` on a fresh root.
void expect_matches_direct_replay(const Algorithm& algorithm, int n,
                                  const std::vector<Value>& inputs,
                                  const FailurePlan& plan, const System& sys,
                                  const std::vector<StepChoice>& script,
                                  const std::string& label) {
    System direct(algorithm, n, inputs, plan);
    direct.set_recording(false);
    for (const StepChoice& choice : script) direct.apply_choice(choice);
    EXPECT_EQ(sys.now(), direct.now()) << label;
    for (ProcessId p = 1; p <= n; ++p) {
        EXPECT_EQ(sys.last_digest(p), direct.last_digest(p))
                << label << " digest of " << p;
        EXPECT_EQ(sys.steps_of(p), direct.steps_of(p)) << label;
        EXPECT_EQ(sys.crashed(p), direct.crashed(p)) << label;
        EXPECT_EQ(sys.decision_of(p), direct.decision_of(p)) << label;
        const auto& a = sys.buffer(p);
        const auto& b = direct.buffer(p);
        ASSERT_EQ(a.size(), b.size()) << label << " buffer of " << p;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].id, b[i].id) << label;  // ids too: undo restores
            EXPECT_EQ(a[i].from, b[i].from) << label;
            EXPECT_EQ(a[i].to, b[i].to) << label;
            EXPECT_EQ(a[i].sent_at, b[i].sent_at) << label;
            EXPECT_TRUE(a[i].payload == b[i].payload) << label;
        }
    }
}

/// The trail's incremental caches mirror the live System exactly: one
/// message digest per buffered message, and a stepped flag plus the
/// behavior's fold_state digest per process.
void expect_caches_mirror(const MaterializedNode& node, int n,
                          const std::string& label) {
    ASSERT_EQ(node.mhash->size(), static_cast<std::size_t>(n)) << label;
    ASSERT_EQ(node.marks->size(), static_cast<std::size_t>(n)) << label;
    for (ProcessId p = 1; p <= n; ++p) {
        const auto& buf = node.sys->buffer(p);
        ASSERT_EQ((*node.mhash)[p - 1].size(), buf.size()) << label;
        for (std::size_t i = 0; i < buf.size(); ++i)
            EXPECT_EQ((*node.mhash)[p - 1][i],
                      test_msg_hash(buf[i].from, *buf[i].payload))
                    << label;
        const BehaviorMark& mark = (*node.marks)[p - 1];
        EXPECT_EQ(mark.stepped, node.sys->steps_of(p) > 0) << label;
        if (mark.stepped) {
            StateHasher h;
            node.sys->behavior_of(p).fold_state(h);
            EXPECT_EQ(mark.hash, h.digest()) << label << " p" << p;
        }
    }
}

TEST(Rematerializer, MaterializesTheExactRecordedStates) {
    // Build a small delta tree by hand over flooding(n=3):
    //   0 root
    //   1 = 0 after p1 steps delivering nothing
    //   2 = 0 after p2 steps delivering nothing
    //   3 = 1 after p2 steps delivering its full buffer
    //   4 = 3 after p3 steps delivering 1 message
    //   5 = 2 after p2 steps delivering nothing (sibling branch)
    algo::FloodingKSet algorithm(2);
    const int n = 3;
    const std::vector<Value> inputs = distinct_inputs(n);
    const FailurePlan plan;
    StoreOptions opt;
    opt.frontier_ram_bytes = 64;  // 4-record window: the chain spills
    DeltaStore deltas(opt);
    deltas.append(DeltaRecord{});         // 0: root
    deltas.append(DeltaRecord{0, 1, 0});  // 1
    deltas.append(DeltaRecord{0, 2, 0});  // 2
    deltas.append(DeltaRecord{1, 2, 1});  // 3: delivers p1's broadcast
    deltas.append(DeltaRecord{3, 3, 1});  // 4
    deltas.append(DeltaRecord{2, 2, 0});  // 5

    Rematerializer remat(algorithm, n, inputs, plan, deltas, &test_msg_hash);
    // Materialize in a deliberately non-monotonic order: trail reuse,
    // undo down to the root and redo of whole chains are all exercised.
    for (const std::uint64_t id : {1u, 3u, 4u, 2u, 5u, 4u, 0u, 3u}) {
        const MaterializedNode node = remat.materialize(id);
        ASSERT_NE(node.sys, nullptr);
        const std::vector<StepChoice> script = remat.script_of(id);
        expect_matches_direct_replay(algorithm, n, inputs, plan, *node.sys,
                                     script,
                                     "node " + std::to_string(id));
        expect_caches_mirror(node, n, "node " + std::to_string(id));
    }
}

TEST(Rematerializer, UndoesAndRedoesThroughAnOmittingCrashStep) {
    // flooding(n=3) where p1's first step is its last and omits the
    // send to p2: that send still uses up message id 1, so every later
    // id depends on the undo trail restoring the id counter exactly.
    //   0 root
    //   1 = 0 after p1 steps delivering nothing (crash, omits to p2)
    //   2 = 0 after p2 steps delivering nothing
    //   3 = 1 after p2 steps delivering nothing
    //   4 = 3 after p3 steps delivering p1's message
    //   5 = 4 after p2 steps delivering its whole buffer
    //   6 = 2 after p1 steps delivering p2's message (crash, other branch)
    //   7 = 1 after p3 steps delivering p1's message
    algo::FloodingKSet algorithm(2);
    const int n = 3;
    const std::vector<Value> inputs = distinct_inputs(n);
    FailurePlan plan;
    plan.set_crash(1, CrashSpec{1, {2}});
    StoreOptions opt;
    opt.frontier_ram_bytes = 64;  // 4-record window: the chain spills
    DeltaStore deltas(opt);
    deltas.append(DeltaRecord{});         // 0: root
    deltas.append(DeltaRecord{0, 1, 0});  // 1
    deltas.append(DeltaRecord{0, 2, 0});  // 2
    deltas.append(DeltaRecord{1, 2, 0});  // 3
    deltas.append(DeltaRecord{3, 3, 1});  // 4
    deltas.append(DeltaRecord{4, 2, 1});  // 5
    deltas.append(DeltaRecord{2, 1, 1});  // 6
    deltas.append(DeltaRecord{1, 3, 1});  // 7
    EXPECT_GT(deltas.spilled_records(), 0u);

    Rematerializer remat(algorithm, n, inputs, plan, deltas, &test_msg_hash);
    // Down to depth 4, back up through the crash level 1, down its
    // sibling branches, across to the other crash, via the root, and
    // down through level 1 again.
    for (const std::uint64_t id :
         {5u, 1u, 7u, 3u, 5u, 6u, 2u, 0u, 4u, 7u, 5u}) {
        const std::string label = "node " + std::to_string(id);
        const MaterializedNode node = remat.materialize(id);
        ASSERT_NE(node.sys, nullptr);
        expect_matches_direct_replay(algorithm, n, inputs, plan, *node.sys,
                                     remat.script_of(id), label);
        expect_caches_mirror(node, n, label);
        if (id == 1) {
            // The omitted send to p2 took id 1; p3's copy is id 2.
            EXPECT_TRUE(node.sys->crashed(1));
            EXPECT_TRUE(node.sys->buffer(2).empty());
            ASSERT_EQ(node.sys->buffer(3).size(), 1u);
            EXPECT_EQ(node.sys->buffer(3)[0].id, 2u);
        }
    }
    EXPECT_GT(remat.replay_steps(), 0u);
}

/// Sends to every process and decides on every step, so its second step
/// throws (decisions are write-once) after its sends are already placed:
/// a step that fails half-applied.
class DecideEveryStep final : public Behavior {
  public:
    explicit DecideEveryStep(int n) : n_(n) {}
    StepOutput on_step(const StepInput& in) override {
        received_ += static_cast<int>(in.delivered.size());
        ++steps_;
        StepOutput out;
        for (ProcessId q = 1; q <= n_; ++q)
            out.sends.emplace_back(q, make_payload("PING", {steps_}));
        out.decision = 1;
        return out;
    }
    std::string state_digest() const override {
        return "D(" + std::to_string(steps_) + "," +
               std::to_string(received_) + ")";
    }
    std::unique_ptr<Behavior> clone() const override {
        return std::make_unique<DecideEveryStep>(*this);
    }

  private:
    int n_;
    int steps_ = 0;
    int received_ = 0;
};

class DecideEveryStepAlgorithm final : public Algorithm {
  public:
    std::unique_ptr<Behavior> make_behavior(ProcessId, int n,
                                            Value) const override {
        return std::make_unique<DecideEveryStep>(n);
    }
    std::string name() const override { return "decide-every-step"; }
};

TEST(Rematerializer, AStepThatThrowsResetsTheTrail) {
    //   0 root
    //   1 = 0 after p1 steps (decides, sends to p1 and p2)
    //   2 = 1 after p1 steps again: throws after placing its sends
    //   3 = 1 after p2 steps delivering p1's message
    DecideEveryStepAlgorithm algorithm;
    const int n = 2;
    const std::vector<Value> inputs = distinct_inputs(n);
    const FailurePlan plan;
    StoreOptions opt;
    DeltaStore deltas(opt);
    deltas.append(DeltaRecord{});         // 0: root
    deltas.append(DeltaRecord{0, 1, 0});  // 1
    deltas.append(DeltaRecord{1, 1, 0});  // 2
    deltas.append(DeltaRecord{1, 2, 1});  // 3

    Rematerializer remat(algorithm, n, inputs, plan, deltas, &test_msg_hash);
    remat.materialize(1);
    EXPECT_THROW(remat.materialize(2), UsageError);
    // The failed step left the live System half-applied; the next call
    // must not build on it.
    for (const std::uint64_t id : {3u, 1u, 0u, 3u}) {
        const std::string label = "node " + std::to_string(id);
        const MaterializedNode node = remat.materialize(id);
        expect_matches_direct_replay(algorithm, n, inputs, plan, *node.sys,
                                     remat.script_of(id), label);
        expect_caches_mirror(node, n, label);
    }
}

TEST(Rematerializer, ScriptOfRootIsEmpty) {
    algo::FloodingKSet algorithm(2);
    StoreOptions opt;
    DeltaStore deltas(opt);
    deltas.append(DeltaRecord{});
    Rematerializer remat(algorithm, 3, distinct_inputs(3), FailurePlan{},
                         deltas, &test_msg_hash);
    EXPECT_TRUE(remat.script_of(0).empty());
    const MaterializedNode root = remat.materialize(0);
    for (ProcessId p = 1; p <= 3; ++p) EXPECT_EQ(root.sys->steps_of(p), 0);
}

// ------------------------------------- fork + fault-injection round-trip

/// The reference explorer (kReference), which keys every candidate
/// child on a fork, and the store path's Debug oracles lean on
/// System::fork() copying EVERY piece of state a later step can
/// observe -- including the effective FailurePlan extensions and
/// forged-id bookkeeping that Byzantine fault actions mutate.  This drives an n=5 run with corruption and
/// equivocation faults, forks mid-run, and requires the fork and the
/// original to stay bit-identical under the same continuation.
TEST(SystemFork, ByzantineFaultRoundTripAtN5) {
    auto algorithm = algo::make_flp_kset(5, 1);
    const int n = 5;
    const std::vector<Value> inputs = distinct_inputs(n);
    System sys(*algorithm, n, inputs, FailurePlan{});
    sys.set_recording(false);

    // Everyone takes a first step: five broadcasts in flight.
    for (ProcessId p = 1; p <= n; ++p) {
        StepChoice c;
        c.process = p;
        sys.apply_choice(c);
    }
    ASSERT_GE(sys.buffer(2).size(), 2u);

    // Step with a corruption fault: p1's message to p2 is forged.
    {
        const Message& victim = sys.buffer(2).front();
        StepChoice c;
        c.process = 2;
        FaultAction a;
        a.kind = FaultAction::Kind::kCorruptMessage;
        a.message = victim.id;
        a.corrupt_seed = 41;
        c.faults.push_back(a);
        c.deliver.push_back(corrupted_message_id(victim.id));
        sys.apply_choice(c);
    }

    // Fork, then apply an equivocation fault plus identical follow-up
    // steps to BOTH systems.
    std::unique_ptr<System> forked = sys.fork(/*verify_digests=*/true);
    auto equivocate_then_step = [n](System& s) {
        const Message& anchor = s.buffer(3).front();
        StepChoice c;
        c.process = 3;
        FaultAction a;
        a.kind = FaultAction::Kind::kEquivocate;
        a.message = anchor.id;
        a.corrupt_seed = 97;
        c.faults.push_back(a);
        c.deliver.push_back(equivocated_message_id(anchor.id, 3));
        s.apply_choice(c);
        for (ProcessId p = 1; p <= n; ++p) {
            StepChoice follow;
            follow.process = p;
            follow.deliver_all = true;
            s.apply_choice(follow);
        }
    };
    equivocate_then_step(sys);
    equivocate_then_step(*forked);

    for (ProcessId p = 1; p <= n; ++p) {
        EXPECT_EQ(sys.last_digest(p), forked->last_digest(p)) << p;
        EXPECT_EQ(sys.steps_of(p), forked->steps_of(p)) << p;
        EXPECT_EQ(sys.decision_of(p), forked->decision_of(p)) << p;
        const auto& a = sys.buffer(p);
        const auto& b = forked->buffer(p);
        ASSERT_EQ(a.size(), b.size()) << p;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].id, b[i].id);
            EXPECT_TRUE(a[i].payload == b[i].payload);
        }
    }
    // Both recorded the same realized Byzantine senders (p1 corrupted,
    // p-of-anchor equivocated; the others stayed clean).
    for (ProcessId p = 1; p <= n; ++p)
        EXPECT_EQ(sys.plan().is_byzantine(p), forked->plan().is_byzantine(p))
                << p;
}

// ------------------------------------------ end-to-end forced spill

void expect_identical_results(const core::ExploreResult& a,
                              const core::ExploreResult& b,
                              const std::string& label) {
    EXPECT_TRUE(a.verdict() == b.verdict())
            << label << "\n  " << a.summary() << "\n  " << b.summary();
}

TEST(StoreExploration, ForcedSpillIsByteIdenticalToInRam) {
    auto algorithm = algo::make_flp_kset(3, 1);
    core::ExploreConfig cfg;
    cfg.n = 3;
    cfg.inputs = distinct_inputs(3);
    cfg.k = 1;
    cfg.max_depth = 12;
    cfg.max_states = 400000;
    for (const auto mode :
         {core::ExploreMode::kFast, core::ExploreMode::kReduced}) {
        cfg.mode = mode;
        cfg.store = StoreOptions{};  // defaults: never spills at this scale
        const core::ExploreResult in_ram =
                core::explore_schedules(*algorithm, cfg);
        EXPECT_EQ(in_ram.spilled_records, 0u);

        cfg.store.frontier_ram_bytes = 1024;  // 64-record window
        cfg.store.expand_block = 3;
        cfg.store.shard_bits = 1;
        const core::ExploreResult spilled =
                core::explore_schedules(*algorithm, cfg);
        EXPECT_GT(spilled.spilled_records, 0u);
        EXPECT_GT(spilled.spill_reads, 0u);
        expect_identical_results(
                in_ram, spilled,
                mode == core::ExploreMode::kFast ? "fast" : "reduced");
    }
}

TEST(StoreExploration, PeakResidentBytesIsBounded) {
    // The observability contract of the memory ceiling: with a tiny
    // frontier budget the delta window must stay near the budget, so
    // peak_resident_bytes is dominated by the visited tier, not the
    // frontier.
    auto algorithm = algo::make_flp_kset(3, 1);
    core::ExploreConfig cfg;
    cfg.n = 3;
    cfg.inputs = distinct_inputs(3);
    cfg.k = 1;
    cfg.max_depth = 10;
    cfg.max_states = 400000;
    cfg.store.frontier_ram_bytes = 1024;
    const core::ExploreResult r = core::explore_schedules(*algorithm, cfg);
    EXPECT_GT(r.peak_resident_bytes, 0u);
    EXPECT_GT(r.states_explored, 1000u);
    // Frontier share of the peak: at most the budget plus one block of
    // growth slack (vector doubling), far below an unspilled frontier
    // (16 bytes * states would exceed 100 KB alone).
    EXPECT_LT(r.peak_resident_bytes,
              r.states_explored * sizeof(DeltaRecord) +
                      r.states_explored * sizeof(Digest128) * 4);
}

}  // namespace
}  // namespace ksa::store
