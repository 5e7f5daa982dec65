#pragma once
// Append-only delta store + disk-spillable frontier (doc/performance.md
// §6).
//
// The explorer's frontier used to hold one live System per node -- the
// dominant resident cost at scale.  On the store path a node is a
// 16-byte DeltaRecord: the id of its parent plus the (stepper,
// delivered-prefix-length) pair that produced it.  Because the
// explorer's delivery modes always deliver a buffer PREFIX, that pair
// fully determines the StepChoice (the concrete message ids are read
// back from the live parent buffer during re-materialization), so a
// record is all that is ever stored per state.
//
// Node ids are BFS acceptance sequence numbers (root = 0): children
// accepted by the in-order sequential merge get consecutive ids, so a
// BFS layer is a CONTIGUOUS id interval and the append-only record
// array doubles as the frontier queue -- "popping the next layer" is
// advancing an id range, and spilling the frontier is spilling the
// cold prefix of this array.
//
// SPILL FORMAT ("KSASPILL-1", the binary sibling of the KSARUN-1 text
// format in sim/serialize.hpp): an 8-byte magic "KSASPILL" followed by
// records of three little-endian fields (u64 parent, u32 stepper, u32
// delivered), 16 bytes each, at file offset 8 + 16*id.  Fixed-size
// records make spilled nodes random-access (a seek, not a scan), which
// re-materialization depends on; a Reader fetches the aligned block of
// records around an id with one seek and one read, since a delta
// chain's next ids -- siblings, the parent -- mostly sit in the blocks
// it has just read.
//
// CONCURRENCY.  Appends happen only in the sequential merge phase;
// parallel expansion phases only read.  RAM-window reads are plain
// const reads of a vector that no one mutates during the phase; spill
// reads go through per-worker Reader objects, each owning its private
// file handle and block cache.  No locks anywhere -- phase separation
// is the protocol.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "store/store_options.hpp"

namespace ksa::store {

/// One frontier node, delta-encoded against its parent.  The root is
/// record 0 with parent == 0 and stepper == 0 (no real step has
/// stepper 0: ProcessIds are 1-based).
struct DeltaRecord {
    std::uint64_t parent = 0;
    std::uint32_t stepper = 0;
    std::uint32_t delivered = 0;
};

class DeltaStore {
  public:
    explicit DeltaStore(const StoreOptions& opt);
    ~DeltaStore();
    DeltaStore(const DeltaStore&) = delete;
    DeltaStore& operator=(const DeltaStore&) = delete;

    /// Appends one record; returns its id (== previous size()).  May
    /// spill the cold window prefix to disk when the RAM budget is
    /// exceeded.  Sequential-merge-phase only.
    std::uint64_t append(const DeltaRecord& rec);

    std::uint64_t size() const { return flushed_ + window_.size(); }
    std::uint64_t spilled_records() const { return flushed_; }
    std::uint64_t spill_bytes() const {
        return flushed_ * sizeof(DeltaRecord);
    }
    std::size_t resident_bytes() const {
        return window_.capacity() * sizeof(DeltaRecord);
    }
    const std::string& spill_path() const { return path_; }

    /// Per-worker random-access reader.  RAM-window hits are lock-free
    /// const reads; spilled ids are served from a few cached blocks of
    /// kBlockRecords aligned records, fetched through this reader's
    /// private ifstream (one seek and one read of the block's spilled
    /// part) and replaced least-recently-used first.  Spilled records
    /// never change, so a cached record is never stale; a block that
    /// was the file's partial tail when fetched is fetched again once
    /// an id past its end is asked for.  Valid only while the store
    /// outlives it; must not be used concurrently with append().
    class Reader {
      public:
        static constexpr std::size_t kBlockRecords = 256;
        static constexpr std::size_t kBlocks = 8;

        explicit Reader(const DeltaStore& store) : store_(&store) {}
        DeltaRecord get(std::uint64_t id);
        /// Blocks fetched from the spill file so far.
        std::uint64_t spill_reads() const { return spill_reads_; }

      private:
        struct Block {
            std::uint64_t first = 0;  ///< id of the block's first record
            std::size_t valid = 0;    ///< records held (0: empty slot)
            std::uint64_t used = 0;   ///< last-use stamp
        };

        /// The slot holding the spilled id `id`, fetched if need be.
        std::size_t slot_of(std::uint64_t id);

        const DeltaStore* store_;
        std::ifstream in_;  ///< lazily opened on the first spilled read
        /// kBlocks slots and their raw KSASPILL-1 bytes, slot s at
        /// bytes_[s * kBlockRecords * 16]; allocated on the first
        /// spilled read.
        std::vector<Block> blocks_;
        std::vector<char> bytes_;
        std::uint64_t clock_ = 0;
        std::uint64_t spill_reads_ = 0;
    };

  private:
    void spill_window();

    std::size_t max_window_records_;  ///< 0 = unbounded (never spill)
    std::string dir_;
    /// Records [flushed_, flushed_ + window_.size()); ids below
    /// flushed_ live in the spill file.
    std::vector<DeltaRecord> window_;
    std::uint64_t flushed_ = 0;
    std::ofstream out_;
    std::string path_;  ///< empty until the first spill
};

}  // namespace ksa::store
