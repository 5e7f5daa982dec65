#include "store/visited_store.hpp"

#include <algorithm>

#include "exec/parallel_map.hpp"

namespace ksa::store {

namespace {

std::size_t round_up_pow2(std::size_t v, std::size_t floor) {
    std::size_t cap = floor;
    while (cap < v) cap <<= 1;
    return cap;
}

}  // namespace

// ---------------------------------------------------------------------
// BloomFilter

BloomFilter::BloomFilter(std::size_t bits) {
    const std::size_t cap = round_up_pow2(bits, 64);
    words_.assign(cap / 64, 0);
    mask_ = cap - 1;
}

void BloomFilter::insert(const Digest128& key) {
    // Double hashing over the two already-mixed 64-bit lanes; |1 keeps
    // the stride odd so every probe sequence covers the table.
    const std::uint64_t h1 = key.lo;
    const std::uint64_t h2 = key.hi | 1;
    for (int i = 0; i < kProbes; ++i) {
        const std::uint64_t bit =
                (h1 + static_cast<std::uint64_t>(i) * h2) & mask_;
        words_[bit >> 6] |= std::uint64_t(1) << (bit & 63);
    }
}

bool BloomFilter::maybe_contains(const Digest128& key) const {
    const std::uint64_t h1 = key.lo;
    const std::uint64_t h2 = key.hi | 1;
    for (int i = 0; i < kProbes; ++i) {
        const std::uint64_t bit =
                (h1 + static_cast<std::uint64_t>(i) * h2) & mask_;
        if ((words_[bit >> 6] & (std::uint64_t(1) << (bit & 63))) == 0)
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// VisitedShard

namespace {
constexpr std::size_t kInitialSlots = 64;  ///< power of two
constexpr Digest128 kEmptySlot{};          ///< all-zero sentinel
}  // namespace

VisitedShard::VisitedShard(int filter_bits_per_key)
    : filter_(filter_bits_per_key > 0
                      ? kInitialSlots * static_cast<std::size_t>(
                                                filter_bits_per_key)
                      : 64),
      filter_bits_per_key_(filter_bits_per_key),
      slots_(kInitialSlots, kEmptySlot) {}

bool VisitedShard::exact_contains(const Digest128& key) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = static_cast<std::size_t>(key.lo) & mask;;
         i = (i + 1) & mask) {
        if (slots_[i] == key) return true;
        if (slots_[i] == kEmptySlot) return false;
    }
}

void VisitedShard::exact_insert_new(const Digest128& key) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(key.lo) & mask;
    while (!(slots_[i] == kEmptySlot)) i = (i + 1) & mask;
    slots_[i] = key;
    ++size_;
    // Grow at 70% load; rebuilding also re-sizes the bloom tier back
    // to its designed bits-per-key budget.
    if (size_ * 10 >= slots_.size() * 7) grow();
}

void VisitedShard::grow() {
    std::vector<Digest128> old = std::move(slots_);
    slots_.assign(old.size() * 2, kEmptySlot);
    const std::size_t mask = slots_.size() - 1;
    for (const Digest128& key : old) {
        if (key == kEmptySlot) continue;
        std::size_t i = static_cast<std::size_t>(key.lo) & mask;
        while (!(slots_[i] == kEmptySlot)) i = (i + 1) & mask;
        slots_[i] = key;
    }
    if (filter_bits_per_key_ > 0) {
        // Rebuild the filter for the doubled population from the exact
        // tier (bloom filters cannot be resized in place).  The rebuilt
        // filter is a pure function of the stored key SET, which is a
        // pure function of the insertion sequence -- determinism holds.
        filter_ = BloomFilter(slots_.size() *
                              static_cast<std::size_t>(filter_bits_per_key_));
        for (const Digest128& key : slots_)
            if (!(key == kEmptySlot)) filter_.insert(key);
        if (has_zero_) filter_.insert(kEmptySlot);
    }
}

bool VisitedShard::insert(const Digest128& key) {
    if (key == kEmptySlot) {
        if (has_zero_) return false;
        has_zero_ = true;
        if (filter_bits_per_key_ > 0) filter_.insert(key);
        return true;
    }
    if (filter_bits_per_key_ > 0) {
        if (!filter_.maybe_contains(key)) {
            // The hot path: definitely new, the exact tier is only
            // written, never probed.
            ++filter_negatives_;
            filter_.insert(key);
            exact_insert_new(key);
            return true;
        }
        if (exact_contains(key)) return false;  // true positive: a dup
        ++filter_fp_;
        filter_.insert(key);
        exact_insert_new(key);
        return true;
    }
    if (exact_contains(key)) return false;
    exact_insert_new(key);
    return true;
}

bool VisitedShard::contains(const Digest128& key) const {
    if (key == kEmptySlot) return has_zero_;
    if (filter_bits_per_key_ > 0 && !filter_.maybe_contains(key))
        return false;
    return exact_contains(key);
}

// ---------------------------------------------------------------------
// ShardedVisitedStore

ShardedVisitedStore::ShardedVisitedStore(const StoreOptions& opt)
    : shard_bits_(std::clamp(opt.shard_bits, 0, 16)) {
    const std::size_t count = std::size_t(1) << shard_bits_;
    shards_.reserve(count);
    for (std::size_t s = 0; s < count; ++s)
        shards_.emplace_back(opt.filter_bits_per_key);
    batch_index_.resize(count);
}

bool ShardedVisitedStore::insert(const Digest128& key) {
    return shards_[shard_bits_ == 0 ? 0 : shard_of(key)].insert(key);
}

bool ShardedVisitedStore::contains(const Digest128& key) const {
    return shards_[shard_bits_ == 0 ? 0 : shard_of(key)].contains(key);
}

void ShardedVisitedStore::insert_batch(exec::TaskScheduler& sched,
                                       const std::vector<Digest128>& keys,
                                       std::vector<std::uint8_t>& verdict) {
    verdict.assign(keys.size(), 0);
    for (auto& idx : batch_index_) idx.clear();
    for (std::size_t i = 0; i < keys.size(); ++i)
        batch_index_[shard_bits_ == 0 ? 0 : shard_of(keys[i])].push_back(
                static_cast<std::uint32_t>(i));
    // One task per shard (grain 1): a shard is owned by exactly one
    // worker for the whole batch, and processes its candidates in
    // ascending global index order -- the per-shard projection of the
    // sequential merge's insertion order.
    exec::parallel_map_grained(
            sched, shards_.size(), /*grain=*/1,
            [&](std::size_t s, int) -> std::uint8_t {
                VisitedShard& shard = shards_[s];
                for (const std::uint32_t i : batch_index_[s])
                    // Per-index slots in disguise: batch_index_ holds
                    // disjoint index sets per shard (a key has exactly
                    // one shard), so no two tasks ever touch the same
                    // verdict element.
                    // ksa-lint: allow(parallel-capture-mutation)
                    verdict[i] = shard.insert(keys[i]) ? 1 : 0;
                return 0;
            });
}

std::size_t ShardedVisitedStore::size() const {
    std::size_t total = 0;
    for (const VisitedShard& s : shards_) total += s.size();
    return total;
}

VisitedStats ShardedVisitedStore::stats() const {
    VisitedStats st;
    st.shards = shards_.size();
    for (const VisitedShard& s : shards_) {
        st.size += s.size();
        st.filter_negatives += s.filter_negatives();
        st.filter_false_positives += s.filter_false_positives();
        st.resident_bytes += s.resident_bytes();
    }
    return st;
}

}  // namespace ksa::store
