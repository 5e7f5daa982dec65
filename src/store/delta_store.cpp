#include "store/delta_store.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>

#include "sim/types.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace ksa::store {

namespace {

constexpr char kMagic[8] = {'K', 'S', 'A', 'S', 'P', 'I', 'L', 'L'};
constexpr std::uint64_t kHeaderBytes = 8;
constexpr std::uint64_t kRecordBytes = 16;

void put_u32le(char* out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void put_u64le(char* out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint32_t get_u32le(const char* in) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(in[i]))
             << (8 * i);
    return v;
}

std::uint64_t get_u64le(const char* in) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[i]))
             << (8 * i);
    return v;
}

/// Process-unique spill file name.  pid + a process-local counter: two
/// concurrently running test binaries sharing one temp directory must
/// not collide (and no wall clock -- determinism rules).
std::string unique_spill_name() {
    // A process-wide monotonic counter is the sanctioned thread-safe-
    // bookkeeping exception (cf. check/contract.cpp): it names files,
    // it never orders work.
    // ksa-lint: allow(threading-outside-exec)
    static std::atomic<std::uint64_t> counter{0};  // ksa: thread_safe
#if defined(__unix__) || defined(__APPLE__)
    const long pid = static_cast<long>(::getpid());
#else
    const long pid = 0;
#endif
    return "ksa-spill-" + std::to_string(pid) + "-" +
           std::to_string(counter.fetch_add(1)) + ".bin";
}

}  // namespace

DeltaStore::DeltaStore(const StoreOptions& opt)
    : max_window_records_(opt.frontier_ram_bytes == 0
                                  ? 0
                                  : opt.frontier_ram_bytes / kRecordBytes),
      dir_(opt.spill_dir) {
    if (max_window_records_ != 0 && max_window_records_ < 2)
        max_window_records_ = 2;  // keep the spill arithmetic trivial
}

DeltaStore::~DeltaStore() {
    if (!path_.empty()) {
        out_.close();
        std::error_code ec;  // best-effort cleanup; nothing to report to
        std::filesystem::remove(path_, ec);
    }
}

std::uint64_t DeltaStore::append(const DeltaRecord& rec) {
    const std::uint64_t id = size();
    window_.push_back(rec);
    if (max_window_records_ != 0 && window_.size() > max_window_records_)
        spill_window();
    return id;
}

void DeltaStore::spill_window() {
    // Spill the cold (oldest) half; the hot tail -- the records the
    // next expansion phase will re-materialize most -- stays resident.
    const std::size_t count = window_.size() / 2;
    if (count == 0) return;
    namespace fs = std::filesystem;
    if (path_.empty()) {
        const fs::path dir =
                dir_.empty() ? fs::temp_directory_path() : fs::path(dir_);
        path_ = (dir / unique_spill_name()).string();
        out_.open(path_, std::ios::binary | std::ios::trunc);
        require(out_.good(), "DeltaStore: cannot create spill file");
        out_.write(kMagic, sizeof(kMagic));
    } else {
        // A file cut short under the store would make this append leave
        // a zero-filled hole that reads back as records never written.
        std::error_code ec;
        const std::uintmax_t bytes = fs::file_size(path_, ec);
        require(!ec && bytes == kHeaderBytes + flushed_ * kRecordBytes,
                "DeltaStore: spill file changed size under the store");
    }
    char buf[kRecordBytes];
    for (std::size_t i = 0; i < count; ++i) {
        const DeltaRecord& r = window_[i];
        put_u64le(buf, r.parent);
        put_u32le(buf + 8, r.stepper);
        put_u32le(buf + 12, r.delivered);
        out_.write(buf, sizeof(buf));
    }
    out_.flush();  // readers open the file independently
    require(out_.good(), "DeltaStore: spill write failed");
    window_.erase(window_.begin(),
                  window_.begin() + static_cast<std::ptrdiff_t>(count));
    flushed_ += count;
}

DeltaRecord DeltaStore::Reader::get(std::uint64_t id) {
    require(id < store_->size(), "DeltaStore::Reader: id out of range");
    if (id >= store_->flushed_)
        return store_->window_[static_cast<std::size_t>(id - store_->flushed_)];
    const std::size_t slot = slot_of(id);
    const char* buf = bytes_.data() +
                      (slot * kBlockRecords + (id - blocks_[slot].first)) *
                              kRecordBytes;
    DeltaRecord r;
    r.parent = get_u64le(buf);
    r.stepper = get_u32le(buf + 8);
    r.delivered = get_u32le(buf + 12);
    return r;
}

std::size_t DeltaStore::Reader::slot_of(std::uint64_t id) {
    if (blocks_.empty()) {
        blocks_.resize(kBlocks);
        bytes_.resize(kBlocks * kBlockRecords * kRecordBytes);
    }
    const std::uint64_t first = id - id % kBlockRecords;
    // The block's slot if it is cached, else the least recently used
    // one (empty slots carry stamp 0 and go first).
    std::size_t slot = 0;
    bool cached = false;
    for (std::size_t s = 0; s < kBlocks; ++s) {
        if (blocks_[s].valid != 0 && blocks_[s].first == first) {
            slot = s;
            cached = true;
            break;
        }
        if (blocks_[s].used < blocks_[slot].used) slot = s;
    }
    Block& block = blocks_[slot];
    block.used = ++clock_;
    if (cached && id - first < block.valid) return slot;

    // Fetch the block's spilled part: a cached partial tail block whose
    // end the file has grown past is refilled in place.
    ++spill_reads_;
    if (!in_.is_open()) {
        in_.open(store_->path_, std::ios::binary);
        require(in_.good(), "DeltaStore::Reader: cannot open spill file");
    }
    const std::uint64_t count =
            std::min<std::uint64_t>(kBlockRecords, store_->flushed_ - first);
    block.first = first;
    block.valid = 0;  // empty until the read has succeeded
    // The file grows between reads (later spills append); clear any
    // stale eof state from a previous read near the then-current end.
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(kHeaderBytes +
                                          first * kRecordBytes));
    in_.read(bytes_.data() + slot * kBlockRecords * kRecordBytes,
             static_cast<std::streamsize>(count * kRecordBytes));
    require(in_.good(), "DeltaStore::Reader: spill read failed");
    block.valid = static_cast<std::size_t>(count);
    return slot;
}

}  // namespace ksa::store
