#pragma once
// Deterministic 128-bit state digests.
//
// The configuration-space explorer (core/explorer.hpp) deduplicates
// reached configurations.  Its reference mode keys the visited set by a
// canonical rendering of the full configuration -- unambiguous but
// allocation-heavy: every candidate state renders every buffer and the
// stepped behavior into a fresh string key.  The fast path instead
// folds the same canonical byte stream into the 128-bit hash below.
//
// Requirements (and why std::hash is banned here):
//
//   * deterministic across processes, builds and platforms -- std::hash
//     is implementation-defined and may be seeded per process, which
//     would make "which states fall inside max_states" unreproducible
//     (the ksa_analyze raw-randomness/determinism rules exist for exactly
//     this class of bug).  Byte order included: bytes() assembles its
//     words little-endian, so u64(v) equals bytes() of v's
//     little-endian bytes on every host;
//   * incremental -- state components are folded in as they are walked,
//     no intermediate string is materialized;
//   * 128 bits wide -- the deep row of BENCH_explorer.json keys
//     1.36 x 10^7 canonical states, where the birthday bound of a
//     well-mixed 128-bit hash is ~3 x 10^-25, far below e.g. the
//     probability of a memory error corrupting the canonical-string
//     comparison.  The golden equivalence suite
//     (tests/test_explorer_equiv.cpp) cross-checks the hashed keys
//     against the canonical-string reference mode on every supported
//     case anyway.
//
// The construction absorbs one 64-bit word per u64()/i64() call into
// two 64-bit lanes.  The word is first pre-mixed,
//
//     k = rotl(v * C1, 31) * C2          (the Murmur3 x64 input mix),
//
// which spreads small integers and ids -- most key words -- over the
// whole word.  Then each lane takes one xor-rotate-multiply step:
//
//     a = (rotl(a, RA) ^ k) * MA
//     b = (rotl(b, RB) ^ (k + OB)) * MB
//
// with odd multipliers and distinct rotations and seeds, so the lanes
// evolve through different states from the first word on.  digest()
// runs each lane through a splitmix64 finalizer, which is itself a
// bijection of 64-bit words.  Two properties make the halves exact
// rather than merely well mixed:
//
//   * for a fixed word, each lane update is a bijection of the lane
//     state (rotate, xor a constant, multiply by an odd number);
//   * for a fixed state, it is a bijection of the word (the pre-mix
//     and the xor are bijections of v).
//
// So two streams with the same word count that differ in one word never
// collide in either half: their lanes first differ at that word and
// then stay different through every later step and the finalizer.
//
// Injectivity rule: bytes() zero-pads its last partial word, so it does
// not tell "a" from "a\0" by itself.  Every variable-length field is
// therefore length-prefixed -- str() prefixes its own length, and the
// callers prefix every container with its size (sim/payload.cpp,
// core/explorer.cpp, core/reduction.cpp).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ksa {

/// A 128-bit digest value.  Ordered (usable as a std::set key) and
/// renderable for reports.
struct Digest128 {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    friend bool operator==(const Digest128&, const Digest128&) = default;
    friend auto operator<=>(const Digest128&, const Digest128&) = default;

    /// Fixed-width hex rendering "hhhhhhhhhhhhhhhh:llllllllllllllll".
    std::string to_string() const {
        static constexpr char kHex[] = "0123456789abcdef";
        std::string out(33, ':');
        for (int i = 0; i < 16; ++i) {
            out[15 - i] = kHex[(hi >> (4 * i)) & 0xf];
            out[32 - i] = kHex[(lo >> (4 * i)) & 0xf];
        }
        return out;
    }
};

/// Incremental, deterministic 128-bit hasher.  Feed bytes / integers /
/// strings in a canonical order, then read digest().  The same feed
/// sequence always yields the same digest; distinct feed sequences are
/// kept distinct by tagging every variable-length field with its length
/// at the call sites (see the injectivity rule above).
class StateHasher {
public:
    /// Absorbs whole 8-byte chunks as little-endian words, then one
    /// zero-padded tail word when size % 8 != 0.
    void bytes(const void* data, std::size_t size) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (; size >= 8; p += 8, size -= 8) u64(load_le64(p));
        if (size > 0) {
            std::uint64_t tail = 0;
            for (std::size_t i = 0; i < size; ++i)
                tail |= static_cast<std::uint64_t>(p[i]) << (8 * i);
            u64(tail);
        }
    }

    void str(std::string_view s) {
        // Length prefix keeps ("ab","c") distinct from ("a","bc"), and
        // "a" distinct from "a\0" despite the zero-padded tail word.
        u64(s.size());
        bytes(s.data(), s.size());
    }

    void u64(std::uint64_t v) {
        const std::uint64_t k = std::rotl(v * kMixC1, 31) * kMixC2;
        a_ = (std::rotl(a_, kRotA) ^ k) * kMulA;
        b_ = (std::rotl(b_, kRotB) ^ (k + kOffsetB)) * kMulB;
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    /// Folds a previously computed digest into the stream (128 bits).
    /// The explorer uses this to fold cached per-message digests into a
    /// state key instead of re-walking message payloads per candidate.
    void fold(const Digest128& d) {
        u64(d.hi);
        u64(d.lo);
    }

    /// Finalizes (without consuming) the current state.
    Digest128 digest() const {
        return {finalize(a_ ^ 0x2545f4914f6cdd1dull), finalize(b_)};
    }

    /// Rewinds the hasher to its initial state.  The explorer's hot
    /// paths keep one scratch hasher per worker and reset it between
    /// candidates instead of constructing a fresh object -- the hasher
    /// is trivially small, but reset() also documents the reuse
    /// discipline (no state may leak between candidates).
    void reset() {
        a_ = kSeedA;
        b_ = kSeedB;
    }

private:
    // Pre-mix: the Murmur3 x64 input constants (both odd).
    static constexpr std::uint64_t kMixC1 = 0x87c37b91114253d5ull;
    static constexpr std::uint64_t kMixC2 = 0x4cf5ad432745937full;
    // Lane steps: distinct odd multipliers, distinct non-zero rotations.
    static constexpr std::uint64_t kMulA = 0xff51afd7ed558ccdull;
    static constexpr std::uint64_t kMulB = 0xc2b2ae3d27d4eb4full;
    static constexpr int kRotA = 27;
    static constexpr int kRotB = 37;
    static constexpr std::uint64_t kOffsetB = 0x632be59bd9b4e019ull;
    static constexpr std::uint64_t kSeedA = 0xcbf29ce484222325ull;
    static constexpr std::uint64_t kSeedB = 0x84222325cbf29ce4ull;

    /// The little-endian word of p[0 .. 8), written out so that the
    /// compiler folds it into one load on a little-endian host.
    static std::uint64_t load_le64(const unsigned char* p) {
        using W = std::uint64_t;
        return W{p[0]} | W{p[1]} << 8 | W{p[2]} << 16 | W{p[3]} << 24 |
               W{p[4]} << 32 | W{p[5]} << 40 | W{p[6]} << 48 |
               W{p[7]} << 56;
    }

    static std::uint64_t finalize(std::uint64_t x) {
        // splitmix64 finalizer: full avalanche over the lane state.
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

    std::uint64_t a_ = kSeedA;
    std::uint64_t b_ = kSeedB;
};

}  // namespace ksa
