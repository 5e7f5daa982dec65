#pragma once
// Structured message payloads.
//
// The model allows messages from an arbitrary universe M.  All protocols
// in this library get by with a small structured record: a tag naming the
// message kind, a vector of integers, and a vector of integer lists (used
// e.g. for the "heard-from" lists of the FLP-style two-stage protocols).
// Keeping payloads as a concrete value type (rather than type-erased
// blobs) makes runs trivially comparable, hashable and printable, which
// the indistinguishability machinery of core/ relies on.
//
// Two types split the work.  `Payload` is the value type: protocols
// build payloads with it, and the Byzantine mutators and the renamed
// hashing of core/ edit copies of it.  `SharedPayload` is what a
// message carries: a handle to one immutable Payload body.  A broadcast
// builds its body once and every copy of the message shares it -- the
// n-1 sends, the buffered messages, a ghost step's delivered prefix,
// the explorer's undo trail, forked Systems and recorded StepRecords.
// Copying a handle bumps a reference count instead of copying vectors.
// A body never changes once built; rewriting a message (a Byzantine
// corruption, deserialization) gives it a fresh body.  The count is the
// thread-safe one of std::shared_ptr because bodies cross workers: the
// reference explorer forks sibling nodes onto different workers, and
// the siblings share every buffered body.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/digest.hpp"
#include "sim/text_writer.hpp"
#include "sim/types.hpp"

namespace ksa {

/// A structured message payload: `tag` names the message kind, `ints`
/// carries scalar fields, `lists` carries list-valued fields.
struct Payload {
    std::string tag;
    std::vector<int> ints;
    std::vector<std::vector<int>> lists;

    friend bool operator==(const Payload&, const Payload&) = default;

    /// Canonical single-line rendering, e.g. `ECHO(3,7|[1,2],[4])`.
    /// Stable across runs; used for digests and traces.
    std::string to_string() const;

    /// Appends to_string()'s rendering to `out` without building a
    /// string of its own (the reference explorer's keys, core/).
    void render(TextWriter& out) const;

    /// Folds the payload into `h` without materializing any string:
    /// tag, then length-prefixed ints, then length-prefixed lists.  The
    /// explorer's per-message digests are built from exactly this byte
    /// stream, so every keying path (fast ghost hashing, the reduction
    /// layer's renamed hashing) shares one definition of "same payload".
    void fold(StateHasher& h) const;
};

/// A handle to an immutable Payload body, shared by every copy of a
/// message (see the file comment).  Reads through `*` and `->` give the
/// const body; no API hands out a mutable one.  A default-constructed
/// handle allocates nothing and reads as an empty Payload.
class SharedPayload {
public:
    SharedPayload() = default;

    /// Builds a fresh body from `payload` (one allocation).  Implicit, so
    /// a Payload goes wherever a message payload is expected:
    /// `out.send(q, make_payload(..))`.
    SharedPayload(Payload payload)
        : body_(std::make_shared<const Payload>(std::move(payload))) {}

    const Payload& operator*() const { return body_ ? *body_ : empty(); }
    const Payload* operator->() const { return &**this; }

    /// True iff both handles read the same body (identity, not content).
    bool same_body(const SharedPayload& other) const {
        return body_ == other.body_;
    }

    /// Content equality; handles of one body are equal without a walk.
    friend bool operator==(const SharedPayload& a, const SharedPayload& b) {
        return a.same_body(b) || *a == *b;
    }

private:
    /// The body every default-constructed handle reads.
    static const Payload& empty();

    std::shared_ptr<const Payload> body_;
};

/// Convenience factory for a payload with scalar fields only.
Payload make_payload(std::string tag, std::vector<int> ints = {});

/// Convenience factory for a payload with scalar and list fields.
Payload make_payload(std::string tag, std::vector<int> ints,
                     std::vector<std::vector<int>> lists);

}  // namespace ksa
