#pragma once
// Messages and message identity.
//
// Sending a message (q, m) simply places m into q's buffer (Section II of
// the paper).  The simulator additionally stamps each message with a
// globally unique id and the time at which it was sent; schedulers select
// messages for delivery by id, which is what makes adversarial delivery
// control (delaying, reordering, partitioning) deterministic and
// replayable.

#include <cstdint>
#include <string>

#include "sim/payload.hpp"
#include "sim/types.hpp"

namespace ksa {

/// Unique message identifier, assigned by the System in send order.
using MessageId = std::uint64_t;

/// Ids at or above this bound belong to *injected* messages: clones
/// created by a kDuplicateMessage fault (src/chaos/).  A clone of source
/// message s is the d-th duplicate of s and gets id
///   kInjectedMessageIdBase + s.id * kMaxDuplicatesPerMessage + d,
/// a scheme chosen so that clone ids depend only on their own source --
/// removing an unrelated fault event during counterexample shrinking
/// leaves them stable, unlike a shared running counter would.
inline constexpr MessageId kInjectedMessageIdBase = MessageId{1} << 48;
inline constexpr MessageId kMaxDuplicatesPerMessage = 16;

/// Ids at or above this bound belong to Byzantine *corruption* forgeries:
/// a kCorruptMessage fault rewrites a buffered original s in place and
/// renames it to kCorruptionIdBase + s.id.  Like the duplicate scheme the
/// forged id depends only on its own source, so counterexample shrinking
/// can decide locally whether a recorded delivery of a forgery is still
/// satisfiable after fault events were removed.
inline constexpr MessageId kCorruptionIdBase = MessageId{1} << 56;

/// Ids at or above this bound belong to Byzantine *equivocation*
/// forgeries: a kEquivocate fault on an anchor message a rewrites every
/// in-flight sibling of a's broadcast into a receiver-specific variant
/// with id kEquivocationIdBase + a.id * kEquivocationFanout + receiver.
inline constexpr MessageId kEquivocationIdBase = MessageId{1} << 60;
inline constexpr MessageId kEquivocationFanout = 64;

/// True iff `id` was assigned by a fault event rather than a send
/// (duplicate clone, corruption forgery or equivocation forgery).
inline constexpr bool is_injected_message_id(MessageId id) {
    return id >= kInjectedMessageIdBase;
}

/// True iff `id` names a corruption forgery.
inline constexpr bool is_corruption_id(MessageId id) {
    return id >= kCorruptionIdBase && id < kEquivocationIdBase;
}

/// True iff `id` names an equivocation forgery.
inline constexpr bool is_equivocation_id(MessageId id) {
    return id >= kEquivocationIdBase;
}

/// The forged id of the corruption of original message `src`.
inline constexpr MessageId corrupted_message_id(MessageId src) {
    return kCorruptionIdBase + src;
}

/// The forged id of the equivocation variant of anchor message `anchor`
/// addressed to `receiver` (receiver < kEquivocationFanout).
inline constexpr MessageId equivocated_message_id(MessageId anchor,
                                                  ProcessId receiver) {
    return kEquivocationIdBase + anchor * kEquivocationFanout +
           static_cast<MessageId>(receiver);
}

/// A message in flight or delivered.  Value type; equality ignores the
/// simulator-assigned identity fields so that runs can be compared on
/// their communication content alone.  Copies share the payload body
/// (sim/payload.hpp), so copying a message allocates nothing.
struct Message {
    MessageId id = 0;    ///< unique, assigned by the System
    ProcessId from = 0;  ///< sender
    ProcessId to = 0;    ///< receiver
    Time sent_at = 0;    ///< global time of the sending step
    SharedPayload payload;

    /// Content equality: sender, receiver and payload (identity fields
    /// are simulator bookkeeping and excluded on purpose).
    friend bool content_equal(const Message& a, const Message& b) {
        return a.from == b.from && a.to == b.to && a.payload == b.payload;
    }

    /// Canonical rendering `from->to:payload` used in traces and digests.
    std::string to_string() const;
};

}  // namespace ksa
