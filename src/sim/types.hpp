#pragma once
// Core vocabulary types for the message-passing simulation substrate.
//
// The substrate implements the computing model the paper adopts from
// Dolev, Dwork and Stockmeyer ("On the minimal synchronism needed for
// distributed consensus", JACM 1987), extended with the paper's 6th
// dimension: failure-detector queries at the beginning of each step.
//
// A system is a set of n deterministic process state machines
// communicating through per-process message buffers.  A *run* is a
// sequence of configurations where each configuration follows from a
// single atomic step of a single process.  The i-th step of a run is
// said to occur at (global, discrete) time i; processes have no access
// to time.

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ksa {

/// Process identifier.  Processes are numbered 1..n as in the paper; 0 is
/// never a valid id and is used as a sentinel in a few internal places.
using ProcessId = int;

/// Discrete global time: the index of a step in a run.  The first step of
/// a run occurs at time 1.
using Time = std::int64_t;

/// Proposal / decision values.  The paper assumes a finite value universe
/// V with |V| > n so that all-distinct-inputs runs exist; callers pick the
/// concrete values.
using Value = int;

/// Sentinel used in a few dense tables; the public API uses
/// std::optional<Value> for "no decision yet" (the paper's bottom).
inline constexpr Value kNoValue = std::numeric_limits<Value>::min();

/// Maximum time sentinel ("never").
inline constexpr Time kNever = std::numeric_limits<Time>::max();

/// Base class of all exceptions thrown by the library.  Invariant
/// violations *inside* the simulator (which would mean the reproduction
/// itself is broken) throw SimulationBug; misuse of the public API throws
/// UsageError.
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// An algorithm or driver used the library incorrectly (e.g. decided
/// twice, sent to a process id out of range).
class UsageError : public Error {
public:
    explicit UsageError(const std::string& what) : Error(what) {}
};

/// The simulator detected an internal inconsistency.
class SimulationBug : public Error {
public:
    explicit SimulationBug(const std::string& what) : Error(what) {}
};

// The two checks below run on hot paths with literal messages, so they
// take a view and build the exception's std::string only on failure: a
// check that holds costs no allocation, however long its message.

/// Throws UsageError with `what` when `cond` is false.
inline void require(bool cond, std::string_view what) {
    if (!cond) throw UsageError(std::string(what));
}

/// Throws SimulationBug with `what` when `cond` is false.
inline void invariant(bool cond, std::string_view what) {
    if (!cond) throw SimulationBug(std::string(what));
}

}  // namespace ksa
