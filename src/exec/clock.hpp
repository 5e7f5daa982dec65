#pragma once
// The execution layer's wall clock.
//
// Everything under src/sim and src/chaos is deterministic by decree:
// ksa_analyze's `wall-clock-outside-bench` rule bans std::chrono clocks
// there, because a time-dependent branch would break byte-identical
// replay.  Graceful degradation still needs *some* notion of elapsed
// time -- a resilience-sweep trial on a pathological profile must abort
// to `inconclusive` rather than stall ctest.  This header is the one
// sanctioned source of wall time below bench/: it lives in src/exec
// (exempt from the rule, like the threading primitives), and callers are
// expected to use it only to *stop* work, never to influence what a
// run computes.

#include <cstdint>

namespace ksa::exec {

/// Milliseconds on a monotonic clock, for elapsed-time budgets.  The
/// absolute value is meaningless; only differences are.
// ksa: thread_safe -- stateless read of the monotonic clock.
std::int64_t steady_now_ms();

}  // namespace ksa::exec
