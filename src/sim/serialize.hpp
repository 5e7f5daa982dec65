#pragma once
// Run serialization: a stable, line-oriented text format for recorded
// runs, with full-fidelity round-tripping of every field the run
// queries and validators consume (steps, deliveries, sends, omissions,
// detector samples, crash plans and realized Byzantine specs, fault
// events, decisions, digests).
//
// Uses: archiving counterexample runs produced by the impossibility
// engines, diffing runs across code changes, and replaying a run's
// schedule in a fresh process (see schedule_of()).  Also the integer
// parse the command-line tools read their flags with (parse_int_flag()).

#include <iosfwd>
#include <string>
#include <string_view>

#include "sim/run.hpp"
#include "sim/scheduler.hpp"

namespace ksa {

/// Writes `run` to `out` in the KSARUN-1 text format.
void write_run(std::ostream& out, const Run& run);

/// The same, as a string.
std::string run_to_string(const Run& run);

/// Parses a KSARUN-1 document.  Throws UsageError on malformed input.
Run read_run(std::istream& in);

/// The same, from a string.
Run run_from_string(const std::string& text);

/// Extracts the schedule of a recorded run: the exact StepChoice
/// sequence (process + delivered message ids) that, replayed through a
/// ScriptedScheduler against the same algorithm/inputs/plan/oracle,
/// reproduces the run bit for bit.
std::vector<StepChoice> schedule_of(const Run& run);

/// `text` as an int.  Anything but a whole int in range is a UsageError
/// naming the command-line flag --`flag` and the text; the command-line
/// tools parse every integer flag through it.
int parse_int_flag(std::string_view flag, std::string_view text);

}  // namespace ksa
