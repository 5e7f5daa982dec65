#pragma once
// Admissibility checking for recorded run prefixes.
//
// The asynchronous model MASYNC (Section II, following FLP) admits a run
// iff (1) every correct process takes an infinite number of steps,
// (2) faulty processes take only finitely many steps and may omit sends
// to a subset of receivers in their very last step, and (3) every message
// sent to a correct receiver is eventually received.  On a finite
// decisive prefix these conditions become checkable:
//
//   (1') every correct process took steps until it decided (termination
//        itself is a problem-level property checked in core/),
//   (2') every planned crash was realized exactly (the System enforces
//        the "at most" direction; the checker verifies "exactly"),
//   (3') at quiescence, no message addressed to a correct process is
//        still buffered.
//
// A run that stopped at the step limit is reported as inconclusive
// rather than inadmissible: it is the finite signature of a termination
// violation, which the callers in core/ treat as such.

#include <string>
#include <vector>

#include "sim/run.hpp"

namespace ksa {

/// Result of an admissibility check.
struct AdmissibilityReport {
    bool admissible = true;    ///< no violation found
    bool conclusive = true;    ///< false iff the prefix hit the step limit
    std::vector<std::string> violations;

    /// Appends a violation and clears `admissible`.
    void fail(std::string what) {
        admissible = false;
        violations.push_back(std::move(what));
    }
};

/// Checks conditions (1')-(3') above on a recorded prefix.
AdmissibilityReport check_admissibility(const Run& run);

/// The same check, reading per-process facts from `tally`, which must
/// be run.tally() (a caller that runs several checkers walks once).
AdmissibilityReport check_admissibility(const Run& run, const RunTally& tally);

}  // namespace ksa
