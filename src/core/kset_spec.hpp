#pragma once
// The k-set agreement problem specification as run validators
// (Section II-A):
//
//   k-Agreement:  processes decide on at most k different values
//                 (binding correct *and* faulty processes -- for k = 1
//                 this is uniform consensus);
//   Validity:     every decision was proposed by some process;
//   Termination:  every correct process eventually decides (on a finite
//                 prefix: the prefix is decisive, i.e. did not end at the
//                 step limit with undecided correct processes).

#include <string>
#include <vector>

#include "sim/run.hpp"

namespace ksa::core {

/// Result of validating one run against the k-set agreement spec.
struct KSetCheck {
    bool k_agreement = true;
    bool validity = true;
    bool termination = true;
    std::vector<std::string> violations;

    bool ok() const { return k_agreement && validity && termination; }
};

/// Validates `run` against k-set agreement for the given k.
KSetCheck check_kset_agreement(const Run& run, int k);

/// The same check, reading per-process facts from `tally`, which must
/// be run.tally() (a caller that runs several checkers walks once).
KSetCheck check_kset_agreement(const Run& run, int k, const RunTally& tally);

/// Convenience for tests/benches: validates and throws UsageError with a
/// readable message on failure.
void expect_kset_agreement(const Run& run, int k);

}  // namespace ksa::core
