#pragma once
// The paper's solvability landscape, synthesized.
//
// For a given system size n, classifies every (f, k) pair in three
// settings and marks *which technique* decides it:
//
//   * initial crashes (Section VI): EXACT -- solvable iff k*n > (k+1)*f
//     (Theorem 8; both directions are realized by this library);
//   * general crashes, asynchronous/partially synchronous communication:
//     impossible when k*(n-f) <= n-1 (Theorem 2 -- the "easy" proof),
//     solvable when k >= f+1 (flooding); the band in between is where
//     the easy partitioning technique does not reach and algebraic
//     topology is needed (the true border is k <= f, Borowsky-Gafni /
//     Herlihy-Shavit / Saks-Zaharoglou) -- those cells are classified
//     kImpossibleTopology to make the coverage of the paper's technique
//     visible;
//   * the failure detector family (Sigma_k, Omega_k): exact border at
//     k = 1 and k = n-1 (Theorem 10 + Corollary 13).

#include <string>
#include <vector>

#include "sim/types.hpp"

namespace ksa::core {

/// Classification of one cell, with the deciding technique.
enum class Verdict {
    kSolvable,            ///< an algorithm in this library achieves it
    kImpossibleEasy,      ///< Theorems 2/8/10: the paper's reduction
    kImpossibleTopology,  ///< true border (k <= f) but outside the easy
                          ///< technique's reach
};

/// Renders a verdict as a single map character: S / X / x.
char verdict_char(Verdict v);

/// Initial-crash setting (exact, Theorem 8).
Verdict initial_crash_verdict(int n, int f, int k);

/// General-crash asynchronous setting (Theorem 2 + flooding + the
/// topological bound for the gap).
Verdict async_crash_verdict(int n, int f, int k);

/// (Sigma_k, Omega_k) setting (Theorem 10 + Corollary 13); f plays no
/// role ((n-1)-resilience).
Verdict detector_verdict(int n, int k);

/// One row of the rendered map.
struct BorderRow {
    int f = 0;
    std::string initial;   ///< cell chars for k = 1..n-1
    std::string async_;    ///< cell chars for k = 1..n-1
};

/// The full map for system size n, rows f = 1..n-1.
std::vector<BorderRow> border_map(int n);

/// Row-parallel overload: rows are independent (each cell verdict is a
/// pure function of (n, f, k)), computed via
/// exec::parallel_map_grained and returned in row order -- the
/// result is byte-identical to border_map(n) for every thread count.
/// Mostly a minimal worked example of the parallel-sweep recipe
/// (doc/performance.md); it pays off for the large-n bench sweeps.
std::vector<BorderRow> border_map(int n, int threads);

/// The detector line for k = 1..n-1.
std::string detector_line(int n);

}  // namespace ksa::core
