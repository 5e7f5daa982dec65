// E10 -- the synthesized solvability landscape: for each n, the (f, k)
// map of the three settings the paper treats, with the technique that
// decides each cell.
//
//   S = solvable, achieved by an algorithm in this library
//   X = impossible by the paper's "easy" reduction (Theorems 2/8/10)
//   x = impossible only by the topological bound (k <= f) -- the band
//       the paper's Section I contrasts its technique against
//
// The map makes the paper's coverage claim visual: in the initial-crash
// setting and the detector setting the easy technique is EXACT; in the
// general asynchronous setting it reaches k <= (n-1)/(n-f) of the true
// k <= f border.

#include <algorithm>
#include <iomanip>
#include <iostream>

#include "bench_util.hpp"
#include "core/border_map.hpp"
#include "exec/task_scheduler.hpp"
#include "sim/types.hpp"

int main(int argc, char** argv) try {
    using namespace ksa;
    // Rows are computed in parallel and printed in row order; output is
    // byte-identical for every thread count.
    const int threads =
        argc > 1 ? bench::parse_threads(argv[1]) : exec::hardware_threads();
    std::cout << "E10: solvability maps (columns k = 1.." << "n-1)\n";
    std::cout << "  S solvable here | X impossible (easy reduction) | "
                 "x impossible (topology only)\n";

    for (int n : {4, 6, 8, 10, 12, 16}) {
        std::cout << "\nn = " << n << "\n";
        std::cout << "  (Sigma_k,Omega_k), any f:  " << core::detector_line(n)
                  << "\n";
        const int width = std::max(n + 1, 15);
        std::cout << std::setw(6) << "f" << "  " << std::left
                  << std::setw(width) << "initial-crash" << "async-crash"
                  << std::right << "\n";
        for (const core::BorderRow& row : core::border_map(n, threads)) {
            std::cout << std::setw(6) << row.f << "  " << std::left
                      << std::setw(width) << row.initial << row.async_
                      << std::right << "\n";
        }
    }

    std::cout << "\nreading guide: each string has one character per k; the\n"
                 "initial-crash column flips S exactly at k > f/(n-f)\n"
                 "(Theorem 8); the async column is X up to (n-1)/(n-f)\n"
                 "(Theorem 2), x up to f (topology), S from f+1 (flooding).\n";
    return 0;
} catch (const ksa::Error& e) {
    std::cerr << "bench_border_map: " << e.what() << "\n";
    return 2;
}
