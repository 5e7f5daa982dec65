// E3 -- Theorem 8, border side: at k*n = (k+1)*f the problem becomes
// impossible; the standard partitioning argument produces a crash-free
// admissible run with k+1 distinct decisions.
//
// For each k, takes n = (k+1) * group for several group sizes, builds
// the k+1-way partition pasting against the generalized FLP protocol,
// and prints: the number of distinct decisions in the pasted run, the
// Definition 2 indistinguishability verdict between the isolated runs
// eps_i and the pasted run eps, and the admissibility verdict.
//
// Points are evaluated in parallel (exec/parallel_map.hpp) and printed
// sequentially in sweep order, so the output is byte-identical for
// every thread count.  `bench_theorem8_border [threads]` defaults to
// the hardware concurrency.

#include <iomanip>
#include <iostream>

#include "algo/initial_clique.hpp"
#include "bench_util.hpp"
#include "core/theorem8.hpp"
#include "exec/parallel_map.hpp"
#include "exec/task_scheduler.hpp"
#include "sim/types.hpp"

int main(int argc, char** argv) try {
    using namespace ksa;
    const int threads =
        argc > 1 ? bench::parse_threads(argv[1]) : exec::hardware_threads();

    std::cout << "E3: Theorem 8 border (k*n = (k+1)*f): the k+1-way "
                 "partition pasting\n\n";
    std::cout << std::setw(4) << "k" << std::setw(6) << "n" << std::setw(6)
              << "f" << std::setw(10) << "groups" << std::setw(12)
              << "#decided" << std::setw(10) << "indist" << std::setw(12)
              << "violation\n";

    struct Point {
        int k, n, f;
    };
    std::vector<Point> points;
    for (int k : {1, 2, 3, 4})
        for (int group : {2, 3}) {
            const int n = (k + 1) * group;
            points.push_back({k, n, k * n / (k + 1)});
        }

    // Grain 1: few points, each one a full pasting construction.
    exec::TaskScheduler pool(threads);
    std::vector<core::Theorem8Border> borders = exec::parallel_map_grained(
        pool, points.size(), /*grain=*/1, [&points](std::size_t i, int) {
            const Point& pt = points[i];
            auto algorithm = algo::make_flp_kset(pt.n, pt.f);
            return core::theorem8_border(*algorithm, pt.n, pt.k);
        });

    bool all = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& pt = points[i];
        const core::Theorem8Border& border = borders[i];
        all = all && border.violation;
        std::cout << std::setw(4) << pt.k << std::setw(6) << pt.n
                  << std::setw(6) << pt.f << std::setw(10) << pt.k + 1
                  << std::setw(12) << border.distinct_decisions
                  << std::setw(10)
                  << (border.paste.all_indistinguishable ? "yes" : "NO")
                  << std::setw(12) << (border.violation ? "YES" : "no")
                  << "\n";
    }
    std::cout << "\nevery row shows k+1 distinct decisions in an admissible "
                 "crash-free run -> k-agreement violated at the border\n";
    return all ? 0 : 1;
} catch (const ksa::Error& e) {
    std::cerr << "bench_theorem8_border: " << e.what() << "\n";
    return 2;
}
