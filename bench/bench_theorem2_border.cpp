// E1 -- Theorem 2 / Corollary 5: the impossibility border
// k <= (n-1)/(n-f) for partially synchronous processes with asynchronous
// communication.
//
// For every (n, f, k) in the sweep, prints whether the bound applies
// and, when it does, runs the full Theorem 1 certification against the
// f-resilient flooding candidate: conditions (A), (B), (D), the
// consensus split inside <D>, and the assembled admissible run with
// more than k distinct decisions.  On the solvable side of the border
// (k >= f+1), flooding genuinely solves k-set agreement and the sweep
// reports the observed maximum of distinct decisions instead.
//
// Points are certified in parallel (exec/parallel_map.hpp) and printed
// sequentially in sweep order, so the output is byte-identical for
// every thread count.  `bench_theorem2_border [threads]` defaults to
// the hardware concurrency.

#include <iomanip>
#include <iostream>

#include "algo/flooding.hpp"
#include "bench_util.hpp"
#include "core/bounds.hpp"
#include "core/kset_spec.hpp"
#include "core/theorem2.hpp"
#include "exec/parallel_map.hpp"
#include "exec/task_scheduler.hpp"
#include "sim/schedulers.hpp"
#include "sim/system.hpp"
#include "sim/types.hpp"

int main(int argc, char** argv) try {
    using namespace ksa;
    const int threads =
        argc > 1 ? bench::parse_threads(argv[1]) : exec::hardware_threads();

    std::cout << "E1: Theorem 2 border sweep (candidate: flooding, threshold "
                 "n-f)\n";
    std::cout << "bound applies iff k*(n-f) <= n-1; certificate columns show "
                 "the Theorem 1 conditions\n\n";
    std::cout << std::setw(4) << "n" << std::setw(4) << "f" << std::setw(4)
              << "k" << std::setw(8) << "bound" << std::setw(6) << "(A)"
              << std::setw(6) << "(B)" << std::setw(6) << "(D)" << std::setw(8)
              << "split" << std::setw(10) << "violate" << std::setw(10)
              << "#values" << "\n";

    // Step 1 (parallel-sweep recipe): materialize the iteration space.
    struct Point {
        int n, f, k;
    };
    std::vector<Point> points;
    for (int n : {4, 5, 6, 7, 8, 9, 10, 12})
        for (int f = 1; f < n; ++f)
            for (int k = 1; k <= 3; ++k) {
                if (k >= n) continue;
                if (core::theorem2_impossible(n, f, k))
                    points.push_back({n, f, k});
            }

    // Step 2: certify every point independently on the pool (grain 1:
    // few points, each one a full certification).
    exec::TaskScheduler pool(threads);
    std::vector<core::Theorem2Result> results = exec::parallel_map_grained(
        pool, points.size(), /*grain=*/1, [&points](std::size_t i, int) {
            const Point& pt = points[i];
            algo::FloodingKSet candidate(pt.n - pt.f);
            return core::run_theorem2(candidate, pt.n, pt.f, pt.k, 5000);
        });

    // Step 3: fold into the report sequentially, in sweep order.
    int certified = 0;
    const int total_impossible = static_cast<int>(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& pt = points[i];
        const auto& c = results[i].certificate;
        if (c.complete()) ++certified;
        std::cout << std::setw(4) << pt.n << std::setw(4) << pt.f
                  << std::setw(4) << pt.k << std::setw(8) << "yes"
                  << std::setw(6) << (c.condition_a ? "ok" : "-")
                  << std::setw(6) << (c.condition_b ? "ok" : "-")
                  << std::setw(6) << (c.condition_d ? "ok" : "-")
                  << std::setw(8) << (c.consensus_split ? "ok" : "-")
                  << std::setw(10) << (c.violation ? "YES" : "no")
                  << std::setw(10) << c.violating_values.size() << "\n";
    }
    std::cout << "\ncertified " << certified << "/" << total_impossible
              << " impossible points with a full Theorem 1 witness chain\n";

    std::cout << "\nSolvable side (k >= f+1): flooding achieves k-set "
                 "agreement\n";
    std::cout << std::setw(4) << "n" << std::setw(4) << "f" << std::setw(4)
              << "k" << std::setw(14) << "worst #vals" << std::setw(10)
              << "spec ok\n";

    struct SolvablePoint {
        int n, f;
    };
    std::vector<SolvablePoint> solvable;
    for (int n : {5, 7, 9})
        for (int f = 1; f <= 3; ++f) solvable.push_back({n, f});

    struct SolvableRow {
        int worst = 0;
        bool ok = true;
    };
    std::vector<SolvableRow> rows = exec::parallel_map_grained(
        pool, solvable.size(), /*grain=*/1, [&solvable](std::size_t i, int) {
            const auto [n, f] = solvable[i];
            const int k = f + 1;
            auto algorithm = algo::make_flooding(n, f);
            SolvableRow row;
            for (std::uint64_t seed = 1; seed <= 25; ++seed) {
                RandomScheduler sched(seed);
                Run run = execute_run(*algorithm, n, distinct_inputs(n), {},
                                      sched);
                row.worst = std::max(
                    row.worst,
                    static_cast<int>(run.distinct_decisions().size()));
                row.ok = row.ok && core::check_kset_agreement(run, k).ok();
            }
            return row;
        });
    for (std::size_t i = 0; i < solvable.size(); ++i) {
        const auto [n, f] = solvable[i];
        std::cout << std::setw(4) << n << std::setw(4) << f << std::setw(4)
                  << f + 1 << std::setw(14) << rows[i].worst << std::setw(10)
                  << (rows[i].ok ? "yes" : "NO") << "\n";
    }
    return certified == total_impossible ? 0 : 1;
} catch (const ksa::Error& e) {
    std::cerr << "bench_theorem2_border: " << e.what() << "\n";
    return 2;
}
