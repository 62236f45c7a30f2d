/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries.
 *
 * Every bench binary:
 *   1. runs its google-benchmark kernels (micro timings of the
 *      functional implementations), then
 *   2. prints the paper's table/figure as ASCII and writes it as CSV
 *      next to the binary.
 */

#ifndef FC_BENCH_BENCH_COMMON_H
#define FC_BENCH_BENCH_COMMON_H

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/alloc_count.h"
#include "common/logging.h"
#include "common/table.h"
#include "dataset/s3dis.h"

namespace fcb {

/** Cached S3DIS-like scenes keyed by size (seed fixed at 1). */
inline const fc::data::PointCloud &
scene(std::size_t n)
{
    static std::map<std::size_t, fc::data::PointCloud> cache;
    auto it = cache.find(n);
    if (it == cache.end())
        it = cache.emplace(n, fc::data::makeS3disScene(n, 1)).first;
    return it->second;
}

/** Best-of-reps wall time of @p fn, in seconds. */
template <typename Fn>
double
bestSeconds(Fn &&fn, int reps)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        best = std::min(best, elapsed.count());
    }
    return best;
}

/** Median heap allocations and median wall milliseconds of one call. */
struct Sample
{
    std::uint64_t allocs = 0;
    double ms = 0.0;
};

/** Median-of-reps measurement of @p fn. Allocations count only in a
 *  binary that includes common/alloc_hook.h (zero otherwise). */
template <typename Fn>
Sample
measure(Fn &&fn, int reps)
{
    std::vector<std::uint64_t> allocs;
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        const std::uint64_t before = fc::heapAllocCount();
        const auto start = std::chrono::steady_clock::now();
        fn();
        const std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - start;
        allocs.push_back(fc::heapAllocCount() - before);
        ms.push_back(elapsed.count());
    }
    std::sort(allocs.begin(), allocs.end());
    std::sort(ms.begin(), ms.end());
    return {allocs[allocs.size() / 2], ms[ms.size() / 2]};
}

/** Print a finished table and write `<name>.csv` beside the binary. */
inline void
emit(const fc::Table &table, const std::string &name,
     const std::string &caption)
{
    std::printf("\n=== %s ===\n%s\n", caption.c_str(),
                table.render().c_str());
    const std::string path = name + ".csv";
    if (table.writeCsv(path))
        std::printf("(rows also written to %s)\n", path.c_str());
}

/** Shared main: run registered google-benchmark kernels, then the
 *  table generator supplied by the binary. */
#define FC_BENCH_MAIN(table_fn)                                         \
    int                                                                 \
    main(int argc, char **argv)                                         \
    {                                                                   \
        fc::logLevel() = fc::LogLevel::Silent;                          \
        ::benchmark::Initialize(&argc, argv);                           \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv))       \
            return 1;                                                   \
        ::benchmark::RunSpecifiedBenchmarks();                          \
        ::benchmark::Shutdown();                                        \
        table_fn();                                                     \
        return 0;                                                       \
    }

} // namespace fcb

#endif // FC_BENCH_BENCH_COMMON_H
