/**
 * @file
 * Shared pieces of the served-path benchmark (fc_perfbench).
 *
 * The benchmark drives fc::serve::AsyncPipeline end to end on two
 * workloads (workloads.cc), checks every served result against a
 * digest of the same request replayed layer by layer (replay.cc),
 * and reports metrics by name with their units (main.cc prints them
 * and the final JSON line).
 *
 * Percentiles are nearest-rank over raw per-request samples; the
 * library's core::metrics histograms are read only through their
 * exact sum() and count().
 */
#ifndef FC_PERFBENCH_BENCH_H
#define FC_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"

namespace fcb {

using Clock = std::chrono::steady_clock;

/** Microseconds between two steady-clock points (may be negative). */
inline double
micros(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

/** Command line of one benchmark run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** false: served run, end-to-end metrics. true: served run plus
     *  the layer-by-layer replay, per-layer metrics. */
    bool trace = false;
    /** Directory for generated input files (the .fcpc of
     *  scene-ingest). */
    std::string workdir = ".";
};

/** One named result value. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run reports back to main(). */
struct Report
{
    /** Every served output matched its reference digest. */
    bool correct = true;
    std::uint64_t attempted = 0;
    /** Rejected, expired, cancelled, failed, or mismatched. */
    std::uint64_t failed = 0;
    /** End-to-end metrics (trace off) or per-layer metrics (trace
     *  on), in print order. */
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the metrics (sample
     *  counts, chosen percentiles, notes). */
    std::vector<std::string> notes;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/** Nearest-rank percentile (q in (0, 1]) of @p sorted; 0 if empty. */
double percentile(const std::vector<double> &sorted, double q);

/** A tail latency: its value, which percentile, and of how many
 *  samples. */
struct Tail
{
    double value = 0.0;
    double pct = 50.0; ///< percentile reported, e.g. 95
    std::size_t samples = 0;
};

/**
 * Percentile @p pct of @p sorted when at least ten samples lie beyond
 * it. Each workload fixes @p pct from its expected sample count, so
 * the reported tail keeps one meaning from run to run; a run with too
 * few samples falls back to the highest of 99, 95, 90, 75 and 50
 * that still has ten beyond it.
 */
Tail tailOf(const std::vector<double> &sorted, double pct);

double mean(const std::vector<double> &values);

/** Sorted copy. */
std::vector<double> sorted(std::vector<double> values);

/** 64-bit content digest of one served result (every output field). */
std::uint64_t digestResult(const fc::BatchResult &result);

/** Current resident set size of this process, in MiB. Reads
 *  /proc/self/statm with plain syscalls: no heap allocation, so it
 *  may run inside an allocation-counted window. */
double residentMb();

/** Hand freed heap memory back to the OS, so memory freed earlier
 *  (by set-up, reference runs or finished requests) does not count in
 *  later residentMb() samples. */
void trimHeap();

std::string formatDouble(double value);

} // namespace fcb

#endif // FC_PERFBENCH_BENCH_H
