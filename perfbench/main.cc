/**
 * @file
 * fc_perfbench: the served-path benchmark.
 *
 *   fc_perfbench --workload scene-seg|scene-ingest
 *                --seed N --seconds S --trace 0|1 [--workdir DIR]
 *
 * Prints run metadata, notes and every metric by name with its unit,
 * then, as the last line of standard output, one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Exits 1 when any served output differs from its reference digest
 * (after printing the result) and 2 on bad arguments or set-up
 * failure (without printing one).
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "bench.h"
#include "common/logging.h"
#include "core/simd.h"
#include "workloads.h"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "fc_perfbench: %s\nusage: fc_perfbench --workload "
                 "scene-seg|scene-ingest --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR]\n",
                 why);
    return 2;
}

/** Steal and total jiffies of all cpus so far (0, 0 off Linux). */
struct CpuTicks
{
    unsigned long long steal = 0;
    unsigned long long total = 0;
};

CpuTicks
cpuTicks()
{
    CpuTicks t;
    std::FILE *f = std::fopen("/proc/stat", "r");
    if (f == nullptr)
        return t;
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
        t.steal = v[7];
        for (unsigned long long x : v)
            t.total += x;
    }
    std::fclose(f);
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
#ifdef __GLIBC__
    // One malloc arena for every thread. With glibc's per-thread
    // arenas, which worker first touches which arena varies from run
    // to run, and so did peak_rss_mb on scene-ingest, by up to 60 MiB.
    // Set before any thread starts.
    ::mallopt(M_ARENA_MAX, 1);
#endif
    fc::logLevel() = fc::LogLevel::Silent;
    fcb::RunOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value, &end, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value, &end);
        } else if (arg == "--trace") {
            options.trace = std::strcmp(value, "0") != 0;
        } else if (arg == "--workdir") {
            options.workdir = value;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
        if (end != nullptr && *end != '\0')
            return usage(("bad number for " + arg).c_str());
    }
    if (!(options.seconds > 0.0))
        return usage("--seconds must be positive");

    fcb::Report (*workload)(const fcb::RunOptions &) = nullptr;
    if (options.workload == "scene-seg")
        workload = fcb::sceneSeg;
    else if (options.workload == "scene-ingest")
        workload = fcb::sceneIngest;
    else
        return usage("unknown --workload");

    // Numbers from different SIMD arms, hosts, or builds are not
    // comparable; every result carries what produced it.
    std::printf("meta: workload=%s seed=%llu seconds=%g trace=%d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    std::printf("meta: simd=%s nproc=%u compiler=%s build=%s\n",
                fc::core::simd::levelName(fc::core::simd::activeLevel()),
                std::thread::hardware_concurrency(), FC_PERFBENCH_COMPILER,
                FC_PERFBENCH_BUILD_TYPE);
    std::fflush(stdout);

    const CpuTicks before = cpuTicks();
    fcb::Report report;
    try {
        report = workload(options);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fc_perfbench: %s\n", e.what());
        return 2;
    }
    // On a virtual machine, time the host gave to other guests slows
    // every timing; print it so that a noisy run can be told apart.
    const CpuTicks after = cpuTicks();
    if (after.total > before.total)
        std::printf("meta: cpu steal share while running = %.4f\n",
                    static_cast<double>(after.steal - before.steal) /
                        static_cast<double>(after.total - before.total));

    for (const std::string &note : report.notes)
        std::printf("note: %s\n", note.c_str());
    for (const fcb::Metric &m : report.metrics)
        std::printf("%-34s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string json = "{\"correct\": ";
    json += report.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const fcb::Metric &m = report.metrics[i];
        if (i > 0)
            json += ", ";
        json += "\"" + m.name + "\": {\"value\": " +
                fcb::formatDouble(m.value) + ", \"unit\": \"" + m.unit +
                "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return report.correct ? 0 : 1;
}
