/**
 * @file
 * Latency-percentile bench for the async serving frontend.
 *
 * Sweeps offered load (burst size) on a fixed 4-thread serving pool
 * and reports per-request latency percentiles (submit -> terminal)
 * under the work-conserving scheduler: bursts smaller than the pool
 * spill their intra-cloud block items into the idle slots. The
 * one-cloud-per-thread ablation was deleted; its last measurement is
 * in docs/BENCHMARKS.md ("Measured: deleted ablations").
 */

#include <algorithm>
#include <chrono>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "serve/async_pipeline.h"

namespace {

constexpr unsigned kPoolThreads = 4;
constexpr std::size_t kCloudPoints = 4096;
constexpr std::size_t kMinSamplesPerRow = 32;
const std::size_t kBurstSizes[] = {1, 2, 4, 8};

fc::BatchRequest
request()
{
    fc::BatchRequest req;
    req.sample_rate = 0.25;
    req.radius = 0.2f;
    req.neighbors = 32;
    return req;
}

/** Millisecond latency at percentile @p p (nearest-rank). */
double
percentileMs(std::vector<double> &latencies, double p)
{
    std::sort(latencies.begin(), latencies.end());
    const std::size_t rank = static_cast<std::size_t>(
        p * static_cast<double>(latencies.size() - 1) + 0.5);
    return latencies[std::min(rank, latencies.size() - 1)];
}

struct BurstMeasurement
{
    std::vector<double> latencies_ms;
    double wall_seconds = 0.0;
};

/** Submit bursts of @p burst clouds until >= kMinSamplesPerRow
 *  requests retire; returns submit->finish latencies and the total
 *  wall time spent (for throughput). */
BurstMeasurement
measureBursts(std::size_t burst,
              const std::vector<fc::data::PointCloud> &clouds)
{
    fc::serve::ServeOptions options;
    options.pipeline.num_threads = kPoolThreads;
    options.queue_capacity = burst;
    fc::serve::AsyncPipeline server(options);

    BurstMeasurement measurement;
    fc::serve::RequestOutcome outcome;
    std::size_t next_cloud = 0;
    const auto start = std::chrono::steady_clock::now();
    while (measurement.latencies_ms.size() < kMinSamplesPerRow) {
        std::vector<fc::serve::Ticket> tickets;
        for (std::size_t i = 0; i < burst; ++i) {
            tickets.push_back(server.submit(
                clouds[next_cloud++ % clouds.size()], request()));
        }
        for (const fc::serve::Ticket ticket : tickets) {
            server.waitInto(ticket, outcome);
            const std::chrono::duration<double, std::milli> latency =
                outcome.timing.finished - outcome.timing.submitted;
            measurement.latencies_ms.push_back(latency.count());
        }
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    measurement.wall_seconds = elapsed.count();
    return measurement;
}

void
latencyTable()
{
    std::vector<fc::data::PointCloud> clouds;
    for (std::uint64_t seed = 0; seed < 8; ++seed)
        clouds.push_back(
            fc::data::makeS3disScene(kCloudPoints, 200 + seed));

    fc::Table table({"burst", "p50 ms", "p99 ms", "clouds/s"});
    for (const std::size_t burst : kBurstSizes) {
        BurstMeasurement m = measureBursts(burst, clouds);
        table.addRow(
            {std::to_string(burst),
             fc::Table::num(percentileMs(m.latencies_ms, 0.50)),
             fc::Table::num(percentileMs(m.latencies_ms, 0.99)),
             fc::Table::num(static_cast<double>(m.latencies_ms.size()) /
                            m.wall_seconds)});
    }
    fcb::emit(table, "bench_serve_latency",
              "Async serving latency, " +
                  std::to_string(kPoolThreads) +
                  "-thread pool (hardware threads: " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ")");
}

/** Micro kernel: submit/wait round-trip overhead on a tiny cloud. */
void
BM_SubmitWaitRoundtrip(benchmark::State &state)
{
    fc::serve::ServeOptions options;
    options.pipeline.num_threads =
        static_cast<unsigned>(state.range(0));
    fc::serve::AsyncPipeline server(options);
    const fc::data::PointCloud cloud = fc::data::makeS3disScene(512, 3);
    fc::serve::RequestOutcome outcome;
    for (auto _ : state) {
        server.waitInto(server.submit(cloud, request()), outcome);
        benchmark::DoNotOptimize(outcome.result.sampled.indices.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SubmitWaitRoundtrip)->Arg(1)->Arg(4);

} // namespace

FC_BENCH_MAIN(latencyTable)
