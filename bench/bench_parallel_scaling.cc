/**
 * @file
 * Thread-scaling bench for the block-parallel execution runtime.
 *
 * Reports throughput (clouds/s and points/s) at 1/2/4/8 threads on
 * synthetic scene-scale clouds, for
 *
 *   - single-cloud mode: one FractalCloudPipeline (partition + sample
 *     + group + gather), intra-cloud block parallelism only, and
 *   - batch mode: serve::runBatch over a batch of clouds, one cloud
 *     per work item (the serving shape).
 *
 * The determinism tests guarantee every row computes bit-identical
 * results; this table shows what the threads buy. Speedups are
 * relative to the 1-thread row of the same mode and are bounded by
 * the machine's actual core count (a 1-core container shows ~1x
 * everywhere).
 */

#include "bench_common.h"
#include "core/pipeline.h"
#include "serve/run_batch.h"

namespace {

constexpr std::size_t kSingleCloudPoints = 65536;
constexpr std::size_t kBatchClouds = 8;
constexpr std::size_t kBatchCloudPoints = 16384;

const unsigned kThreadSweep[] = {1, 2, 4, 8};

fc::PipelineOptions
options(unsigned threads)
{
    fc::PipelineOptions opt;
    opt.method = fc::part::Method::Fractal;
    opt.threshold = 256;
    opt.num_threads = threads;
    return opt;
}

/** One full single-cloud request: partition + sample + group + gather. */
void
runSingle(const fc::data::PointCloud &scene, unsigned threads)
{
    const fc::FractalCloudPipeline pipeline(scene, options(threads));
    const fc::ops::BlockSampleResult sampled = pipeline.sample(0.25);
    const fc::ops::NeighborResult grouped =
        pipeline.group(sampled, 0.2f, 32);
    const fc::ops::GatherResult gathered =
        pipeline.gather(sampled, grouped);
    benchmark::DoNotOptimize(gathered.values.data());
}

void
scalingTable()
{
    const fc::data::PointCloud &single = fcb::scene(kSingleCloudPoints);
    std::vector<fc::data::PointCloud> batch;
    for (std::size_t i = 0; i < kBatchClouds; ++i)
        batch.push_back(
            fc::data::makeS3disScene(kBatchCloudPoints, 100 + i));

    fc::BatchRequest request;
    request.sample_rate = 0.25;
    request.radius = 0.2f;
    request.neighbors = 32;

    fc::Table table({"mode", "threads", "ms", "clouds/s", "points/s",
                     "speedup"});
    double single_base = 0.0;
    double batch_base = 0.0;
    for (const unsigned threads : kThreadSweep) {
        const double single_s =
            fcb::bestSeconds([&] { runSingle(single, threads); }, 3);
        if (threads == 1)
            single_base = single_s;
        table.addRow(
            {"single-cloud", std::to_string(threads),
             fc::Table::num(single_s * 1e3),
             fc::Table::num(1.0 / single_s),
             fc::Table::num(static_cast<double>(kSingleCloudPoints) /
                            single_s / 1e6) +
                 "M",
             fc::Table::mult(single_base / single_s)});

        const double batch_s = fcb::bestSeconds(
            [&] {
                const auto results = fc::serve::runBatch(
                    batch, options(threads), request);
                benchmark::DoNotOptimize(results.data());
            },
            3);
        if (threads == 1)
            batch_base = batch_s;
        table.addRow(
            {"runBatch x" + std::to_string(kBatchClouds),
             std::to_string(threads), fc::Table::num(batch_s * 1e3),
             fc::Table::num(static_cast<double>(kBatchClouds) /
                            batch_s),
             fc::Table::num(static_cast<double>(kBatchClouds *
                                                kBatchCloudPoints) /
                            batch_s / 1e6) +
                 "M",
             fc::Table::mult(batch_base / batch_s)});
    }
    fcb::emit(table, "bench_parallel_scaling",
              "Block-parallel runtime scaling (hardware threads: " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ")");
}

/** Micro kernel: block FPS only, sequential vs pooled. */
void
BM_BlockFpsThreads(benchmark::State &state)
{
    const fc::data::PointCloud &scene = fcb::scene(16384);
    const unsigned threads = static_cast<unsigned>(state.range(0));
    const fc::FractalCloudPipeline pipeline(scene, options(threads));
    for (auto _ : state) {
        const fc::ops::BlockSampleResult sampled = pipeline.sample(0.25);
        benchmark::DoNotOptimize(sampled.indices.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(scene.size()));
}
BENCHMARK(BM_BlockFpsThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

} // namespace

FC_BENCH_MAIN(scalingTable)
