/**
 * @file
 * Thread-scaling bench for pool-driven nn::Network inference.
 *
 * Reports end-to-end Network::run latency at 1/2/4/8 threads on a
 * scene-scale cloud, for the Fractal block backend (per-stage
 * re-partition + block ops + MLPs + pooling all on the pool) and the
 * global (None) backend, whose MLP/pooling rows still dispatch over
 * the pool. The determinism tests guarantee every row computes a
 * bit-identical InferenceResult; this table shows what the threads
 * buy. Speedups are relative to the 1-thread row of the same mode and
 * are bounded by the machine's actual core count (a 1-core container
 * shows ~1x everywhere).
 */

#include <memory>

#include "bench_common.h"
#include "core/parallel.h"
#include "nn/models.h"
#include "nn/network.h"

namespace {

constexpr std::size_t kScenePoints = 8192;

const unsigned kThreadSweep[] = {1, 2, 4, 8};

const fc::nn::Network &
network()
{
    static const fc::nn::Network net(fc::nn::pointNet2SemSeg(), 42);
    return net;
}

fc::nn::BackendOptions
backend(fc::part::Method method, fc::core::ThreadPool *pool)
{
    fc::nn::BackendOptions options;
    options.method = method;
    options.threshold = 256;
    options.pool = pool;
    return options;
}

void
scalingTable()
{
    const fc::data::PointCloud &scene = fcb::scene(kScenePoints);
    const fc::nn::Network &net = network();

    struct Mode
    {
        const char *name;
        fc::part::Method method;
    };
    const Mode modes[] = {{"fractal-blocks", fc::part::Method::Fractal},
                          {"global-ops", fc::part::Method::None}};

    fc::Table table({"mode", "threads", "ms", "points/s", "Mmacs",
                     "speedup"});
    for (const Mode &mode : modes) {
        double base = 0.0;
        for (const unsigned threads : kThreadSweep) {
            std::unique_ptr<fc::core::ThreadPool> pool;
            if (threads > 1)
                pool = std::make_unique<fc::core::ThreadPool>(threads);
            fc::nn::InferenceResult result;
            const double seconds = fcb::bestSeconds(
                [&] {
                    result = net.run(
                        scene, backend(mode.method, pool.get()));
                    benchmark::DoNotOptimize(
                        result.point_features.data().data());
                },
                2);
            if (threads == 1)
                base = seconds;
            table.addRow(
                {mode.name, std::to_string(threads),
                 fc::Table::num(seconds * 1e3),
                 fc::Table::num(static_cast<double>(kScenePoints) /
                                seconds / 1e3) +
                     "K",
                 fc::Table::num(static_cast<double>(result.total_macs) /
                                1e6),
                 fc::Table::mult(base / seconds)});
        }
    }
    fcb::emit(table, "bench_network_scaling",
              "Pool-driven Network inference scaling (hardware "
              "threads: " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ")");
}

/** Micro kernel: one pooled SA-stage MLP forward. */
void
BM_NetworkInferThreads(benchmark::State &state)
{
    const fc::data::PointCloud &scene = fcb::scene(4096);
    const unsigned threads = static_cast<unsigned>(state.range(0));
    std::unique_ptr<fc::core::ThreadPool> pool;
    if (threads > 1)
        pool = std::make_unique<fc::core::ThreadPool>(threads);
    for (auto _ : state) {
        const fc::nn::InferenceResult result = network().run(
            scene, backend(fc::part::Method::Fractal, pool.get()));
        benchmark::DoNotOptimize(result.embedding.data().data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(scene.size()));
}
BENCHMARK(BM_NetworkInferThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

} // namespace

FC_BENCH_MAIN(scalingTable)
