/**
 * @file
 * Bit-identical determinism of pool-driven nn::Network::run against
 * the sequential path, across every point-op backend and BWS/BWG/BWI
 * toggle set the paper ablates. These suites also run under TSan in
 * CI (with the parallel-splitRange suites) to catch data races in the
 * nn path.
 */

#include <gtest/gtest.h>
#include <string>

#include "core/parallel.h"
#include "core/pipeline.h"
#include "dataset/s3dis.h"
#include "nn/network.h"
#include "serve/run_batch.h"

namespace fc::nn {
namespace {

using core::ThreadPool;

/** Thread counts every determinism test sweeps. */
const unsigned kThreadSweep[] = {1, 2, 8};

/**
 * A compact segmentation network: two abstraction stages, two
 * propagation stages, and a head — every pool-driven code path
 * (sampling, grouping, gathering, MLP, pooling, interpolation, head)
 * at a fraction of the Table I models' cost.
 */
ModelConfig
tinySegModel()
{
    ModelConfig config;
    config.name = "tiny-seg";
    config.long_name = "compact segmentation network (tests)";
    config.task = Task::SemanticSegmentation;
    config.sa.resize(2);
    config.sa[0] = {0.25, 0.2f, 16, {16, 16}};
    config.sa[1] = {0.25, 0.4f, 16, {32, 32}};
    config.fp.resize(2);
    config.fp[0].mlp = {32};
    config.fp[1].mlp = {16};
    config.head = {8};
    config.num_classes = 8;
    return config;
}

/** Classification variant of the same scale. */
ModelConfig
tinyClsModel()
{
    ModelConfig config = tinySegModel();
    config.name = "tiny-cls";
    config.long_name = "compact classification network (tests)";
    config.task = Task::Classification;
    config.fp.clear();
    config.head = {32, 8};
    return config;
}

void
expectResultsIdentical(const InferenceResult &a,
                       const InferenceResult &b)
{
    // Bit-exact float comparison is intentional: the parallel
    // schedule must not change a single operation.
    EXPECT_EQ(a.embedding.data(), b.embedding.data());
    EXPECT_EQ(a.point_features.data(), b.point_features.data());
    EXPECT_EQ(a.total_macs, b.total_macs);

    EXPECT_EQ(a.op_stats.distance_computations,
              b.op_stats.distance_computations);
    EXPECT_EQ(a.op_stats.points_visited, b.op_stats.points_visited);
    EXPECT_EQ(a.op_stats.iterations, b.op_stats.iterations);
    EXPECT_EQ(a.op_stats.skipped, b.op_stats.skipped);
    EXPECT_EQ(a.op_stats.bytes_gathered, b.op_stats.bytes_gathered);

    EXPECT_EQ(a.partition_stats.elements_traversed,
              b.partition_stats.elements_traversed);
    EXPECT_EQ(a.partition_stats.traversal_passes,
              b.partition_stats.traversal_passes);
    EXPECT_EQ(a.partition_stats.num_sorts,
              b.partition_stats.num_sorts);
    EXPECT_EQ(a.partition_stats.sort_compares,
              b.partition_stats.sort_compares);
    EXPECT_EQ(a.partition_stats.degenerate_retries,
              b.partition_stats.degenerate_retries);
    EXPECT_EQ(a.partition_stats.num_splits,
              b.partition_stats.num_splits);
}

/** The BWS/BWG/BWI toggle sets of the BPPO ablation (Fig. 18). */
struct ToggleSet
{
    const char *name;
    bool bws, bwg, bwi;
};

const ToggleSet kToggleSweep[] = {
    {"all", true, true, true},
    {"bws-only", true, false, false},
    {"bwg-only", false, true, false},
    {"bwi-only", false, false, true},
};

TEST(NetworkParallelDeterminism, RunMatchesSequentialAcrossBackends)
{
    const Network net(tinySegModel(), 11);
    const data::PointCloud scene = data::makeS3disScene(4096, 31);

    const part::Method methods[] = {
        part::Method::None, part::Method::Fractal,
        part::Method::KdTree, part::Method::Octree};

    for (const part::Method method : methods) {
        const bool blocks = method != part::Method::None;
        for (const ToggleSet &toggles : kToggleSweep) {
            if (!blocks && std::string(toggles.name) != "all")
                continue; // None ignores the toggles.
            SCOPED_TRACE(part::methodName(method) + " " + toggles.name);

            BackendOptions backend;
            backend.method = method;
            backend.threshold = 128;
            backend.block_sampling = toggles.bws;
            backend.block_grouping = toggles.bwg;
            backend.block_interpolation = toggles.bwi;

            backend.pool = nullptr;
            const InferenceResult sequential = net.run(scene, backend);

            for (const unsigned threads : kThreadSweep) {
                SCOPED_TRACE("threads=" + std::to_string(threads));
                ThreadPool pool(threads);
                backend.pool = &pool;
                const InferenceResult parallel =
                    net.run(scene, backend);
                expectResultsIdentical(sequential, parallel);
            }
        }
    }
}

TEST(NetworkParallelDeterminism, ClassificationHeadMatchesSequential)
{
    const Network net(tinyClsModel(), 13);
    const data::PointCloud scene = data::makeS3disScene(2048, 32);

    BackendOptions backend;
    backend.method = part::Method::Fractal;
    backend.threshold = 64;

    backend.pool = nullptr;
    const InferenceResult sequential = net.run(scene, backend);
    ASSERT_EQ(sequential.embedding.cols(), net.outputDim());

    for (const unsigned threads : kThreadSweep) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ThreadPool pool(threads);
        backend.pool = &pool;
        expectResultsIdentical(sequential, net.run(scene, backend));
    }
}

TEST(NetworkParallelDeterminism, PipelineInferUsesThePipelinePool)
{
    // FractalCloudPipeline::infer passes its pool into the network;
    // the result must match a sequential pipeline bit for bit.
    const Network net(tinySegModel(), 17);
    const data::PointCloud scene = data::makeS3disScene(4096, 33);

    PipelineOptions sequential;
    sequential.threshold = 128;
    sequential.num_threads = 1;
    const InferenceResult baseline =
        FractalCloudPipeline(scene, sequential).infer(net);

    // infer() reuses the pipeline's partition for SA stage 0; that
    // must be invisible next to a from-scratch run (stats included).
    {
        BackendOptions scratch;
        scratch.method = part::Method::Fractal;
        scratch.threshold = 128;
        expectResultsIdentical(baseline, net.run(scene, scratch));
    }

    for (const unsigned threads : kThreadSweep) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        PipelineOptions options = sequential;
        options.num_threads = threads;
        const InferenceResult parallel =
            FractalCloudPipeline(scene, options).infer(net);
        expectResultsIdentical(baseline, parallel);
    }
}

TEST(NetworkParallelDeterminism, ServedInferenceMatchesBlockingInfer)
{
    // The serving path: runBatch with BatchRequest::network runs the
    // end-to-end inference stage on the serve pool; every per-cloud
    // InferenceResult must equal the blocking pipeline's.
    const Network net(tinySegModel(), 19);
    std::vector<data::PointCloud> clouds;
    for (std::uint64_t seed = 40; seed < 43; ++seed)
        clouds.push_back(data::makeS3disScene(2048, seed));

    PipelineOptions options;
    options.threshold = 128;
    options.num_threads = 1;
    BatchRequest request;
    request.network = &net;

    std::vector<InferenceResult> baseline;
    for (const data::PointCloud &cloud : clouds)
        baseline.push_back(
            FractalCloudPipeline(cloud, options).infer(net));

    for (const unsigned threads : kThreadSweep) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        PipelineOptions threaded = options;
        threaded.num_threads = threads;
        const std::vector<BatchResult> batch =
            serve::runBatch(clouds, threaded, request);
        ASSERT_EQ(batch.size(), clouds.size());
        for (std::size_t i = 0; i < clouds.size(); ++i) {
            SCOPED_TRACE("cloud " + std::to_string(i));
            ASSERT_TRUE(batch[i].inference.has_value());
            expectResultsIdentical(baseline[i], *batch[i].inference);
        }
    }
}

} // namespace
} // namespace fc::nn
