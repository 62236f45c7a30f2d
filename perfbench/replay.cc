#include "replay.h"

#include <exception>
#include <thread>

#include "nn/network.h"
#include "ops/fps.h"
#include "ops/gather.h"
#include "ops/neighbor.h"
#include "partition/partitioner.h"

namespace fcb {

Replayer::Replayer(const fc::PipelineOptions &pipeline,
                   unsigned pool_threads)
    : pipeline_(pipeline)
{
    if (pool_threads > 1)
        pool_ = std::make_unique<fc::core::ThreadPool>(pool_threads);
}

LayerSample
Replayer::run(const fc::data::PointCloud &cloud,
              const fc::BatchRequest &request, fc::BatchResult &out,
              fc::core::metrics::Registry *nn_metrics)
{
    // Same calls, arguments, and workspace slots as the serve
    // worker (AsyncPipeline::execute), minus its checkpoints.
    LayerSample s;
    fc::core::ThreadPool *pool = pool_.get();
    ws_.reset();

    const Clock::time_point t0 = Clock::now();
    fc::part::PartitionConfig config;
    config.threshold = pipeline_.threshold;
    fc::part::PartitionerCache &pcache =
        ws_.slot<fc::part::PartitionerCache>("srv.pcache");
    fc::part::PartitionResult &part =
        ws_.slot<fc::part::PartitionResult>("srv.part");
    pcache.get(pipeline_.method)
        .partitionInto(cloud, config, pool, ws_, part);
    const Clock::time_point t1 = Clock::now();

    fc::ops::FpsOptions fps;
    fps.window_check = pipeline_.window_check;
    fc::ops::blockFarthestPointSample(cloud, part.tree, request.sample_rate,
                                      fps, pool, ws_, out.sampled);
    const Clock::time_point t2 = Clock::now();

    fc::ops::blockBallQuery(cloud, part.tree, out.sampled, request.radius,
                            request.neighbors, pool, ws_, out.grouped);
    const Clock::time_point t3 = Clock::now();

    fc::ops::blockGatherNeighborhoods(cloud, part.tree, out.sampled.indices,
                                      out.sampled.leaf_offsets, out.grouped,
                                      pool, ws_, out.gathered);
    out.partition_stats = part.stats;
    out.num_blocks = part.tree.leaves().size();
    const Clock::time_point t4 = Clock::now();

    if (request.network != nullptr) {
        fc::nn::BackendOptions backend;
        backend.method = pipeline_.method;
        backend.threshold = pipeline_.threshold;
        backend.pool = pool;
        backend.aggregation = request.aggregation;
        backend.root_partition = &part;
        backend.metrics = nn_metrics;
        if (!out.inference)
            out.inference.emplace();
        request.network->run(cloud, backend, ws_, *out.inference);
    } else {
        out.inference.reset();
    }
    const Clock::time_point t5 = Clock::now();

    s.partition_us = micros(t0, t1);
    s.fps_us = micros(t1, t2);
    s.ball_query_us = micros(t2, t3);
    s.gather_us = micros(t3, t4);
    s.nn_run_us = request.network != nullptr ? micros(t4, t5) : 0.0;
    s.wall_us = micros(t0, t5);
    s.elements_traversed = part.stats.elements_traversed;
    s.distance_computations = out.sampled.stats.distance_computations +
                              out.grouped.stats.distance_computations;
    s.bytes_gathered = out.gathered.stats.bytes_gathered;
    if (out.inference) {
        s.macs = out.inference->total_macs;
        s.sa_mlp_rows = out.inference->sa_mlp_rows;
    }
    return s;
}

namespace {

struct Lane
{
    std::vector<LayerSample> samples;
    std::uint64_t mismatches = 0;
};

void
runLane(const fc::PipelineOptions &pipeline, unsigned pool_threads,
        const std::vector<ReplayItem> &items, std::size_t first,
        std::size_t stride, Clock::time_point deadline,
        fc::core::metrics::Registry *nn_metrics, Lane &lane)
{
    Replayer replayer(pipeline, pool_threads);
    fc::BatchResult out;
    fc::data::PointCloud stored;
    lane.samples.reserve(items.size() / stride + 1);
    for (std::size_t i = first; i < items.size(); i += stride) {
        if (i != first && Clock::now() >= deadline)
            break;
        const ReplayItem &item = items[i];
        try {
            double read_us = 0.0;
            const fc::data::PointCloud *cloud = item.cloud;
            if (cloud == nullptr) {
                const Clock::time_point r0 = Clock::now();
                const fc::storage::FcpcStatus status =
                    item.reader->readBlock(item.block, stored);
                read_us = micros(r0, Clock::now());
                if (status != fc::storage::FcpcStatus::Ok) {
                    ++lane.mismatches;
                    continue;
                }
                // The serve submitter builds the SoA mirror before
                // the request is admitted; so does the replay,
                // outside every span.
                (void)stored.soa();
                cloud = &stored;
            }
            LayerSample s =
                replayer.run(*cloud, *item.request, out, nn_metrics);
            s.read_block_us = read_us;
            lane.samples.push_back(s);
            if (digestResult(out) != item.digest)
                ++lane.mismatches;
        } catch (const std::exception &) {
            ++lane.mismatches;
        }
    }
}

} // namespace

ReplayPass
replayLanes(const fc::PipelineOptions &pipeline, unsigned lanes,
            unsigned pool_threads, const std::vector<ReplayItem> &items,
            double budget_s, fc::core::metrics::Registry *nn_metrics)
{
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(budget_s));
    std::vector<Lane> results(lanes);
    {
        // jthreads join on every exit from this scope, exceptions too.
        std::vector<std::jthread> threads;
        threads.reserve(lanes);
        for (unsigned l = 0; l < lanes; ++l)
            threads.emplace_back(runLane, std::cref(pipeline), pool_threads,
                                 std::cref(items), l, lanes, deadline,
                                 nn_metrics, std::ref(results[l]));
    }

    ReplayPass pass;
    pass.wall_s = micros(start, Clock::now()) / 1e6;
    for (Lane &lane : results) {
        pass.samples.insert(pass.samples.end(), lane.samples.begin(),
                            lane.samples.end());
        pass.mismatches += lane.mismatches;
    }
    return pass;
}

std::uint64_t
referenceDigest(Replayer &replayer, const fc::data::PointCloud &cloud,
                const fc::BatchRequest &request)
{
    fc::BatchResult out;
    replayer.run(cloud, request, out);
    return digestResult(out);
}

} // namespace fcb
