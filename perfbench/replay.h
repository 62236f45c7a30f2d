/**
 * @file
 * The traced replay: one served request re-run by calling each
 * layer's public functions directly, in the order a serve worker
 * calls them (AsyncPipeline's partition -> block FPS -> ball query
 * -> gather -> Network::run), with the same pool size, a warm
 * workspace, and the request's own partition passed on as the
 * network's root_partition. Every call is timed from here; nothing
 * inside src/ is instrumented.
 *
 * The replay is also the benchmark's reference path: the determinism
 * contract makes a served result bit-identical to it, so the digest
 * of a replayed result is what every served output is checked
 * against.
 */
#ifndef FC_PERFBENCH_REPLAY_H
#define FC_PERFBENCH_REPLAY_H

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/workspace.h"
#include "storage/fcpc_reader.h"

namespace fcb {

/** Timed spans and work counts of one replayed request. */
struct LayerSample
{
    double read_block_us = 0.0; ///< FcpcReader::readBlock (stored inputs)
    double partition_us = 0.0;  ///< Partitioner::partitionInto
    double fps_us = 0.0;        ///< ops::blockFarthestPointSample
    double ball_query_us = 0.0; ///< ops::blockBallQuery
    double gather_us = 0.0;     ///< ops::blockGatherNeighborhoods
    double nn_run_us = 0.0;     ///< nn::Network::run (0 without one)
    /** First layer call to last return, storage read excluded (the
     *  served request starts after its cloud was read). */
    double wall_us = 0.0;

    std::uint64_t elements_traversed = 0;
    std::uint64_t distance_computations = 0;
    std::uint64_t bytes_gathered = 0;
    std::uint64_t macs = 0;
    std::uint64_t sa_mlp_rows = 0;

    /** Sum of the layer spans inside wall_us. */
    double
    layersUs() const
    {
        return partition_us + fps_us + ball_query_us + gather_us +
               nn_run_us;
    }
};

/** One serve worker's replay state: pool, warm workspace, result. */
class Replayer
{
  public:
    /** @p pool_threads: 1 = inline (no pool), n = a pool of n, the
     *  size a served request runs its block items on. */
    Replayer(const fc::PipelineOptions &pipeline, unsigned pool_threads);

    /**
     * Run @p request on @p cloud into @p out, timing each layer call.
     * With @p nn_metrics set, Network::run also records its per-stage
     * nn.stage_us histograms there (the nn split).
     */
    LayerSample run(const fc::data::PointCloud &cloud,
                    const fc::BatchRequest &request, fc::BatchResult &out,
                    fc::core::metrics::Registry *nn_metrics = nullptr);

  private:
    fc::PipelineOptions pipeline_;
    std::unique_ptr<fc::core::ThreadPool> pool_;
    fc::core::Workspace ws_;
};

/** One request of a replay pass. */
struct ReplayItem
{
    /** In-memory input, or null to read block @p block of
     *  @p reader (timed as the storage layer). */
    const fc::data::PointCloud *cloud = nullptr;
    fc::storage::FcpcReader *reader = nullptr;
    std::size_t block = 0;

    const fc::BatchRequest *request = nullptr;
    /** Reference digest the replayed result must match. */
    std::uint64_t digest = 0;
};

/** Result of a replay pass. */
struct ReplayPass
{
    std::vector<LayerSample> samples;
    std::uint64_t mismatches = 0;
    double wall_s = 0.0;
};

/**
 * Replay @p items on @p lanes concurrent replayers (lane l takes
 * items l, l + lanes, ...), mirroring how many requests a served
 * pipeline runs at once and on how many threads each. Stops at the
 * end of the list or once @p budget_s has elapsed (every lane still
 * replays at least one item). Digests are compared after each
 * request's spans close.
 */
ReplayPass replayLanes(const fc::PipelineOptions &pipeline, unsigned lanes,
                       unsigned pool_threads,
                       const std::vector<ReplayItem> &items,
                       double budget_s,
                       fc::core::metrics::Registry *nn_metrics);

/** Digest of @p cloud's request replayed once (reference path). */
std::uint64_t referenceDigest(Replayer &replayer,
                              const fc::data::PointCloud &cloud,
                              const fc::BatchRequest &request);

} // namespace fcb

#endif // FC_PERFBENCH_REPLAY_H
