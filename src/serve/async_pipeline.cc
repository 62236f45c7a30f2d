#include "serve/async_pipeline.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/logging.h"
#include "core/topology.h"
#include "core/workspace.h"
#include "ops/fps.h"
#include "ops/gather.h"
#include "ops/neighbor.h"
#include "partition/partitioner.h"

namespace fc::serve {

AsyncPipeline::AsyncPipeline(const ServeOptions &options)
    : options_(options),
      scheduler_(options.queue_capacity,
                 core::ThreadPool::resolveThreadCount(
                     options.pipeline.num_threads),
                 std::max(1u, options.num_shards), &registry_)
{
    const unsigned num_shards = scheduler_.numShards();
    const unsigned threads =
        core::ThreadPool::resolveThreadCount(options.pipeline.num_threads);

    // NUMA-aware pinning: carve the detected topology into disjoint
    // per-shard cpu sets (shard s prefers node s % nodes) so each
    // shard's workers — and therefore its workspace pages — stay on
    // one socket. FC_NO_PIN=1 is the runtime escape hatch for hosts
    // where affinity is refused or harmful.
    std::vector<std::vector<int>> cpu_sets;
    pinned_ = options.pin_shards && !core::pinningDisabled();
    if (pinned_) {
        const core::CpuTopology topology = core::detectCpuTopology();
        if (topology.cpuCount() == 0)
            pinned_ = false;
        else
            cpu_sets =
                core::shardCpuAssignment(topology, num_shards, threads);
    }
    shards_.reserve(num_shards);
    for (unsigned s = 0; s < num_shards; ++s)
        shards_.push_back(std::make_unique<core::ThreadPool>(
            threads, /*standalone=*/true,
            pinned_ ? std::move(cpu_sets[s]) : std::vector<int>{}));

    static constexpr const char *kStageLabels[5] = {
        "partition", "sample", "group", "gather", "inference"};
    for (std::size_t i = 0; i < stage_us_.size(); ++i)
        stage_us_[i] = &registry_.histogram(
            std::string("serve.stage_us{stage=") + kStageLabels[i] +
            "}");
    rejected_ = &registry_.counter("serve.rejected");
}

AsyncPipeline::~AsyncPipeline()
{
    // Retire everything before the pool (and its queue) dies: after
    // shutdown() no executor task remains queued, so the pool's
    // destructor assertion (empty queue) holds.
    scheduler_.shutdown();
}

std::optional<Ticket>
AsyncPipeline::trySubmit(data::PointCloud cloud,
                         const BatchRequest &request,
                         std::optional<Clock::duration> deadline,
                         Priority priority, std::uint64_t placement_key)
{
    auto shared =
        std::make_shared<const data::PointCloud>(std::move(cloud));
    // Warm the cloud's SoA mirror on the submitter: the mirror is
    // lazy-rebuild-on-first-read and must be first-touched serially
    // (see PointCloud::soa), and a cloud shared across shards would
    // otherwise be first-touched by two workers at once. Admission is
    // the last point that sees the cloud single-threaded; once built,
    // re-submits of the same cloud reduce to one clean flag check.
    (void)shared->soa();

    // One pool task per request, on the shard the scheduler
    // placed it on (returned by the admission call itself — no
    // second lock to read it back).
    unsigned shard = 0;
    std::optional<Ticket> ticket =
        scheduler_.trySubmit(std::move(shared), request, deadline,
                             priority, placement_key, &shard);
    if (ticket)
        shards_[shard]->submitDetached([this, shard] { execute(shard); });
    else
        rejected_->add();
    return ticket;
}

Ticket
AsyncPipeline::submitShared(std::shared_ptr<const data::PointCloud> cloud,
                            const BatchRequest &request,
                            std::optional<Clock::duration> deadline,
                            Priority priority,
                            std::uint64_t placement_key)
{
    (void)cloud->soa(); // serial first-touch; see trySubmit
    unsigned shard = 0;
    std::optional<Ticket> ticket =
        scheduler_.submitBlocking(std::move(cloud), request, deadline,
                                  priority, placement_key, &shard);
    fc_assert(ticket.has_value(),
              "submit on a shutting-down AsyncPipeline");
    shards_[shard]->submitDetached([this, shard] { execute(shard); });
    return *ticket;
}

Ticket
AsyncPipeline::submit(data::PointCloud cloud, const BatchRequest &request,
                      std::optional<Clock::duration> deadline,
                      Priority priority, std::uint64_t placement_key)
{
    return submitShared(
        std::make_shared<const data::PointCloud>(std::move(cloud)),
        request, deadline, priority, placement_key);
}

void
AsyncPipeline::notifyObserver(std::uint64_t id, Stage stage)
{
    if (options_.stage_observer)
        options_.stage_observer(Ticket{id}, stage);
}

void
AsyncPipeline::execute(unsigned shard)
{
    std::optional<Scheduler::Job> job = scheduler_.acquire(shard);
    if (!job)
        return; // the popped request was retired (cancelled/expired)

    // Spill: hand a shard's pool to a stage so the request's
    // per-block work items fill idle slots — its own shard's when
    // whole requests can't saturate it, a fully idle neighbor's when
    // its own is busy; otherwise the stage runs inline on this
    // worker (one cloud per thread). The decision is re-evaluated at
    // every checkpoint (all chunks have joined there): a request
    // acquired at saturation starts spilling once capacity frees
    // anywhere, and a borrowed neighbor is released one stage after
    // it receives its own work. Identical results either way; only
    // the schedule differs. (A one-thread spill target degenerates
    // to inline: its TaskGroup would run chunks on this waiter
    // anyway.)
    int spill_shard = job->spill_shard;
    const auto pool = [&]() -> core::ThreadPool * {
        if (spill_shard < 0)
            return nullptr;
        core::ThreadPool &target =
            *shards_[static_cast<unsigned>(spill_shard)];
        return target.numThreads() > 1 ? &target : nullptr;
    };
    const std::uint64_t id = job->id;
    const data::PointCloud &cloud = *job->cloud;

    // Per-stage service-time telemetry: lap() charges the time since
    // the previous boundary to one stage histogram. The two
    // steady-clock reads per stage cost nanoseconds against
    // millisecond stages; with sampling off the record itself is a
    // load + branch.
    Clock::time_point stage_mark = Clock::now();
    const auto lap = [&](unsigned stage_index) {
        const Clock::time_point now = Clock::now();
        if (now > stage_mark)
            stage_us_[stage_index]->record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    now - stage_mark)
                    .count()));
        else
            stage_us_[stage_index]->record(0);
        stage_mark = now;
    };

    // The result payload lives in the slot the scheduler checked out
    // of this shard's slab; stages write into it in place (the Into
    // ops clear what they fill), so a recycled slot's stale content
    // is never observable. The workspace holds the intermediates
    // (the partition, op scratch, the inference stage's level
    // buffers) in memory grown by earlier requests of this shard.
    // Both stay the scheduler's: every retirement (checkpoint,
    // failure, complete) returns the workspace, and every one but
    // complete() returns the slot, so neither is touched after it.
    BatchResult &out = *job->result;
    core::Workspace &ws = *job->workspace;
    try {
        notifyObserver(id, Stage::Started);
        if (!scheduler_.checkpoint(id, &spill_shard))
            return;

        part::PartitionConfig config;
        config.threshold = options_.pipeline.threshold;
        part::PartitionerCache &pcache =
            ws.slot<part::PartitionerCache>("srv.pcache");
        part::PartitionResult &part =
            ws.slot<part::PartitionResult>("srv.part");
        pcache.get(options_.pipeline.method)
            .partitionInto(cloud, config, pool(), ws, part);
        lap(0); // partition
        notifyObserver(id, Stage::Partitioned);
        if (!scheduler_.checkpoint(id, &spill_shard))
            return;

        ops::FpsOptions fps;
        fps.window_check = options_.pipeline.window_check;
        ops::blockFarthestPointSample(cloud, part.tree,
                                      job->request.sample_rate, fps,
                                      pool(), ws, out.sampled);
        lap(1); // sample
        notifyObserver(id, Stage::Sampled);
        if (!scheduler_.checkpoint(id, &spill_shard))
            return;

        ops::blockBallQuery(cloud, part.tree, out.sampled,
                            job->request.radius,
                            job->request.neighbors, pool(), ws,
                            out.grouped);
        lap(2); // group
        notifyObserver(id, Stage::Grouped);
        if (!scheduler_.checkpoint(id, &spill_shard))
            return;

        ops::blockGatherNeighborhoods(
            cloud, part.tree, out.sampled.indices,
            out.sampled.leaf_offsets, out.grouped, pool(), ws,
            out.gathered);
        out.partition_stats = part.stats;
        out.num_blocks = part.tree.leaves().size();
        lap(3); // gather

        if (job->request.network != nullptr) {
            // End-to-end inference stage: the serving pool drives the
            // network's internals (per-stage re-partition, block ops,
            // MLPs, pooling), all drawing from this ticket's warm
            // workspace. Extra checkpoint first — inference is the
            // most expensive stage, so cancels/deadlines issued
            // during gathering are honored before it starts.
            if (!scheduler_.checkpoint(id, &spill_shard))
                return;
            stage_mark = Clock::now(); // exclude checkpoint wait
            nn::BackendOptions backend;
            backend.method = options_.pipeline.method;
            backend.threshold = options_.pipeline.threshold;
            backend.pool = pool();
            backend.aggregation = job->request.aggregation;
            // Stage 0 of the network reuses the partition this
            // request already built instead of recomputing it.
            backend.root_partition = &part;
            // Per-stage FPS/neighbor/MLP timings land in this
            // pipeline's registry (nn.stage_us{stage=...}).
            backend.metrics = &registry_;
            // Engage (don't re-emplace) the optional: a recycled
            // slot's engaged InferenceResult keeps its tensor
            // capacity, which run() reuses in place.
            if (!out.inference)
                out.inference.emplace();
            job->request.network->run(cloud, backend, ws,
                                      *out.inference);
            lap(4); // inference
        } else {
            // A recycled slot may carry a stale inference payload
            // from a previous network request; waiters key on the
            // optional's engagement.
            out.inference.reset();
        }
    } catch (...) {
        job->cloud.reset(); // see Scheduler::Job::cloud
        scheduler_.fail(id, std::current_exception());
        return;
    }
    job->cloud.reset();
    scheduler_.complete(id);
}

} // namespace fc::serve
