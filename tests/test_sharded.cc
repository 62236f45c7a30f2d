/**
 * @file
 * Tests for the sharded, priority-aware serving runtime:
 * core::ShardMap placement, shard-count determinism of served results
 * (byte-identical to the unsharded path at shard counts {1,2,4} x
 * thread counts {1,2,8}), weighted priority aging (no starvation
 * under sustained Interactive load), cancellation of queued
 * low-priority tickets, shard-local work-conserving spill, and
 * waitInto's bounded (timeout) form. The CI TSan job runs every
 * suite here that starts a thread (via the Sharded*, Priority*, and
 * WaitFor* filter entries); the ShardMap ring tests start none.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <gtest/gtest.h>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/metrics.h"
#include "core/pipeline.h"
#include "core/shard_map.h"
#include "dataset/s3dis.h"
#include "serve/async_pipeline.h"
#include "serve/run_batch.h"
#include "serve/scheduler.h"

#include "consume.h"

namespace fc {
namespace {

using serve::AsyncPipeline;
using serve::Priority;
using serve::RequestOutcome;
using serve::RequestState;
using serve::Scheduler;
using serve::ServeOptions;
using serve::Stage;
using serve::Ticket;

std::shared_ptr<const data::PointCloud>
sharedScene(std::size_t n, std::uint64_t seed)
{
    return std::make_shared<const data::PointCloud>(
        data::makeS3disScene(n, seed));
}

/** Smallest key >= @p from that the map places on @p shard. */
std::uint64_t
keyOnShard(const core::ShardMap &map, unsigned shard,
           std::uint64_t from = 1)
{
    for (std::uint64_t key = from;; ++key) {
        if (map.shardFor(key) == shard)
            return key;
    }
}

/** One-shot gate: a worker parks in arriveAndWait() until release(). */
struct StageGate
{
    std::mutex mutex;
    std::condition_variable cv;
    bool reached = false;
    bool released = false;

    void
    arriveAndWait()
    {
        std::unique_lock<std::mutex> lock(mutex);
        reached = true;
        cv.notify_all();
        cv.wait(lock, [this] { return released; });
    }

    void
    awaitReached()
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return reached; });
    }

    void
    release()
    {
        std::lock_guard<std::mutex> lock(mutex);
        released = true;
        cv.notify_all();
    }
};

// ------------------------------------------------------------ ShardMap

TEST(ShardMap, SingleShardMapsEveryKeyToZero)
{
    const core::ShardMap map(1);
    for (std::uint64_t key = 0; key < 1000; ++key)
        EXPECT_EQ(map.shardFor(key), 0u);
}

TEST(ShardMap, PlacementIsDeterministicAndBalanced)
{
    constexpr unsigned kShards = 4;
    constexpr std::uint64_t kKeys = 20000;
    const core::ShardMap a(kShards);
    const core::ShardMap b(kShards);

    std::vector<std::size_t> hits(kShards, 0);
    for (std::uint64_t key = 1; key <= kKeys; ++key) {
        const unsigned shard = a.shardFor(key);
        ASSERT_LT(shard, kShards);
        // Pure function of (key, shard count): identical across
        // instances.
        EXPECT_EQ(shard, b.shardFor(key));
        ++hits[shard];
    }
    // Consistent hashing with 64 replicas is not perfectly uniform,
    // but no shard may be starved or dominant.
    for (unsigned s = 0; s < kShards; ++s) {
        EXPECT_GT(hits[s], kKeys / 20) << "shard " << s << " starved";
        EXPECT_LT(hits[s], kKeys / 2) << "shard " << s << " dominant";
    }
}

TEST(ShardMap, SmallKeysReachEveryShard)
{
    // Keys hash in a domain of their own: the first ticket ids and
    // small session keys must spread like any others, not collide
    // with shard 0's ring points (mix(k) for k < kReplicas is one).
    for (const unsigned shards : {2u, 4u}) {
        const core::ShardMap map(shards);
        std::vector<std::size_t> hits(shards, 0);
        for (std::uint64_t key = 1; key <= 64; ++key)
            ++hits[map.shardFor(key)];
        for (unsigned s = 0; s < shards; ++s)
            EXPECT_GT(hits[s], 0u)
                << "shards=" << shards << ": no key in 1..64 on shard "
                << s;
    }
}

TEST(ShardMap, GrowingTheRingMovesFewKeys)
{
    constexpr std::uint64_t kKeys = 20000;
    const core::ShardMap small(4);
    const core::ShardMap big(5);
    std::uint64_t moved = 0;
    for (std::uint64_t key = 1; key <= kKeys; ++key) {
        const unsigned before = small.shardFor(key);
        const unsigned after = big.shardFor(key);
        if (before != after) {
            ++moved;
            // Consistency: a key only ever moves TO the new shard —
            // shards 0-3 own the same ring points in both maps.
            EXPECT_EQ(after, 4u);
        }
    }
    // Expected ~1/5 of keys; anything under half proves the ring is
    // consistent rather than rehash-everything.
    EXPECT_LT(moved, kKeys / 2);
    EXPECT_GT(moved, 0u);
}

// ------------------------------------------------------- ShardedServe

/** Blocking-path baseline for one cloud (sequential pipeline). */
BatchResult
blockingBaseline(const data::PointCloud &cloud,
                 const BatchRequest &request)
{
    PipelineOptions options;
    options.num_threads = 1;
    const FractalCloudPipeline pipeline(cloud, options);
    BatchResult out;
    out.sampled = pipeline.sample(request.sample_rate);
    out.grouped =
        pipeline.group(out.sampled, request.radius, request.neighbors);
    out.gathered = pipeline.gather(out.sampled, out.grouped);
    out.partition_stats = pipeline.partition().stats;
    out.num_blocks = pipeline.tree().leaves().size();
    return out;
}

void
expectResultsIdentical(const BatchResult &a, const BatchResult &b)
{
    EXPECT_EQ(a.sampled.indices, b.sampled.indices);
    EXPECT_EQ(a.sampled.positions, b.sampled.positions);
    EXPECT_EQ(a.sampled.leaf_offsets, b.sampled.leaf_offsets);
    EXPECT_EQ(a.grouped.indices, b.grouped.indices);
    EXPECT_EQ(a.grouped.counts, b.grouped.counts);
    // Bit-exact float comparison is intentional: shard placement and
    // spill scheduling must not change a single operation.
    EXPECT_EQ(a.gathered.values, b.gathered.values);
    EXPECT_EQ(a.num_blocks, b.num_blocks);
    EXPECT_EQ(a.partition_stats.num_splits, b.partition_stats.num_splits);
}

TEST(ShardedServe, ResultsIdenticalAcrossShardAndThreadCounts)
{
    std::vector<data::PointCloud> clouds;
    for (std::uint64_t seed = 300; seed < 304; ++seed)
        clouds.push_back(data::makeS3disScene(1024, seed));

    BatchRequest request;
    request.sample_rate = 0.25;
    request.radius = 0.25f;
    request.neighbors = 16;

    std::vector<BatchResult> baseline;
    for (const data::PointCloud &cloud : clouds)
        baseline.push_back(blockingBaseline(cloud, request));

    const Priority classes[] = {Priority::Interactive, Priority::Batch,
                                Priority::Background};
    for (const unsigned shards : {1u, 2u, 4u}) {
        for (const unsigned threads : {1u, 2u, 8u}) {
            SCOPED_TRACE("shards=" + std::to_string(shards) +
                         " threads=" + std::to_string(threads));
            ServeOptions options;
            options.pipeline.num_threads = threads;
            options.num_shards = shards;
            options.queue_capacity = clouds.size();
            AsyncPipeline server(options);
            EXPECT_EQ(server.numShards(), shards);
            EXPECT_EQ(server.numThreads(), threads);

            std::vector<Ticket> tickets;
            for (std::size_t i = 0; i < clouds.size(); ++i) {
                // Mix priority classes: the class may reorder
                // execution but never the per-request bytes.
                tickets.push_back(server.submit(
                    clouds[i], request, std::nullopt, classes[i % 3]));
            }
            for (std::size_t i = 0; i < tickets.size(); ++i) {
                const RequestOutcome outcome = consume(server, tickets[i]);
                ASSERT_EQ(outcome.state, RequestState::Done)
                    << outcome.error;
                EXPECT_LT(outcome.shard, shards);
                EXPECT_EQ(outcome.priority, classes[i % 3]);
                expectResultsIdentical(outcome.result, baseline[i]);
            }
        }
    }
}

TEST(ShardedServe, PlacementKeyPinsRequestsToOneShard)
{
    ServeOptions options;
    options.pipeline.num_threads = 1;
    options.num_shards = 4;
    options.queue_capacity = 16;
    AsyncPipeline server(options);

    const data::PointCloud cloud = data::makeS3disScene(512, 310);
    constexpr std::uint64_t kSessionKey = 0xfeedface;

    std::vector<Ticket> tickets;
    for (int i = 0; i < 6; ++i)
        tickets.push_back(server.submit(cloud, {}, std::nullopt,
                                        Priority::Interactive,
                                        kSessionKey));
    const unsigned expected =
        core::ShardMap(4).shardFor(kSessionKey);
    for (const Ticket t : tickets) {
        const RequestOutcome outcome = consume(server, t);
        ASSERT_EQ(outcome.state, RequestState::Done);
        EXPECT_EQ(outcome.shard, expected)
            << "equal placement keys must land on one shard";
    }
}

TEST(ShardedServe, SpillStaysOnHomeShard)
{
    // 2 shards x 2 threads at the scheduler level. Shard 0 is
    // saturated (3 requests in flight >= 2 threads) while shard 1 is
    // fully idle: the acquired requests must run inline — block
    // items never leave their shard — and the survivor starts
    // spilling onto its own pool at a checkpoint once shard 0's
    // in-flight count drops below its threads.
    core::metrics::Registry registry;
    Scheduler scheduler(/*queue_capacity=*/16, /*num_threads=*/2,
                        /*num_shards=*/2, &registry);
    const core::ShardMap map(2);
    const std::uint64_t key0 = keyOnShard(map, 0);
    const auto cloud = sharedScene(64, 311);

    std::vector<Ticket> tickets;
    for (int i = 0; i < 3; ++i)
        tickets.push_back(*scheduler.trySubmit(
            cloud, {}, std::nullopt, Priority::Interactive, key0));
    EXPECT_EQ(scheduler.queuedCount(0), 3u);
    EXPECT_EQ(scheduler.queuedCount(1), 0u);

    const auto first = scheduler.acquire(0);
    ASSERT_TRUE(first);
    EXPECT_EQ(first->shard, 0u);
    EXPECT_FALSE(first->spill)
        << "a saturated shard must not spill, idle neighbor or not";
    const auto second = scheduler.acquire(0);
    ASSERT_TRUE(second);
    EXPECT_FALSE(second->spill);

    // 2 in flight (second running, third queued): still saturated.
    scheduler.complete(first->id);
    bool spill = second->spill;
    ASSERT_TRUE(scheduler.checkpoint(second->id, &spill));
    EXPECT_FALSE(spill);
    const auto third = scheduler.acquire(0);
    ASSERT_TRUE(third);
    EXPECT_FALSE(third->spill);

    // 1 in flight < 2 threads: the survivor spills at its next
    // checkpoint, onto its home shard's pool.
    scheduler.complete(third->id);
    ASSERT_TRUE(scheduler.checkpoint(second->id, &spill));
    EXPECT_TRUE(spill);
    EXPECT_EQ(scheduler.queuedCount(1) + scheduler.runningCount(1), 0u);
    scheduler.complete(second->id);

    EXPECT_FALSE(consume(scheduler, tickets[0]).spilled);
    EXPECT_TRUE(consume(scheduler, tickets[1]).spilled);
    EXPECT_FALSE(consume(scheduler, tickets[2]).spilled);
    EXPECT_EQ(registry.counter("serve.spill_same{shard=0}").value(), 1u);
    EXPECT_EQ(registry.counter("serve.spill_same{shard=1}").value(), 0u);
}

TEST(ShardedServe, RunBatchUnchangedByShardedRuntime)
{
    // The blocking wrapper (now defined in serve/run_batch.cc) keeps
    // its exact semantics: output order == input order, results
    // bit-identical to sequential pipelines.
    std::vector<data::PointCloud> clouds;
    for (std::uint64_t seed = 320; seed < 323; ++seed)
        clouds.push_back(data::makeS3disScene(768, seed));
    BatchRequest request;
    request.neighbors = 16;

    PipelineOptions options;
    options.num_threads = 2;
    const std::vector<BatchResult> batch =
        serve::runBatch(clouds, options, request);
    ASSERT_EQ(batch.size(), clouds.size());
    for (std::size_t i = 0; i < clouds.size(); ++i)
        expectResultsIdentical(batch[i],
                               blockingBaseline(clouds[i], request));
}

// -------------------------------------------------- PriorityScheduling

TEST(PriorityScheduling, BackloggedClassesShareByWeight)
{
    // Single shard, all three classes backlogged. The aging credits
    // must interleave classes roughly 8:4:1 — and strictly FIFO
    // within each class.
    Scheduler scheduler(/*queue_capacity=*/64, /*num_threads=*/1);
    const auto cloud = sharedScene(64, 330);

    std::map<std::uint64_t, Priority> submitted;
    for (int i = 0; i < 8; ++i) {
        for (const Priority p :
             {Priority::Interactive, Priority::Batch,
              Priority::Background}) {
            const auto t =
                scheduler.trySubmit(cloud, {}, std::nullopt, p);
            ASSERT_TRUE(t);
            submitted[t->id] = p;
        }
    }

    std::vector<Priority> order;
    std::map<Priority, std::vector<std::uint64_t>> per_class_ids;
    for (std::size_t i = 0; i < submitted.size(); ++i) {
        const auto job = scheduler.acquire(0);
        ASSERT_TRUE(job);
        const Priority p = submitted.at(job->id);
        order.push_back(p);
        per_class_ids[p].push_back(job->id);
        scheduler.complete(job->id);
    }

    // FIFO within each class.
    for (const auto &[p, ids] : per_class_ids) {
        EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()))
            << "class " << serve::priorityName(p)
            << " must pop in admission order";
        EXPECT_EQ(ids.size(), 8u);
    }

    // The first pop goes to the most interactive class, and while
    // all classes are backlogged (first 14 pops: Background still
    // has >= 1 queued afterwards), Interactive must lead Batch must
    // lead Background in pop counts.
    EXPECT_EQ(order.front(), Priority::Interactive);
    std::map<Priority, int> counts;
    for (std::size_t i = 0; i < 14; ++i)
        ++counts[order[i]];
    EXPECT_GT(counts[Priority::Interactive], counts[Priority::Batch]);
    EXPECT_GE(counts[Priority::Batch], counts[Priority::Background]);
    EXPECT_GE(counts[Priority::Background], 1)
        << "aging must pull Background forward under backlog";

    for (const auto &[id, p] : submitted)
        EXPECT_EQ(consume(scheduler, Ticket{id}).priority, p);
}

TEST(PriorityScheduling, BackgroundNotStarvedUnderInteractiveLoad)
{
    // One worker; the first request parks at its Started boundary
    // while one Background and 20 Interactive requests queue behind
    // it. Under 8:1 weighted aging the Background request must start
    // within ~9 pops — never after the whole Interactive backlog.
    ServeOptions options;
    options.pipeline.num_threads = 1;
    options.queue_capacity = 32;
    StageGate gate;
    std::mutex order_mutex;
    std::vector<std::uint64_t> started_order;
    options.stage_observer = [&](Ticket t, Stage stage) {
        if (stage != Stage::Started)
            return;
        {
            std::lock_guard<std::mutex> lock(order_mutex);
            started_order.push_back(t.id);
        }
        if (t.id == 1)
            gate.arriveAndWait();
    };
    AsyncPipeline server(options);

    const data::PointCloud cloud = data::makeS3disScene(256, 331);
    const Ticket first = server.submit(cloud, {});
    gate.awaitReached();

    const Ticket background = server.submit(
        cloud, {}, std::nullopt, Priority::Background);
    std::vector<Ticket> interactive;
    for (int i = 0; i < 20; ++i)
        interactive.push_back(server.submit(cloud, {}, std::nullopt,
                                            Priority::Interactive));
    gate.release();

    EXPECT_EQ(consume(server, first).state, RequestState::Done);
    const RequestOutcome bg = consume(server, background);
    EXPECT_EQ(bg.state, RequestState::Done);
    EXPECT_EQ(bg.priority, Priority::Background);
    std::size_t done_after_bg = 0;
    for (const Ticket t : interactive) {
        const RequestOutcome outcome = consume(server, t);
        EXPECT_EQ(outcome.state, RequestState::Done);
        if (outcome.timing.started > bg.timing.started)
            ++done_after_bg;
    }

    // The whole backlog was queued before the gate released, so the
    // single worker popped it in one deterministic aging sequence:
    // 8 Interactive pops (credit 8 each) before Background's credit
    // (1/pop) exceeds them at pop 9.
    std::lock_guard<std::mutex> lock(order_mutex);
    const auto it = std::find(started_order.begin(),
                              started_order.end(), background.id);
    ASSERT_NE(it, started_order.end());
    const std::size_t position =
        static_cast<std::size_t>(it - started_order.begin());
    EXPECT_GE(position, 2u) << "weights must favor Interactive first";
    EXPECT_LE(position, 10u) << "aging must bound Background's wait";
    EXPECT_GE(done_after_bg, 10u)
        << "most of the Interactive backlog should start after the "
           "aged Background request";
}

TEST(PriorityScheduling, CancelQueuedBackgroundTickets)
{
    // Queued low-priority tickets are retired unrun when cancelled,
    // even while higher classes keep the shard busy.
    ServeOptions options;
    options.pipeline.num_threads = 1;
    options.queue_capacity = 16;
    StageGate gate;
    std::atomic<int> background_started{0};
    options.stage_observer = [&](Ticket t, Stage stage) {
        if (t.id == 1 && stage == Stage::Started)
            gate.arriveAndWait();
        if (t.id > 1 && stage == Stage::Started)
            background_started.fetch_add(1);
    };
    AsyncPipeline server(options);

    const data::PointCloud cloud = data::makeS3disScene(256, 332);
    const Ticket running = server.submit(cloud, {});
    gate.awaitReached();

    std::vector<Ticket> background;
    for (int i = 0; i < 4; ++i)
        background.push_back(server.submit(
            cloud, {}, std::nullopt, Priority::Background));
    for (const Ticket t : background)
        EXPECT_TRUE(server.cancel(t));
    gate.release();

    EXPECT_EQ(consume(server, running).state, RequestState::Done);
    for (const Ticket t : background) {
        const RequestOutcome outcome = consume(server, t);
        EXPECT_EQ(outcome.state, RequestState::Cancelled);
        EXPECT_TRUE(outcome.result.sampled.indices.empty());
    }
    EXPECT_EQ(background_started.load(), 0)
        << "cancelled queued Background tickets must never run";
    EXPECT_EQ(server.liveRecordCount(), 0u);
}

// ------------------------------------------- WaitFor (bounded waitInto)

TEST(WaitFor, TimesOutWhileQueuedWithoutCancelling)
{
    ServeOptions options;
    options.pipeline.num_threads = 1;
    options.queue_capacity = 4;
    StageGate gate;
    options.stage_observer = [&](Ticket t, Stage stage) {
        if (t.id == 1 && stage == Stage::Started)
            gate.arriveAndWait();
    };
    AsyncPipeline server(options);

    const data::PointCloud cloud = data::makeS3disScene(512, 340);
    const Ticket running = server.submit(cloud, {});
    gate.awaitReached();
    const Ticket queued = server.submit(cloud, {});

    // Bounded wait on queued work: expires without consuming the
    // ticket, touching the outcome, or cancelling the request.
    RequestOutcome outcome;
    outcome.state = RequestState::Failed; // sentinel
    EXPECT_FALSE(server.waitInto(queued, outcome,
                                 std::chrono::milliseconds(50)));
    EXPECT_EQ(outcome.state, RequestState::Failed);
    EXPECT_EQ(server.state(queued), RequestState::Queued);

    gate.release();
    ASSERT_TRUE(
        server.waitInto(queued, outcome, std::chrono::seconds(60)));
    EXPECT_EQ(outcome.state, RequestState::Done);
    EXPECT_EQ(consume(server, running).state, RequestState::Done);
}

TEST(WaitFor, TimesOutWhileRunningThenCollects)
{
    ServeOptions options;
    options.pipeline.num_threads = 1;
    StageGate gate;
    options.stage_observer = [&](Ticket t, Stage stage) {
        if (t.id == 1 && stage == Stage::Partitioned)
            gate.arriveAndWait();
    };
    AsyncPipeline server(options);

    const Ticket t = server.submit(data::makeS3disScene(512, 341), {});
    gate.awaitReached();
    EXPECT_EQ(server.state(t), RequestState::Running);

    RequestOutcome outcome;
    EXPECT_FALSE(
        server.waitInto(t, outcome, std::chrono::milliseconds(50)));
    EXPECT_EQ(server.state(t), RequestState::Running)
        << "a timed-out waitInto must not cancel the request";

    gate.release();
    ASSERT_TRUE(server.waitInto(t, outcome, std::chrono::seconds(60)));
    EXPECT_EQ(outcome.state, RequestState::Done);
    EXPECT_FALSE(outcome.result.sampled.indices.empty());
}

TEST(WaitFor, ReturnsImmediatelyOnTerminalTickets)
{
    ServeOptions options;
    options.pipeline.num_threads = 1;
    AsyncPipeline server(options);
    const Ticket t = server.submit(data::makeS3disScene(512, 342), {});
    while (!server.poll(t))
        std::this_thread::yield();
    RequestOutcome outcome;
    ASSERT_TRUE(server.waitInto(t, outcome, std::chrono::milliseconds(0)))
        << "terminal outcome must be returned even with a zero timeout";
    EXPECT_EQ(outcome.state, RequestState::Done);
    EXPECT_EQ(server.liveRecordCount(), 0u);
}

} // namespace
} // namespace fc
