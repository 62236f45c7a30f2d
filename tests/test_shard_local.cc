/**
 * @file
 * Shard-local memory, proven:
 *
 *  - topology parsing / per-shard cpu carving (disjoint, node-major,
 *    deterministic wrap) and the FC_NO_PIN escape hatch,
 *  - served results bit-identical pinned vs unpinned across shard
 *    and thread counts,
 *  - the scheduler's per-shard workspaces: creation counts stay flat
 *    per shard under pinned mixed-class load,
 *  - the scheduler's per-shard result slots: fresh and reused
 *    (dirty) outcomes match serve::runBatch byte for byte, reused
 *    slots never alias a live result, requests that stop early hand
 *    their slot back, a stale inference payload never survives into
 *    a point-ops result, and slot counts stay bounded by
 *    concurrency.
 *
 * The CI TSan filter runs both suites (ShardedLocality via Sharded*,
 * and AsyncPipelineOutcome.*).
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/topology.h"
#include "dataset/s3dis.h"
#include "nn/models.h"
#include "nn/network.h"
#include "serve/async_pipeline.h"
#include "serve/run_batch.h"
#include "serve/scheduler.h"
#include "serve/stats.h"

#include "consume.h"

namespace {

using namespace fc;

// ---------------------------------------------------------------------
// Topology carving
// ---------------------------------------------------------------------

core::CpuTopology
twoNodeTopology()
{
    core::CpuTopology t;
    t.nodes = {{0, 1, 2, 3}, {4, 5, 6, 7}};
    return t;
}

TEST(ShardedLocality, DetectedTopologyIsNonEmpty)
{
    const core::CpuTopology t = core::detectCpuTopology();
    ASSERT_GE(t.nodes.size(), 1u);
    EXPECT_GE(t.cpuCount(), 1u);
    for (const std::vector<int> &node : t.nodes)
        for (const int cpu : node)
            EXPECT_GE(cpu, 0);
}

TEST(ShardedLocality, AssignmentPrefersHomeNodeAndStaysDisjoint)
{
    const auto sets =
        core::shardCpuAssignment(twoNodeTopology(), 2, 2);
    ASSERT_EQ(sets.size(), 2u);
    // Shard s prefers node s % nodes: shard 0 draws from node 0,
    // shard 1 from node 1.
    EXPECT_EQ(sets[0], (std::vector<int>{0, 1}));
    EXPECT_EQ(sets[1], (std::vector<int>{4, 5}));
}

TEST(ShardedLocality, AssignmentCoversEveryCpuOnceBeforeWrapping)
{
    const auto sets =
        core::shardCpuAssignment(twoNodeTopology(), 4, 2);
    ASSERT_EQ(sets.size(), 4u);
    std::set<int> seen;
    for (const std::vector<int> &cpus : sets) {
        ASSERT_EQ(cpus.size(), 2u);
        for (const int cpu : cpus)
            EXPECT_TRUE(seen.insert(cpu).second)
                << "cpu " << cpu << " assigned twice before the "
                << "topology was exhausted";
    }
    EXPECT_EQ(seen.size(), 8u);
}

TEST(ShardedLocality, OversubscribedAssignmentWrapsDeterministically)
{
    core::CpuTopology one_node;
    one_node.nodes = {{0, 1}};
    const auto first = core::shardCpuAssignment(one_node, 2, 4);
    const auto second = core::shardCpuAssignment(one_node, 2, 4);
    EXPECT_EQ(first, second); // pure function of its inputs
    for (const std::vector<int> &cpus : first) {
        ASSERT_EQ(cpus.size(), 4u);
        for (const int cpu : cpus)
            EXPECT_TRUE(cpu == 0 || cpu == 1);
    }
}

TEST(ShardedLocality, FcNoPinDisablesPinningAtRuntime)
{
    const auto pinned = [](bool pin_shards) {
        serve::ServeOptions options;
        options.pipeline.num_threads = 1;
        options.num_shards = 2;
        options.pin_shards = pin_shards;
        return serve::AsyncPipeline(options).pinned();
    };
    ASSERT_EQ(::setenv("FC_NO_PIN", "1", 1), 0);
    EXPECT_TRUE(core::pinningDisabled());
    EXPECT_FALSE(pinned(true));
    EXPECT_FALSE(pinned(false));
    // "0" means enabled — the knob is a boolean, not mere presence.
    ASSERT_EQ(::setenv("FC_NO_PIN", "0", 1), 0);
    EXPECT_FALSE(core::pinningDisabled());
    ASSERT_EQ(::unsetenv("FC_NO_PIN"), 0);
    EXPECT_FALSE(core::pinningDisabled());
    EXPECT_TRUE(pinned(true));
    EXPECT_FALSE(pinned(false));
}

// ---------------------------------------------------------------------
// Pinning never changes results
// ---------------------------------------------------------------------

TEST(ShardedLocality, ServedResultsIdenticalAcrossPinningShardsThreads)
{
    const data::PointCloud scene = data::makeS3disScene(2048, 31);
    BatchRequest request;
    request.sample_rate = 0.25;
    request.radius = 0.3f;
    request.neighbors = 8;

    PipelineOptions reference_options;
    reference_options.num_threads = 1;
    reference_options.threshold = 64;
    const std::vector<BatchResult> baseline =
        serve::runBatch({scene}, reference_options, request);
    ASSERT_EQ(baseline.size(), 1u);

    const auto cloud =
        std::make_shared<const data::PointCloud>(scene);
    for (const unsigned shards : {1u, 2u, 4u}) {
        for (const bool pin : {true, false}) {
            for (const unsigned threads : {1u, 2u, 8u}) {
                SCOPED_TRACE("shards=" + std::to_string(shards) +
                             " pin=" + std::to_string(pin) +
                             " threads=" + std::to_string(threads));
                serve::ServeOptions options;
                options.pipeline.num_threads = threads;
                options.pipeline.threshold = 64;
                options.num_shards = shards;
                options.pin_shards = pin;
                serve::AsyncPipeline server(options);
                // Distinct placement keys spread the requests over
                // shards; results must not care where they land.
                for (std::uint64_t key : {7ull, 8ull, 9ull}) {
                    serve::RequestOutcome outcome;
                    server.waitInto(
                        server.submitShared(cloud, request,
                                            std::nullopt,
                                            serve::Priority::Interactive,
                                            key),
                        outcome);
                    ASSERT_EQ(outcome.state,
                              serve::RequestState::Done);
                    EXPECT_EQ(outcome.result.sampled.indices,
                              baseline[0].sampled.indices);
                    EXPECT_EQ(outcome.result.grouped.indices,
                              baseline[0].grouped.indices);
                    EXPECT_EQ(outcome.result.gathered.values,
                              baseline[0].gathered.values);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Per-shard workspaces
// ---------------------------------------------------------------------

TEST(ShardedLocality, WorkspacesStayFlatPerShardUnderMixedClassLoad)
{
    const auto cloud = std::make_shared<const data::PointCloud>(
        data::makeS3disScene(1024, 37));
    BatchRequest request;
    request.sample_rate = 0.25;
    request.radius = 0.3f;
    request.neighbors = 8;

    serve::ServeOptions options;
    options.pipeline.num_threads = 1;
    options.pipeline.threshold = 64;
    options.num_shards = 2;
    options.pin_shards = true;
    serve::AsyncPipeline server(options);

    static constexpr serve::Priority kClasses[3] = {
        serve::Priority::Interactive, serve::Priority::Batch,
        serve::Priority::Background};
    const auto round = [&] {
        for (std::uint64_t key = 1; key <= 8; ++key) {
            const serve::Ticket ticket = server.submitShared(
                cloud, request, std::nullopt, kClasses[key % 3], key);
            ASSERT_EQ(consume(server, ticket).state,
                      serve::RequestState::Done);
        }
    };
    round(); // warm every shard's pool
    std::vector<std::size_t> created;
    for (unsigned s = 0; s < server.numShards(); ++s)
        created.push_back(server.workspacesCreated(s));
    round();
    round();
    for (unsigned s = 0; s < server.numShards(); ++s) {
        SCOPED_TRACE("shard=" + std::to_string(s));
        // Flat per shard: steady per-shard concurrency never creates
        // another workspace, proving checkouts stay on their shard.
        EXPECT_EQ(server.workspacesCreated(s), created[s]);
        EXPECT_LE(server.workspacesCreated(s), server.numThreads());
    }
}

// ---------------------------------------------------------------------
// Result slots
// ---------------------------------------------------------------------

void
expectSameStats(const ops::OpStats &a, const ops::OpStats &b)
{
    EXPECT_EQ(a.distance_computations, b.distance_computations);
    EXPECT_EQ(a.points_visited, b.points_visited);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.skipped, b.skipped);
    EXPECT_EQ(a.bytes_gathered, b.bytes_gathered);
}

/** Byte-for-byte equality of two served results, inference
 *  included. */
void
expectSameResult(const BatchResult &a, const BatchResult &b)
{
    EXPECT_EQ(a.sampled.indices, b.sampled.indices);
    EXPECT_EQ(a.sampled.positions, b.sampled.positions);
    EXPECT_EQ(a.sampled.leaf_offsets, b.sampled.leaf_offsets);
    expectSameStats(a.sampled.stats, b.sampled.stats);
    EXPECT_EQ(a.grouped.num_centers, b.grouped.num_centers);
    EXPECT_EQ(a.grouped.k, b.grouped.k);
    EXPECT_EQ(a.grouped.indices, b.grouped.indices);
    EXPECT_EQ(a.grouped.counts, b.grouped.counts);
    expectSameStats(a.grouped.stats, b.grouped.stats);
    EXPECT_EQ(a.gathered.num_centers, b.gathered.num_centers);
    EXPECT_EQ(a.gathered.k, b.gathered.k);
    EXPECT_EQ(a.gathered.channels, b.gathered.channels);
    EXPECT_EQ(a.gathered.values, b.gathered.values);
    expectSameStats(a.gathered.stats, b.gathered.stats);
    EXPECT_EQ(a.num_blocks, b.num_blocks);
    const part::PartitionStats &pa = a.partition_stats;
    const part::PartitionStats &pb = b.partition_stats;
    EXPECT_EQ(pa.elements_traversed, pb.elements_traversed);
    EXPECT_EQ(pa.traversal_passes, pb.traversal_passes);
    EXPECT_EQ(pa.num_sorts, pb.num_sorts);
    EXPECT_EQ(pa.sort_compares, pb.sort_compares);
    EXPECT_EQ(pa.degenerate_retries, pb.degenerate_retries);
    EXPECT_EQ(pa.num_splits, pb.num_splits);
    ASSERT_EQ(a.inference.has_value(), b.inference.has_value());
    if (!a.inference)
        return;
    EXPECT_EQ(a.inference->point_features.data(),
              b.inference->point_features.data());
    EXPECT_EQ(a.inference->point_features.rows(),
              b.inference->point_features.rows());
    EXPECT_EQ(a.inference->embedding.data(),
              b.inference->embedding.data());
    EXPECT_EQ(a.inference->total_macs, b.inference->total_macs);
    EXPECT_EQ(a.inference->sa_mlp_rows, b.inference->sa_mlp_rows);
    EXPECT_EQ(a.inference->op_stats.distance_computations,
              b.inference->op_stats.distance_computations);
}

TEST(AsyncPipelineOutcome, WaitIntoMatchesValueWaitByteForByte)
{
    // A fresh outcome and a reused one agree byte for byte with
    // serve::runBatch. The swap hands a reused outcome's buffers to
    // the slot the next request writes into, so whatever the caller
    // did to them in between must never show in a later result.
    const data::PointCloud scene = data::makeS3disScene(512, 43);
    const nn::Network network(nn::pointNet2SemSeg(), 42);
    BatchRequest request;
    request.sample_rate = 0.25;
    request.radius = 0.3f;
    request.neighbors = 8;
    request.network = &network;

    PipelineOptions pipeline;
    pipeline.num_threads = 2;
    pipeline.threshold = 64;
    const BatchResult reference =
        serve::runBatch({scene}, pipeline, request)[0];
    ASSERT_TRUE(reference.inference.has_value());

    serve::ServeOptions options;
    options.pipeline = pipeline;
    serve::AsyncPipeline server(options);
    const auto cloud = std::make_shared<const data::PointCloud>(scene);

    serve::RequestOutcome fresh;
    server.waitInto(server.submitShared(cloud, request), fresh);
    ASSERT_EQ(fresh.state, serve::RequestState::Done);
    expectSameResult(fresh.result, reference);

    // Dirty reuse. Each round scribbles over the outcome before
    // handing it back; in round 2 the request runs in the buffers
    // round 0 scribbled over.
    serve::RequestOutcome reused;
    for (int round = 0; round < 3; ++round) {
        SCOPED_TRACE("round=" + std::to_string(round));
        server.waitInto(server.submitShared(cloud, request), reused);
        ASSERT_EQ(reused.state, serve::RequestState::Done);
        expectSameResult(reused.result, reference);

        BatchResult &dirty = reused.result;
        std::fill(dirty.gathered.values.begin(),
                  dirty.gathered.values.end(), -7.0f);
        std::fill(dirty.sampled.indices.begin(),
                  dirty.sampled.indices.end(), PointIdx{3});
        dirty.grouped.indices.resize(dirty.grouped.indices.size() / 2);
        dirty.sampled.leaf_offsets.resize(1);
        dirty.num_blocks = 0;
        const nn::InferenceResult moved_out =
            std::move(*dirty.inference);
        dirty.inference->total_macs += 1;
        dirty.inference->sa_mlp_rows += 1;
        EXPECT_GT(moved_out.point_features.rows(), 0u);
    }
    // Sequential traffic keeps one slot, so every round above went
    // through the same slot.
    EXPECT_EQ(server.outcomeSlotsCreated(), 1u);
}

TEST(AsyncPipelineOutcome, RecycledSlotsNeverAliasALiveResult)
{
    const auto cloud = std::make_shared<const data::PointCloud>(
        data::makeS3disScene(1024, 47));
    BatchRequest request;
    request.sample_rate = 0.25;
    request.radius = 0.3f;
    request.neighbors = 8;

    serve::ServeOptions options;
    options.pipeline.num_threads = 1;
    options.pipeline.threshold = 64;
    serve::AsyncPipeline server(options);

    serve::RequestOutcome first;
    server.waitInto(server.submitShared(cloud, request), first);
    ASSERT_EQ(first.state, serve::RequestState::Done);
    const auto sampled_snapshot = first.result.sampled.indices;
    const auto gathered_snapshot = first.result.gathered.values;

    // The next request recycles the same slot and overwrites it with
    // a different shape; the consumed outcome must not change (the
    // swap handed its buffers over, they are never aliased).
    BatchRequest other = request;
    other.sample_rate = 0.5;
    other.neighbors = 4;
    serve::RequestOutcome second;
    server.waitInto(server.submitShared(cloud, other), second);
    ASSERT_EQ(second.state, serve::RequestState::Done);
    EXPECT_EQ(first.result.sampled.indices, sampled_snapshot);
    EXPECT_EQ(first.result.gathered.values, gathered_snapshot);

    // Sequential traffic keeps the slab at one slot.
    EXPECT_EQ(server.outcomeSlotsCreated(), 1u);
}

TEST(AsyncPipelineOutcome, RequestsStoppedMidRunReturnTheirSlot)
{
    // On one worker, requests cancelled at the Sampled boundary (after
    // FPS wrote into the result slot) alternate with Done ones, and a
    // request that fails at the same boundary closes the run. A
    // request that stops early must hand its slot back when it
    // retires: one slot serves the whole run, no stopped outcome
    // carries a payload, and the half-written slot never shows in the
    // next Done result. Every retirement, Done included, hands the
    // workspace back before the waiter wakes, so one workspace serves
    // the whole run too.
    const data::PointCloud scene = data::makeS3disScene(1024, 59);
    BatchRequest request;
    request.sample_rate = 0.25;
    request.radius = 0.3f;
    request.neighbors = 8;

    PipelineOptions pipeline;
    pipeline.num_threads = 1;
    pipeline.threshold = 64;
    const BatchResult reference =
        serve::runBatch({scene}, pipeline, request)[0];

    enum Stop { None, Cancel, Fail };
    std::atomic<int> stop_at_sampled{None};
    serve::AsyncPipeline *server_ptr = nullptr;
    serve::ServeOptions options;
    options.pipeline = pipeline;
    options.stage_observer = [&](serve::Ticket ticket,
                                 serve::Stage stage) {
        if (stage != serve::Stage::Sampled)
            return;
        if (stop_at_sampled.load() == Cancel)
            server_ptr->cancel(ticket);
        else if (stop_at_sampled.load() == Fail)
            throw std::runtime_error("stopped at sampled");
    };
    serve::AsyncPipeline server(options);
    server_ptr = &server;
    const auto cloud = std::make_shared<const data::PointCloud>(scene);

    // One request in flight at a time, so the flag names exactly the
    // request being submitted.
    const auto run = [&](Stop stop, serve::RequestOutcome &out) {
        stop_at_sampled.store(stop);
        server.waitInto(server.submitShared(cloud, request), out);
        stop_at_sampled.store(None);
    };
    const BatchResult empty;
    serve::RequestOutcome out;
    for (int round = 0; round < 8; ++round) {
        SCOPED_TRACE("round=" + std::to_string(round));
        const bool cancelled = round % 2 == 1;
        run(cancelled ? Cancel : None, out);
        if (cancelled) {
            ASSERT_EQ(out.state, serve::RequestState::Cancelled);
            expectSameResult(out.result, empty);
        } else {
            ASSERT_EQ(out.state, serve::RequestState::Done);
            expectSameResult(out.result, reference);
        }
    }
    run(Fail, out);
    ASSERT_EQ(out.state, serve::RequestState::Failed);
    expectSameResult(out.result, empty);
    run(None, out);
    ASSERT_EQ(out.state, serve::RequestState::Done);
    expectSameResult(out.result, reference);

    EXPECT_EQ(server.outcomeSlotsCreated(), 1u);
    // The scheduler's slot instruments reach /stats: every request
    // that started checked out a slot, and the slab never grew.
    EXPECT_EQ(server.metrics()
                  .counter("serve.outcome.checkout{shard=0}")
                  .value(),
              10u);
    EXPECT_EQ(server.metrics().gauge("serve.outcome.created{shard=0}")
                  .value(),
              1);
    const std::string stats = serve::renderStats(server);
    EXPECT_NE(stats.find("serve.outcome.checkout{shard=0}"),
              std::string::npos);
    EXPECT_NE(stats.find("serve.outcome.created{shard=0}"),
              std::string::npos);

    // The same for workspaces, which check out with the slot (the
    // checkout counter above counts both): cancelled, Done and failed
    // requests each found the previous one back.
    EXPECT_EQ(server.workspacesCreated(), 1u);
    EXPECT_EQ(server.metrics()
                  .gauge("serve.workspace.created{shard=0}")
                  .value(),
              1);
}

TEST(AsyncPipelineOutcome, PointOpsRequestDropsAStaleInferencePayload)
{
    // A reused outcome that carried an inference payload hands those
    // buffers to the slot; a later point-ops-only request written into
    // that slot must come back with `inference` disengaged and every
    // other field equal to a fresh outcome's.
    const auto cloud = std::make_shared<const data::PointCloud>(
        data::makeS3disScene(512, 61));
    const nn::Network network(nn::pointNet2SemSeg(), 42);
    BatchRequest with_network;
    with_network.sample_rate = 0.25;
    with_network.radius = 0.3f;
    with_network.neighbors = 8;
    with_network.network = &network;
    BatchRequest point_ops = with_network;
    point_ops.network = nullptr;

    serve::ServeOptions options;
    options.pipeline.num_threads = 1;
    options.pipeline.threshold = 64;
    serve::AsyncPipeline server(options);

    serve::RequestOutcome fresh;
    server.waitInto(server.submitShared(cloud, point_ops), fresh);
    ASSERT_EQ(fresh.state, serve::RequestState::Done);
    ASSERT_FALSE(fresh.result.inference.has_value());

    serve::RequestOutcome reused;
    server.waitInto(server.submitShared(cloud, with_network), reused);
    ASSERT_EQ(reused.state, serve::RequestState::Done);
    ASSERT_TRUE(reused.result.inference.has_value());
    // Round 0 hands the inference payload to the slot; round 1 runs
    // in that slot, engaged inference and all.
    for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE("round=" + std::to_string(round));
        server.waitInto(server.submitShared(cloud, point_ops), reused);
        EXPECT_EQ(reused.state, fresh.state);
        EXPECT_FALSE(reused.result.inference.has_value());
        expectSameResult(reused.result, fresh.result);
        EXPECT_EQ(reused.error, fresh.error);
        EXPECT_EQ(reused.exception, fresh.exception);
        EXPECT_EQ(reused.priority, fresh.priority);
        EXPECT_EQ(reused.shard, fresh.shard);
        EXPECT_EQ(reused.spilled, fresh.spilled);
    }
    EXPECT_EQ(server.outcomeSlotsCreated(), 1u);
}

TEST(AsyncPipelineOutcome, SlotCountBoundedByUnconsumedTickets)
{
    const auto cloud = std::make_shared<const data::PointCloud>(
        data::makeS3disScene(512, 53));
    BatchRequest request;
    request.sample_rate = 0.25;
    request.radius = 0.3f;
    request.neighbors = 8;

    serve::ServeOptions options;
    options.pipeline.num_threads = 2;
    options.pipeline.threshold = 64;
    serve::AsyncPipeline server(options);

    // Hold several tickets un-consumed: each terminal-but-uncollected
    // request keeps its slot, so the slab must grow to cover
    // them — and stop there.
    std::vector<serve::Ticket> held;
    for (int i = 0; i < 6; ++i)
        held.push_back(server.submitShared(cloud, request));
    for (const serve::Ticket ticket : held)
        ASSERT_EQ(consume(server, ticket).state,
                  serve::RequestState::Done);
    const std::size_t peak = server.outcomeSlotsCreated();
    EXPECT_GE(peak, 1u);
    EXPECT_LE(peak, 6u);

    // Consumed promptly, the slab stops growing for good.
    for (int i = 0; i < 20; ++i) {
        serve::RequestOutcome out;
        server.waitInto(server.submitShared(cloud, request), out);
        ASSERT_EQ(out.state, serve::RequestState::Done);
    }
    EXPECT_EQ(server.outcomeSlotsCreated(), peak);

    // Discarded tickets return their slots too.
    for (int i = 0; i < 4; ++i)
        server.discard(server.submitShared(cloud, request));
    while (server.liveRecordCount() != 0 ||
           server.runningCount() != 0 || server.queuedCount() != 0)
        std::this_thread::yield();
    EXPECT_EQ(server.outcomeSlotsCreated(), peak);
}

} // namespace
