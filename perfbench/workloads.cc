#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <latch>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/alloc_count.h"
#include "dataset/s3dis.h"
#include "nn/models.h"
#include "nn/network.h"
#include "replay.h"
#include "serve/async_pipeline.h"
#include "serve/ingest.h"
#include "storage/fcpc_writer.h"

namespace fcb {

namespace {

using fc::serve::AsyncPipeline;
using fc::serve::RequestOutcome;
using fc::serve::RequestState;

constexpr int kSetupRepeats = 5;

/** Distinct seed for input @p index of a run seeded @p seed. */
std::uint64_t
inputSeed(std::uint64_t seed, std::uint64_t index)
{
    return seed * 0x9E3779B97F4A7C15ull + index * 0xD1B54A32D192ED03ull +
           1;
}

Clock::duration
toDuration(double seconds)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

__attribute__((format(printf, 1, 2))) std::string
format(const char *fmt, ...)
{
    char buf[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    return buf;
}

/** Median of @p repeats timed set-ups (seconds). */
template <typename Fn>
double
medianSetup(Fn &&setup_once)
{
    std::vector<double> times;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const Clock::time_point t0 = Clock::now();
        setup_once();
        times.push_back(micros(t0, Clock::now()) / 1e6);
    }
    return percentile(sorted(times), 0.5);
}

/** Per-request record of the served (untraced) run. */
struct Served
{
    /** submitted -> finished of each Done, correct request. */
    std::vector<double> latency_us;
    std::vector<double> queue_us;
    std::vector<double> service_us;
    std::vector<double> handoff_us;

    std::uint64_t attempted = 0;
    std::uint64_t not_done = 0;
    std::uint64_t mismatched = 0;
    std::uint64_t spilled = 0;
    double points = 0.0;
    std::uint64_t allocs = 0;
    /** Seconds the throughput counts are divided by. */
    double busy_s = 0.0;
    /** Done requests and their points per second of each epoch
     *  (scene-ingest); when set, throughput is their median. */
    std::vector<double> epoch_rps;
    std::vector<double> epoch_pps;
    double prefetch_hit_share = 0.0;
    bool pinned = false;
    /** Highest resident set size sampled while serving. */
    double peak_rss_mb = 0.0;

    /** Samples the resident set after handing freed heap back: how
     *  much freed memory the allocator keeps cached varies from run to
     *  run by tens of MiB, so only memory in use counts. Call it
     *  outside every timed interval. */
    void
    sampleRss()
    {
        trimHeap();
        peak_rss_mb = std::max(peak_rss_mb, residentMb());
    }

    void
    reserve(std::size_t n)
    {
        for (std::vector<double> *v :
             {&latency_us, &queue_us, &service_us, &handoff_us})
            v->reserve(n);
    }

    std::uint64_t done() const { return latency_us.size(); }
    std::uint64_t failed() const { return not_done + mismatched; }

    /** Adds @p other's requests (one client's record) to this one. */
    void
    merge(const Served &other)
    {
        const auto append = [](std::vector<double> &to,
                               const std::vector<double> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(latency_us, other.latency_us);
        append(queue_us, other.queue_us);
        append(service_us, other.service_us);
        append(handoff_us, other.handoff_us);
        attempted += other.attempted;
        not_done += other.not_done;
        mismatched += other.mismatched;
        spilled += other.spilled;
        points += other.points;
        peak_rss_mb = std::max(peak_rss_mb, other.peak_rss_mb);
    }

    /** Record one terminal outcome. @p expected is the reference
     *  digest; the digest is taken here, after every timestamp the
     *  request contributes was read. */
    void
    record(const RequestOutcome &out, std::uint64_t expected,
           double handoff, double npoints)
    {
        ++attempted;
        if (out.state != RequestState::Done) {
            ++not_done;
            return;
        }
        if (digestResult(out.result) != expected) {
            ++mismatched;
            return;
        }
        latency_us.push_back(
            micros(out.timing.submitted, out.timing.finished));
        queue_us.push_back(micros(out.timing.submitted, out.timing.started));
        service_us.push_back(
            micros(out.timing.started, out.timing.finished));
        handoff_us.push_back(handoff);
        if (out.spilled)
            ++spilled;
        points += npoints;
    }
};

/** The end-to-end metrics: latency, throughput and memory of
 *  @p served. */
void
addEndToEnd(Report &report, double tail_pct, const Served &served,
            double setup_s, const char *latency_scope)
{
    const std::vector<double> lat = sorted(served.latency_us);
    const Tail tail = tailOf(lat, tail_pct);
    const double rank =
        std::ceil(tail.pct / 100.0 * static_cast<double>(lat.size()));
    report.notes.push_back(format(
        "latency: %zu requests, tail = p%g (%.0f samples beyond it)",
        lat.size(), tail.pct, static_cast<double>(lat.size()) - rank));
    report.notes.push_back(std::string("latency scope: ") + latency_scope);
    const double done = static_cast<double>(served.done());
    const double busy = std::max(served.busy_s, 1e-9);
    report.add("latency_p50_ms", percentile(lat, 0.5) / 1e3, "ms");
    report.add("latency_tail_ms", tail.value / 1e3, "ms");
    if (served.epoch_rps.empty()) {
        report.add("throughput_rps", done / busy, "1/s");
        report.add("throughput_pps", served.points / busy, "points/s");
    } else {
        report.add("throughput_rps",
                   percentile(sorted(served.epoch_rps), 0.5), "1/s");
        report.add("throughput_pps",
                   percentile(sorted(served.epoch_pps), 0.5), "points/s");
    }
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", served.peak_rss_mb, "MiB");
}

/** Sum and count of one nn.stage_us histogram (exact values only). */
struct StageSum
{
    double sum_us = 0.0;
    double count = 0.0;
};

StageSum
stageSum(fc::core::metrics::Registry &registry, const char *stage)
{
    fc::core::metrics::Histogram &h = registry.histogram(
        std::string("nn.stage_us{stage=") + stage + "}");
    return {static_cast<double>(h.sum()), static_cast<double>(h.count())};
}

template <typename Field>
double
meanOf(const std::vector<LayerSample> &samples, Field field)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (const LayerSample &s : samples)
        sum += static_cast<double>(field(s));
    return sum / static_cast<double>(samples.size());
}

/** The per-layer metrics: replayed layer spans plus the served run's
 *  own queue/service/handoff split. Times are means per request
 *  (means add up; medians do not). */
void
addPerLayer(Report &report, const Served &served, const ReplayPass &replay,
            fc::core::metrics::Registry &nn_metrics)
{
    const std::vector<LayerSample> &s = replay.samples;
    report.notes.push_back(format(
        "replay: %.0f requests in %.2f s; served: %.0f requests",
        static_cast<double>(s.size()), replay.wall_s,
        static_cast<double>(served.done())));

    report.add("storage.read_block_us",
               meanOf(s, [](const LayerSample &x) { return x.read_block_us; }),
               "us");
    report.add("storage.prefetch_hit_share", served.prefetch_hit_share,
               "ratio");

    const double partition_us =
        meanOf(s, [](const LayerSample &x) { return x.partition_us; });
    report.add("partition.us", partition_us, "us");
    report.add("partition.elements_traversed",
               meanOf(s,
                      [](const LayerSample &x) {
                          return x.elements_traversed;
                      }),
               "count");
    report.add("ops.fps_us",
               meanOf(s, [](const LayerSample &x) { return x.fps_us; }),
               "us");
    report.add("ops.ball_query_us",
               meanOf(s, [](const LayerSample &x) { return x.ball_query_us; }),
               "us");
    report.add("ops.gather_us",
               meanOf(s, [](const LayerSample &x) { return x.gather_us; }),
               "us");
    report.add("ops.distance_computations",
               meanOf(s,
                      [](const LayerSample &x) {
                          return x.distance_computations;
                      }),
               "count");
    report.add("ops.bytes_gathered",
               meanOf(s, [](const LayerSample &x) { return x.bytes_gathered; }),
               "bytes");

    // The nn split: exact histogram sums over the replayed runs.
    const StageSum mlp = stageSum(nn_metrics, "mlp");
    const StageSum mlp_unique = stageSum(nn_metrics, "mlp_unique");
    const StageSum aggregate = stageSum(nn_metrics, "aggregate");
    const StageSum interpolate = stageSum(nn_metrics, "interpolate");
    const StageSum pointops[] = {
        stageSum(nn_metrics, "partition"), stageSum(nn_metrics, "fps"),
        stageSum(nn_metrics, "neighbor"), stageSum(nn_metrics, "gather")};
    const double runs = std::max(mlp.count, 1.0);
    double pointops_us = 0.0;
    for (const StageSum &p : pointops)
        pointops_us += p.sum_us;
    const double nn_run_us =
        meanOf(s, [](const LayerSample &x) { return x.nn_run_us; });
    const double macs =
        meanOf(s, [](const LayerSample &x) { return x.macs; });
    const double mlp_total_us = (mlp.sum_us + mlp_unique.sum_us) / runs;
    report.add("nn.run_us", nn_run_us, "us");
    report.add("nn.mlp_us", mlp.sum_us / runs, "us");
    report.add("nn.mlp_unique_us", mlp_unique.sum_us / runs, "us");
    report.add("nn.aggregate_us", aggregate.sum_us / runs, "us");
    report.add("nn.interpolate_us", interpolate.sum_us / runs, "us");
    report.add("nn.pointops_us", pointops_us / runs, "us");
    report.add("nn.macs", macs, "count");
    report.add("nn.sa_mlp_rows",
               meanOf(s, [](const LayerSample &x) { return x.sa_mlp_rows; }),
               "count");
    report.add("nn.mlp_gmacs_per_s",
               mlp_total_us > 0.0 ? macs / mlp_total_us / 1e3 : 0.0,
               "GMAC/s");

    const double queue = mean(served.queue_us);
    const double service = mean(served.service_us);
    const double handoff = mean(served.handoff_us);
    const double layers =
        meanOf(s, [](const LayerSample &x) { return x.layersUs(); });
    report.add("serve.queue_wait_us", queue, "us");
    report.add("serve.service_us", service, "us");
    report.add("serve.handoff_us", handoff, "us");
    report.add("serve.overhead_us", service - layers, "us");
    report.add("serve.spilled_share",
               served.done() > 0 ? static_cast<double>(served.spilled) /
                                       static_cast<double>(served.done())
                                 : 0.0,
               "ratio");
    report.add("core.allocs_per_request",
               served.attempted > 0
                   ? static_cast<double>(served.allocs) /
                         static_cast<double>(served.attempted)
                   : 0.0,
               "count");

    // The handoff is outside the latency: it starts at finished.
    const double wall = mean(served.latency_us);
    report.add("trace.unattributed_share",
               wall > 0.0 ? 1.0 - (queue + layers) / wall : 0.0, "ratio");
    std::vector<double> traced;
    traced.reserve(s.size());
    for (const LayerSample &x : s)
        traced.push_back(x.wall_us);
    const double untraced_p50 = percentile(sorted(served.service_us), 0.5);
    report.add("trace.overhead_share",
               untraced_p50 > 0.0
                   ? percentile(sorted(traced), 0.5) / untraced_p50 - 1.0
                   : 0.0,
               "ratio");
}

void
finish(Report &report, const Served &served, const ReplayPass *replay)
{
    report.attempted = served.attempted;
    report.failed = served.failed();
    std::uint64_t mismatches = served.mismatched;
    if (replay != nullptr)
        mismatches += replay->mismatches;
    report.correct = mismatches == 0;
    report.notes.push_back(format(
        "requests: %.0f attempted, %.0f not done, %.0f mismatched",
        static_cast<double>(served.attempted),
        static_cast<double>(served.not_done),
        static_cast<double>(mismatches)));
    report.notes.push_back(
        format("failed_share = %.6f ratio",
               served.attempted > 0
                   ? static_cast<double>(served.failed()) /
                         static_cast<double>(served.attempted)
                   : 0.0));
    report.notes.push_back(std::string("pinned: ") +
                           (served.pinned ? "yes" : "no"));
}

fc::serve::ServeOptions
serveOptions(std::uint32_t threshold, unsigned shards, unsigned threads)
{
    fc::serve::ServeOptions o;
    o.pipeline.method = fc::part::Method::Fractal;
    o.pipeline.threshold = threshold;
    o.pipeline.num_threads = threads;
    o.num_shards = shards;
    return o;
}

void
requireDone(const RequestOutcome &out, const char *what)
{
    if (out.state != RequestState::Done)
        throw std::runtime_error(std::string(what) + ": request ended " +
                                 fc::serve::stateName(out.state));
}

} // namespace

// ----------------------------------------------------------- scene-seg

Report
sceneSeg(const RunOptions &options)
{
    constexpr std::size_t kPoints = 32768;
    constexpr std::size_t kScenes = 3;
    constexpr double kTailPct = 75.0; // ~100 requests per 30 s run

    std::vector<std::shared_ptr<const fc::data::PointCloud>> scenes;
    for (std::size_t i = 0; i < kScenes; ++i)
        scenes.push_back(std::make_shared<const fc::data::PointCloud>(
            fc::data::makeS3disScene(kPoints,
                                     inputSeed(options.seed, i))));

    // Four clients on four workers: each request runs whole on one
    // worker, as the scheduler spills a request's blocks only to idle
    // workers. With one client, every stage joined all four workers,
    // so on a shared 4-vCPU host one busy vCPU held back the whole
    // request and the p50 moved by a third between runs.
    constexpr unsigned kThreads = 4;
    constexpr unsigned kClients = kThreads;
    const fc::serve::ServeOptions serve = serveOptions(256, 1, kThreads);
    fc::BatchRequest request;
    request.aggregation = fc::nn::Aggregation::Delayed;

    // References first, so the replay's workspace is gone before the
    // pipeline's grows (peak_rss_mb measures the served state).
    std::vector<std::uint64_t> digests;
    {
        const fc::nn::Network network(fc::nn::pointNet2SemSeg());
        request.network = &network;
        Replayer reference(serve.pipeline, kThreads);
        for (const auto &scene : scenes)
            digests.push_back(referenceDigest(reference, *scene, request));
    }

    std::unique_ptr<fc::nn::Network> network;
    std::unique_ptr<AsyncPipeline> pipeline;
    RequestOutcome out;
    const double setup_s = medianSetup([&] {
        pipeline.reset();
        network.reset();
        network = std::make_unique<fc::nn::Network>(
            fc::nn::pointNet2SemSeg());
        pipeline = std::make_unique<AsyncPipeline>(serve);
        request.network = network.get();
        pipeline->waitInto(pipeline->submitShared(scenes[0], request), out);
        requireDone(out, "scene-seg setup");
    });
    // Warm every shape on every client's workspace and outcome:
    // rounds of kClients requests at once, each round shifting the
    // scenes.
    std::array<RequestOutcome, kClients> outs;
    for (std::size_t round = 0; round < kScenes; ++round) {
        std::array<fc::serve::Ticket, kClients> warm;
        for (std::size_t c = 0; c < kClients; ++c)
            warm[c] = pipeline->submitShared(
                scenes[(round + c) % kScenes], request);
        for (std::size_t c = 0; c < kClients; ++c) {
            pipeline->waitInto(warm[c], outs[c]);
            requireDone(outs[c], "scene-seg warm-up");
        }
    }

    // Each client thread keeps one request in flight: it sends the
    // next as soon as its reply is back. Client c sends scenes c,
    // c + kClients, ... in rotation. The threads start together once
    // all exist, so creating them is outside the window.
    std::array<Served, kClients> per_client;
    std::latch start(1);
    Clock::time_point end;
    const auto client = [&](std::size_t c) {
        Served &mine = per_client[c];
        mine.reserve(static_cast<std::size_t>(options.seconds * 4) + 16);
        RequestOutcome &reply = outs[c];
        start.wait();
        for (std::size_t k = c; Clock::now() < end; k += kClients) {
            const std::size_t scene = k % kScenes;
            const fc::serve::Ticket ticket =
                pipeline->submitShared(scenes[scene], request);
            const Clock::time_point t_wait = Clock::now();
            pipeline->waitInto(ticket, reply);
            const Clock::time_point t1 = Clock::now();
            mine.record(reply, digests[scene],
                        micros(std::max(t_wait, reply.timing.finished), t1),
                        static_cast<double>(kPoints));
            mine.sampleRss();
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c)
        threads.emplace_back(client, c);
    trimHeap();
    const std::uint64_t a0 = fc::heapAllocCount();
    const Clock::time_point t0 = Clock::now();
    end = t0 + toDuration(options.seconds);
    start.count_down();
    for (std::thread &t : threads)
        t.join();
    Served served;
    served.busy_s = micros(t0, Clock::now()) / 1e6;
    served.allocs = fc::heapAllocCount() - a0;
    served.pinned = pipeline->pinned();
    for (const Served &mine : per_client)
        served.merge(mine);

    Report report;
    if (!options.trace) {
        addEndToEnd(report, kTailPct, served, setup_s,
                    "submitted to RequestOutcome::timing.finished");
        finish(report, served, nullptr);
        return report;
    }

    std::vector<ReplayItem> items;
    for (std::size_t i = 0; i < served.attempted; ++i) {
        ReplayItem item;
        item.cloud = scenes[i % kScenes].get();
        item.request = &request;
        item.digest = digests[i % kScenes];
        items.push_back(item);
    }
    pipeline.reset(); // the served phase is over
    fc::core::metrics::Registry nn_metrics;
    // One request per worker thread at once, each inline, as served.
    const ReplayPass replay = replayLanes(serve.pipeline, kClients, 1, items,
                                          options.seconds / 2, &nn_metrics);
    addPerLayer(report, served, replay, nn_metrics);
    finish(report, served, &replay);
    return report;
}

// -------------------------------------------------------- scene-ingest

Report
sceneIngest(const RunOptions &options)
{
    // 32k-point blocks, not 128k: with 128k, each request's working
    // set spilled out of the caches, and the run's throughput tracked
    // how busy the neighbours on a shared host were (-13% at 5% cpu
    // steal against 1%). The file of 21 blocks still is not
    // cache-resident.
    constexpr std::size_t kPoints = 32768;
    constexpr unsigned kWorkers = 3;
    // Seven blocks per worker in each epoch.
    constexpr std::size_t kBlocks = 21;
    constexpr double kTailPct = 95.0; // ~3800 requests per 30 s run

    // The generated file lives for this run only; declared first, it
    // is removed after every reader of it is gone.
    struct RunFile
    {
        std::string path;
        ~RunFile() { std::remove(path.c_str()); }
    };
    const RunFile file{options.workdir + "/scene-ingest.fcpc"};
    const std::string &path = file.path;
    {
        fc::storage::FcpcWriter writer;
        bool ok = writer.open(path);
        for (std::size_t i = 0; ok && i < kBlocks; ++i)
            ok = writer.append(fc::data::makeS3disScene(
                                   kPoints, inputSeed(options.seed, i)),
                               /*placement_key=*/i + 1);
        if (!ok || !writer.finish())
            throw std::runtime_error("cannot write " + path);
    }

    // Three unpinned workers, so the ingestor's I/O thread and the
    // benchmark's own thread find a free vCPU, and a woken worker can
    // move off a vCPU the host has taken away. With four pinned
    // workers, a run at 2% cpu steal read a 29% higher p50 than one at
    // 1%; three unpinned moved 10-15% at 5% steal.
    fc::serve::ServeOptions serve = serveOptions(256, 1, kWorkers);
    serve.pin_shards = false;
    // At most one block waits to start: runAll's submit blocks until
    // there is room, so a block's latency is its own service plus
    // less than one block's wait, not its place in a 21-deep queue.
    // Latency that was a place in the queue grew by up to three times
    // the share of cpu the host took away.
    serve.queue_capacity = 1;
    const fc::BatchRequest request; // point ops only
    const auto openReader = [&path] {
        auto reader = std::make_shared<fc::storage::FcpcReader>();
        if (reader->open(path) != fc::storage::FcpcStatus::Ok)
            throw std::runtime_error("cannot open " + path);
        return reader;
    };

    // Reference digests from the same stored blocks.
    std::vector<std::uint64_t> digests;
    {
        const std::shared_ptr<fc::storage::FcpcReader> reader = openReader();
        Replayer reference(serve.pipeline, kWorkers);
        for (std::size_t i = 0; i < kBlocks; ++i) {
            fc::data::PointCloud cloud;
            if (reader->readBlock(i, cloud) != fc::storage::FcpcStatus::Ok)
                throw std::runtime_error("cannot read block of " + path);
            digests.push_back(referenceDigest(reference, cloud, request));
        }
    }

    // One epoch streams the whole file through a freshly opened reader
    // and a new ingestor, so each epoch pays for the storage layer in
    // full: open(), every block's checksum check and the read-ahead
    // ring. Only the page cache stays warm between epochs.
    fc::storage::PrefetchStats prefetch;
    const auto epoch = [&](AsyncPipeline &pipeline) {
        fc::serve::StorageIngestor ingestor(pipeline, openReader());
        std::vector<fc::serve::IngestResult> results =
            ingestor.runAll(request);
        const fc::storage::PrefetchStats stats = ingestor.prefetchStats();
        prefetch.hits += stats.hits;
        prefetch.waits += stats.waits;
        prefetch.misses += stats.misses;
        return results;
    };

    std::unique_ptr<AsyncPipeline> pipeline;
    const double setup_s = medianSetup([&] {
        pipeline.reset();
        pipeline = std::make_unique<AsyncPipeline>(serve);
        for (const fc::serve::IngestResult &r : epoch(*pipeline))
            requireDone(r.outcome, "scene-ingest setup");
    });

    Served served;
    served.pinned = pipeline->pinned();
    served.reserve(static_cast<std::size_t>(options.seconds * 250) + 64);
    const auto epochs = static_cast<std::size_t>(options.seconds * 15) + 8;
    served.epoch_rps.reserve(epochs);
    served.epoch_pps.reserve(epochs);
    trimHeap();
    prefetch = {};
    const Clock::time_point end = Clock::now() + toDuration(options.seconds);
    while (Clock::now() < end) {
        const std::uint64_t a0 = fc::heapAllocCount();
        const Clock::time_point t0 = Clock::now();
        std::vector<fc::serve::IngestResult> results = epoch(*pipeline);
        const Clock::time_point t1 = Clock::now();
        served.allocs += fc::heapAllocCount() - a0;
        const double epoch_s = micros(t0, t1) / 1e6;
        served.busy_s += epoch_s;
        served.sampleRss(); // while the epoch's results are alive
        const std::uint64_t done0 = served.done();
        const double points0 = served.points;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const RequestOutcome &o = results[i].outcome;
            if (results[i].storage_status != fc::storage::FcpcStatus::Ok) {
                ++served.attempted;
                ++served.not_done;
                continue;
            }
            served.record(o, digests[i], 0.0,
                          static_cast<double>(kPoints));
        }
        served.epoch_rps.push_back(
            static_cast<double>(served.done() - done0) / epoch_s);
        served.epoch_pps.push_back((served.points - points0) / epoch_s);
    }
    const double gets =
        static_cast<double>(prefetch.hits + prefetch.waits + prefetch.misses);
    served.prefetch_hit_share =
        gets > 0.0 ? static_cast<double>(prefetch.hits) / gets : 0.0;

    Report report;
    if (!options.trace) {
        addEndToEnd(report, kTailPct, served, setup_s,
                    "submitted to RequestOutcome::timing.finished");
        finish(report, served, nullptr);
        return report;
    }

    // As in the served run, each epoch's blocks come from a reader of
    // their own, so every replayed block is read and checked cold.
    std::vector<std::shared_ptr<fc::storage::FcpcReader>> readers;
    std::vector<ReplayItem> items;
    for (std::size_t i = 0; i < served.attempted; ++i) {
        if (i % kBlocks == 0)
            readers.push_back(openReader());
        ReplayItem item;
        item.reader = readers.back().get();
        item.block = i % kBlocks;
        item.request = &request;
        item.digest = digests[i % kBlocks];
        items.push_back(item);
    }
    pipeline.reset(); // the served phase is over
    fc::core::metrics::Registry nn_metrics;
    // Three requests run at once, one per worker thread, as runAll's
    // batch keeps the shard's workers busy.
    const ReplayPass replay = replayLanes(serve.pipeline, kWorkers, 1, items,
                                          options.seconds / 2, &nn_metrics);
    addPerLayer(report, served, replay, nn_metrics);
    finish(report, served, &replay);
    return report;
}

} // namespace fcb
