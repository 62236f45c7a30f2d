/**
 * @file
 * Tests for the serving observability layer: core::metrics registry
 * units (histogram bucket boundaries, percentile extraction, striped
 * counter aggregation, the global sampling switch, zero allocations
 * after registration), concurrent mutation (the MetricsConcurrent
 * suite runs under TSan in CI), and the /stats surface — rendered
 * after a mixed-priority serve run and parsed back: per-class
 * submitted/completed/expired/cancelled counters must match observed
 * outcomes, and spill counters must fire under work-conserving load.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <gtest/gtest.h>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_count.h"
#include "core/metrics.h"
#include "dataset/s3dis.h"
#include "serve/async_pipeline.h"
#include "serve/scheduler.h"
#include "serve/stats.h"

#include "consume.h"

namespace fc {
namespace {

namespace metrics = core::metrics;
using metrics::Counter;
using metrics::Gauge;
using metrics::Histogram;
using metrics::Registry;
using serve::AsyncPipeline;
using serve::Priority;
using serve::RequestOutcome;
using serve::RequestState;
using serve::ServeOptions;
using serve::Ticket;

/** RAII guard: force sampling on for a test, restore after. */
struct SamplingOn
{
    SamplingOn() { metrics::setSampling(true); }
    ~SamplingOn() { metrics::setSampling(true); }
};

// ---- Histogram buckets ------------------------------------------------

TEST(MetricsHistogram, BucketBoundariesExactBelowFirstOctave)
{
    // Values below 2^kSubBits map to their own exact bucket.
    for (std::uint64_t v = 0; v < (1ull << Histogram::kSubBits); ++v) {
        EXPECT_EQ(Histogram::bucketIndex(v), v);
        EXPECT_EQ(Histogram::bucketUpperBound(
                      Histogram::bucketIndex(v)),
                  v);
    }
}

TEST(MetricsHistogram, BucketIndexMonotonicAndCovering)
{
    // Sweep octave edges and mid-points across the full range:
    // bucketIndex must be monotone in v, within range, and every
    // value must be <= its bucket's upper bound (the percentile
    // read-out value).
    std::vector<std::uint64_t> values;
    for (unsigned k = 0; k < 64; ++k) {
        for (std::uint64_t off : {std::uint64_t{0}, std::uint64_t{1},
                                  (std::uint64_t{1} << k) / 3}) {
            const std::uint64_t v = (std::uint64_t{1} << k) + off;
            if (v >= (std::uint64_t{1} << k)) // overflow guard, k=63
                values.push_back(v);
        }
    }
    std::sort(values.begin(), values.end());
    unsigned prev = 0;
    for (std::uint64_t v : values) {
        const unsigned idx = Histogram::bucketIndex(v);
        ASSERT_LT(idx, Histogram::kBuckets) << "v=" << v;
        EXPECT_GE(idx, prev) << "v=" << v;
        prev = std::max(prev, idx);
        EXPECT_GE(Histogram::bucketUpperBound(idx), v);
    }
    EXPECT_EQ(Histogram::bucketIndex(~std::uint64_t{0}),
              Histogram::kBuckets - 1);
}

TEST(MetricsHistogram, BucketResolutionWithin25Percent)
{
    // The documented contract: reported values overshoot the true
    // value by at most one sub-bucket width = 2^(k - kSubBits), i.e.
    // <= 25% for any v >= 2^kSubBits.
    for (std::uint64_t v : {4ull, 5ull, 100ull, 999ull, 4096ull,
                            123456789ull, 1ull << 40}) {
        const std::uint64_t ub =
            Histogram::bucketUpperBound(Histogram::bucketIndex(v));
        EXPECT_GE(ub, v);
        EXPECT_LE(ub, v + v / 4) << "v=" << v << " ub=" << ub;
    }
}

TEST(MetricsHistogram, PercentileExtraction)
{
    SamplingOn on;
    Histogram h;
    EXPECT_EQ(h.percentile(0.5), 0u); // empty

    // 1..1000 once each: the q-quantile's true value is ~1000q, and
    // the histogram may overshoot by its 25% bucket resolution.
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_EQ(h.sum(), 500500u);
    EXPECT_EQ(h.max(), 1000u);
    for (double q : {0.5, 0.95, 0.99}) {
        const std::uint64_t truth =
            static_cast<std::uint64_t>(q * 1000.0);
        const std::uint64_t got = h.percentile(q);
        EXPECT_GE(got, truth) << "q=" << q;
        EXPECT_LE(got, truth + truth / 4 + 1) << "q=" << q;
    }
    // p100 = the max's bucket.
    EXPECT_GE(h.percentile(1.0), 1000u);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.percentile(0.99), 0u);
}

TEST(MetricsHistogram, SingleValuePercentiles)
{
    SamplingOn on;
    Histogram h;
    h.record(777);
    // 777's bucket reaches past it; the clamp to max() makes a lone
    // sample report itself exactly.
    ASSERT_GT(Histogram::bucketUpperBound(Histogram::bucketIndex(777)),
              777u);
    EXPECT_EQ(h.percentile(0.5), 777u);
    EXPECT_EQ(h.percentile(0.99), 777u);
    EXPECT_EQ(h.max(), 777u);
}

TEST(MetricsHistogram, PercentilesNeverExceedMax)
{
    SamplingOn on;
    Histogram h;
    // All three values share the [512, 639] bucket, whose upper bound
    // lies above the largest of them: unclamped, p50 would read 639
    // against a max of 611.
    for (std::uint64_t v : {600ull, 605ull, 611ull})
        h.record(v);
    ASSERT_GT(Histogram::bucketUpperBound(Histogram::bucketIndex(611)),
              611u);
    ASSERT_EQ(h.max(), 611u);
    for (double q : {0.5, 0.95, 0.99}) {
        EXPECT_LE(h.percentile(q), h.max()) << "q=" << q;
        EXPECT_GE(h.percentile(q), 600u) << "q=" << q;
    }
}

// ---- Counter / gauge --------------------------------------------------

TEST(MetricsCounter, StripedAggregation)
{
    SamplingOn on;
    Counter c;
    // More threads than stripes: totals must still be exact.
    constexpr unsigned kThreads = 2 * Counter::kStripes;
    constexpr std::uint64_t kPerThread = 10000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&c] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                c.add();
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(c.value(), kThreads * kPerThread);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsGauge, SetAndAdd)
{
    SamplingOn on;
    Gauge g;
    g.set(42);
    EXPECT_EQ(g.value(), 42);
    g.add(-50);
    EXPECT_EQ(g.value(), -8);
    g.reset();
    EXPECT_EQ(g.value(), 0);
}

TEST(MetricsSampling, OffFreezesInstruments)
{
    SamplingOn on;
    Counter c;
    Gauge g;
    Histogram h;
    c.add(5);
    g.set(5);
    h.record(5);
    metrics::setSampling(false);
    c.add(100);
    g.set(100);
    h.record(100);
    metrics::setSampling(true);
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(g.value(), 5);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 5u);
}

// ---- Registry ---------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateIsIdempotent)
{
    Registry reg;
    Counter &a = reg.counter("x.count");
    Counter &b = reg.counter("x.count");
    EXPECT_EQ(&a, &b);
    Histogram &h1 = reg.histogram("x.lat{shard=0}");
    Histogram &h2 = reg.histogram("x.lat{shard=0}");
    EXPECT_EQ(&h1, &h2);
    // Distinct labels = distinct instruments.
    EXPECT_NE(&h1, &reg.histogram("x.lat{shard=1}"));
}

TEST(MetricsRegistry, ZeroAllocationsAfterRegistration)
{
    SamplingOn on;
    Registry reg;
    Counter &c = reg.counter("hot.count");
    Gauge &g = reg.gauge("hot.gauge");
    Histogram &h = reg.histogram("hot.lat");

    const std::uint64_t before = heapAllocCount();
    for (int i = 0; i < 1000; ++i) {
        c.add();
        g.set(i);
        h.record(static_cast<std::uint64_t>(i));
    }
    // Reads too: aggregation and percentile walks are alloc-free.
    (void)c.value();
    (void)h.percentile(0.99);
    // Re-lookup by name goes through the transparent comparator —
    // no temporary std::string.
    (void)reg.counter("hot.count");
    (void)reg.histogram("hot.lat");
    EXPECT_EQ(heapAllocCount() - before, 0u);
}

TEST(MetricsRegistry, RenderTextShapeAndOrder)
{
    SamplingOn on;
    Registry reg;
    reg.counter("b.count").add(3);
    reg.counter("a.count").add(1);
    reg.gauge("m.gauge").set(-7);
    reg.histogram("z.lat").record(100);

    std::string out;
    reg.renderText(out);
    std::vector<std::string> lines;
    std::istringstream is(out);
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 4u);
    // Counters first (sorted), then gauges, then histograms.
    EXPECT_EQ(lines[0], "a.count counter 1");
    EXPECT_EQ(lines[1], "b.count counter 3");
    EXPECT_EQ(lines[2], "m.gauge gauge -7");
    EXPECT_EQ(lines[3].substr(0, 16), "z.lat histogram ");
    EXPECT_NE(lines[3].find("count=1"), std::string::npos);
    EXPECT_NE(lines[3].find("sum=100"), std::string::npos);
    EXPECT_NE(lines[3].find("p50="), std::string::npos);
    EXPECT_NE(lines[3].find("p99="), std::string::npos);
    EXPECT_NE(lines[3].find("max=100"), std::string::npos);
}

TEST(MetricsRegistry, RenderJsonIsWellFormedEnough)
{
    SamplingOn on;
    Registry reg;
    reg.counter("c").add(2);
    reg.histogram("h").record(10);
    std::string out;
    reg.renderJson(out);
    EXPECT_EQ(out.front(), '{');
    EXPECT_EQ(out.back(), '}');
    EXPECT_NE(out.find("\"counters\""), std::string::npos);
    EXPECT_NE(out.find("\"gauges\""), std::string::npos);
    EXPECT_NE(out.find("\"histograms\""), std::string::npos);
    EXPECT_NE(out.find("\"c\":2"), std::string::npos);
}

// ---- Concurrency (runs under TSan in CI) ------------------------------

TEST(MetricsConcurrent, MixedMutationUnderContention)
{
    SamplingOn on;
    Registry reg;
    Counter &c = reg.counter("tsan.count");
    Gauge &g = reg.gauge("tsan.gauge");
    Histogram &h = reg.histogram("tsan.lat");

    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kIters = 5000;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads + 1);
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (std::uint64_t i = 0; i < kIters; ++i) {
                c.add();
                g.set(static_cast<std::int64_t>(i));
                h.record(t * kIters + i);
            }
        });
    // A concurrent reader: snapshots while writers run.
    threads.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int i = 0; i < 50; ++i) {
            std::string out;
            reg.renderText(out);
            (void)c.value();
            (void)h.percentile(0.95);
        }
    });
    go.store(true, std::memory_order_release);
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(c.value(), kThreads * kIters);
    EXPECT_EQ(h.count(), kThreads * kIters);
}

TEST(MetricsConcurrent, RegistrationRaces)
{
    Registry reg;
    constexpr unsigned kThreads = 8;
    std::vector<Counter *> seen(kThreads, nullptr);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back(
            [&, t] { seen[t] = &reg.counter("race.count"); });
    for (std::thread &t : threads)
        t.join();
    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[t], seen[0]);
}

// ---- /stats over a mixed-priority serve run ---------------------------

/** Parse the /stats text body: name -> rest-of-line. */
std::map<std::string, std::string>
parseStats(const std::string &body)
{
    std::map<std::string, std::string> out;
    std::istringstream is(body);
    for (std::string line; std::getline(is, line);) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t sp = line.find(' ');
        EXPECT_NE(sp, std::string::npos) << line;
        out[line.substr(0, sp)] = line.substr(sp + 1);
    }
    return out;
}

/** Numeric value of a "counter N" / "gauge N" stats line. */
std::int64_t
statValue(const std::map<std::string, std::string> &stats,
          const std::string &name)
{
    const auto it = stats.find(name);
    if (it == stats.end())
        return -1;
    const std::size_t sp = it->second.find(' ');
    return std::stoll(it->second.substr(sp + 1));
}

/** Sum a counter family over shards. */
std::int64_t
sumOverShards(const std::map<std::string, std::string> &stats,
              const std::string &base, unsigned num_shards,
              const std::string &cls)
{
    std::int64_t total = 0;
    for (unsigned s = 0; s < num_shards; ++s) {
        const std::string name = "serve." + base +
                                 "{shard=" + std::to_string(s) +
                                 ",class=" + cls + "}";
        const std::int64_t v = statValue(stats, name);
        EXPECT_GE(v, 0) << name << " missing from /stats";
        total += v;
    }
    return total;
}

TEST(ServeStats, MixedPriorityRunRendersAccurateCounters)
{
    SamplingOn on;
    ServeOptions options;
    options.pipeline.num_threads = 2;
    options.num_shards = 2;
    options.queue_capacity = 64;

    const auto cloud = std::make_shared<const data::PointCloud>(
        data::makeS3disScene(512, 7));

    unsigned done = 0, expired = 0, cancelled = 0;
    const unsigned kPerClass = 6;
    {
        AsyncPipeline pipeline(options);
        std::vector<Ticket> tickets;

        // Mixed-priority load: Interactive and Batch requests that
        // run, plus Background requests admitted with an
        // already-expired deadline — they must retire Expired.
        for (unsigned i = 0; i < kPerClass; ++i) {
            tickets.push_back(pipeline.submitShared(
                cloud, {}, std::nullopt, Priority::Interactive,
                /*placement_key=*/i + 1));
            // The first request runs alone (1 in flight < 2 threads),
            // so it spills whatever the rest of the burst does: a
            // saturated shard runs requests inline, and a burst's
            // tail spills only if a peer finishes first.
            while (i == 0 && !pipeline.poll(tickets.back()))
                std::this_thread::yield();
            tickets.push_back(pipeline.submitShared(
                cloud, {}, std::nullopt, Priority::Batch,
                /*placement_key=*/i + 1));
            tickets.push_back(pipeline.submitShared(
                cloud, {}, std::chrono::nanoseconds(0),
                Priority::Background, /*placement_key=*/i + 1));
        }
        for (Ticket t : tickets) {
            const RequestOutcome outcome = consume(pipeline, t);
            switch (outcome.state) {
              case RequestState::Done:
                ++done;
                break;
              case RequestState::Expired:
                ++expired;
                break;
              case RequestState::Cancelled:
                ++cancelled;
                break;
              default:
                FAIL() << "unexpected terminal state";
            }
        }

        const std::string body = serve::renderStats(pipeline);
        // Header line documents the runtime shape.
        EXPECT_EQ(body.substr(0, body.find('\n')),
                  "# fractalcloud serve/stats shards=2 "
                  "threads_per_shard=2 sampling=on");
        const auto stats = parseStats(body);

        // Admission counters match what we submitted, per class.
        EXPECT_EQ(sumOverShards(stats, "submitted", 2, "interactive"),
                  kPerClass);
        EXPECT_EQ(sumOverShards(stats, "submitted", 2, "batch"),
                  kPerClass);
        EXPECT_EQ(sumOverShards(stats, "submitted", 2, "background"),
                  kPerClass);

        // Terminal counters match observed outcomes.
        EXPECT_EQ(sumOverShards(stats, "completed", 2, "interactive") +
                      sumOverShards(stats, "completed", 2, "batch") +
                      sumOverShards(stats, "completed", 2,
                                    "background"),
                  done);
        EXPECT_EQ(sumOverShards(stats, "expired", 2, "background"),
                  expired);
        EXPECT_EQ(cancelled, 0u);

        // Every zero-deadline Background request expired.
        EXPECT_EQ(expired, kPerClass);
        EXPECT_EQ(done, 2 * kPerClass);

        // Latency/wait histograms saw every completed request.
        std::int64_t latency_count = 0;
        for (unsigned s = 0; s < 2; ++s)
            for (const char *cls : {"interactive", "batch"}) {
                const std::string name =
                    std::string("serve.latency_us{shard=") +
                    std::to_string(s) + ",class=" + cls + "}";
                const auto it = stats.find(name);
                ASSERT_NE(it, stats.end()) << name;
                const std::size_t pos = it->second.find("count=");
                ASSERT_NE(pos, std::string::npos);
                latency_count +=
                    std::stoll(it->second.substr(pos + 6));
            }
        EXPECT_EQ(latency_count, done);

        // Work-conserving spill fired: with 2 threads per shard and
        // sequential-ish load, at least one request ran with its
        // block items spilled onto its shard's pool.
        std::int64_t spills = 0;
        for (unsigned s = 0; s < 2; ++s)
            spills += statValue(
                stats, "serve.spill_same{shard=" + std::to_string(s) +
                           "}");
        EXPECT_GT(spills, 0);

        // Every admitted request was counted on its shard and class.
        EXPECT_EQ(sumOverShards(stats, "submitted", 2, "interactive") +
                      sumOverShards(stats, "submitted", 2, "batch") +
                      sumOverShards(stats, "submitted", 2, "background"),
                  3 * kPerClass);

        // Slot and workspace telemetry: every executed request checked
        // one of each out, and the per-shard slab sizes add up to the
        // pipeline's workspace count.
        std::int64_t checkouts = 0, created = 0;
        for (unsigned s = 0; s < 2; ++s) {
            const std::string shard = "{shard=" + std::to_string(s) + "}";
            checkouts += statValue(stats, "serve.outcome.checkout" + shard);
            created += statValue(stats, "serve.workspace.created" + shard);
        }
        EXPECT_GE(checkouts, static_cast<std::int64_t>(done));
        EXPECT_EQ(created, static_cast<std::int64_t>(
                               pipeline.workspacesCreated()));

        // JSON variant carries the same shape fields.
        const std::string json = serve::renderStatsJson(pipeline);
        EXPECT_EQ(json.front(), '{');
        EXPECT_EQ(json.back(), '}');
        EXPECT_NE(json.find("\"shards\":2"), std::string::npos);
        EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
        EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    }
}

TEST(ServeStats, CancelledQueuedRequestIsCounted)
{
    SamplingOn on;
    ServeOptions options;
    options.pipeline.num_threads = 1;
    options.num_shards = 1;
    options.queue_capacity = 16;

    const auto cloud = std::make_shared<const data::PointCloud>(
        data::makeS3disScene(1024, 3));

    AsyncPipeline pipeline(options);
    // Occupy the single worker, then cancel queued Background work
    // before it can start.
    std::vector<Ticket> busy;
    for (int i = 0; i < 3; ++i)
        busy.push_back(pipeline.submitShared(cloud, {}, std::nullopt,
                                             Priority::Interactive));
    Ticket victim = pipeline.submitShared(cloud, {}, std::nullopt,
                                          Priority::Background);
    const bool requested = pipeline.cancel(victim);
    unsigned cancelled = 0;
    if (consume(pipeline, victim).state == RequestState::Cancelled)
        ++cancelled;
    for (Ticket t : busy)
        (void)consume(pipeline, t);
    EXPECT_TRUE(requested);

    const auto stats = parseStats(serve::renderStats(pipeline));
    EXPECT_EQ(statValue(
                  stats,
                  "serve.cancelled{shard=0,class=background}"),
              static_cast<std::int64_t>(cancelled));
}

} // namespace
} // namespace fc
