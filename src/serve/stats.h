/**
 * @file
 * /stats rendering — the serving runtime's observability export.
 *
 * Two renderings of one AsyncPipeline's metrics registry:
 *
 *   - renderStats: a stable, line-oriented text format (the classic
 *     /stats endpoint body). One instrument per line, grouped by
 *     kind and sorted by name within each kind, preceded by a single
 *     `#`-prefixed header line identifying the runtime shape:
 *
 *       # fractalcloud serve/stats shards=N threads_per_shard=N sampling=on
 *       serve.outcome.checkout{shard=0} counter 42
 *       ...
 *       serve.queue_depth{shard=0,class=interactive} gauge 0
 *       ...
 *       serve.wait_us{shard=0,class=interactive} histogram count=42 sum=...
 *
 *     The format is a compatibility surface: scrapers and the CI
 *     perf-trajectory tooling parse it, so lines keep their shape:
 *     new instruments may appear, and an instrument that goes is
 *     dropped whole (docs/SERVING.md lists the current set).
 *
 *   - renderStatsJson: the same registry as a machine-readable JSON
 *     object: {"shards":N,"threads_per_shard":N,"sampling":bool,
 *     "metrics":{"counters":{...},"gauges":{...},"histograms":{...}}}.
 *
 * Both are snapshots: counters/gauges are relaxed reads, histogram
 * fields are per-field consistent but not cross-field atomic —
 * adequate for monitoring, not for exact accounting during a race.
 * Rendering allocates only inside the caller's output string.
 */

#ifndef FC_SERVE_STATS_H
#define FC_SERVE_STATS_H

#include <string>

namespace fc::serve {

class AsyncPipeline;

/** Append the /stats text body for @p pipeline to @p out. */
void renderStats(const AsyncPipeline &pipeline, std::string &out);

/** Append the /stats JSON body for @p pipeline to @p out. */
void renderStatsJson(const AsyncPipeline &pipeline, std::string &out);

/** Value-returning conveniences. */
std::string renderStats(const AsyncPipeline &pipeline);
std::string renderStatsJson(const AsyncPipeline &pipeline);

} // namespace fc::serve

#endif // FC_SERVE_STATS_H
