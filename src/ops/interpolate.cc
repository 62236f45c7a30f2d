#include "ops/interpolate.h"

#include <cstdint>
#include <span>

#include "common/logging.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/workspace.h"

namespace fc::ops {

namespace {

/** Rows per parallel chunk of the blend loop. */
constexpr std::size_t kBlendGrain = 1024;

/**
 * Weighted blend of neighbor feature rows into the result for rows
 * [row_begin, row_end). Writes only those value rows and @p stats.
 * @p known_row maps a cloud index to its row in known_features
 * (-1 = not a known point) — a dense arena table, replacing the
 * per-call hash map so warm calls never touch the heap.
 */
void
blendRows(const data::PointCloud &cloud,
          const std::vector<float> &known_features, std::size_t channels,
          std::span<const std::int64_t> known_row,
          const NeighborResult &neighbors, std::size_t row_begin,
          std::size_t row_end, InterpolateResult &result,
          OpStats &stats)
{
    constexpr float kEps = 1e-8f;
    for (std::size_t row = row_begin; row < row_end; ++row) {
        float *out = result.values.data() + row * channels;
        const Vec3 &query = cloud[static_cast<PointIdx>(row)];
        float weight_sum = 0.0f;
        float weights[64];
        fc_assert(neighbors.k <= 64, "interpolation k too large");
        for (std::size_t j = 0; j < neighbors.k; ++j) {
            const PointIdx nb = neighbors.neighbor(row, j);
            if (nb == kInvalidPoint) {
                weights[j] = 0.0f;
                continue;
            }
            const float d2 = distance2(query, cloud[nb]);
            weights[j] = 1.0f / (d2 + kEps);
            weight_sum += weights[j];
        }
        if (weight_sum <= 0.0f)
            continue; // leave zeros
        const float inv = 1.0f / weight_sum;
        for (std::size_t j = 0; j < neighbors.k; ++j) {
            if (weights[j] <= 0.0f)
                continue;
            const PointIdx nb = neighbors.neighbor(row, j);
            const std::int64_t r = known_row[nb];
            fc_assert(r >= 0, "neighbor %u is not a known point", nb);
            const float *src =
                known_features.data() +
                static_cast<std::size_t>(r) * channels;
            const float w = weights[j] * inv;
            // Elementwise mul+add — bit-identical at every dispatch
            // level (core/simd.h).
            core::simd::axpy(w, src, out, channels);
            stats.bytes_gathered += channels * 2; // fp16 row
        }
        ++stats.iterations;
    }
}

} // namespace

void
interpolateFeatures(const data::PointCloud &cloud,
                    const std::vector<float> &known_features,
                    std::size_t channels,
                    const std::vector<PointIdx> &known_indices,
                    const NeighborResult &neighbors,
                    core::ThreadPool *pool, core::Workspace &ws,
                    InterpolateResult &out)
{
    fc_assert(known_features.size() == known_indices.size() * channels,
              "known feature matrix shape mismatch");
    fc_assert(neighbors.num_centers == cloud.size(),
              "neighbor table rows (%zu) != cloud size (%zu)",
              neighbors.num_centers, cloud.size());

    out.stats = {};
    out.num_points = cloud.size();
    out.channels = channels;
    out.values.assign(out.num_points * channels, 0.0f);
    out.stats += neighbors.stats;

    // Dense cloud-index -> known-row table (arena scratch). Same
    // lookups as the historical hash map, none of its per-node heap
    // churn.
    std::span<std::int64_t> known_row = ws.arena().allocSpan<std::int64_t>(
        cloud.size(), std::int64_t{-1});
    for (std::size_t i = 0; i < known_indices.size(); ++i)
        known_row[known_indices[i]] = static_cast<std::int64_t>(i);

    // Row chunks write disjoint value rows; per-chunk stats fold in
    // chunk order.
    out.stats += core::parallelReduce(
        pool, 0, neighbors.num_centers, kBlendGrain, OpStats{},
        [&](std::size_t cb, std::size_t ce) {
            OpStats stats;
            blendRows(cloud, known_features, channels, known_row,
                      neighbors, cb, ce, out, stats);
            return stats;
        },
        [](OpStats &acc, OpStats &&chunk) { acc += chunk; },
        &ws.arena());
}

void
globalInterpolate(const data::PointCloud &cloud,
                  const std::vector<float> &known_features,
                  std::size_t channels,
                  const std::vector<PointIdx> &known_indices,
                  std::size_t k, core::Workspace &ws,
                  InterpolateResult &out)
{
    NeighborResult &neighbors =
        ws.slot<NeighborResult>("ops.gi.nbr");
    knnSearch(cloud, known_indices, cloud.coords(), k, ws, neighbors);
    interpolateFeatures(cloud, known_features, channels, known_indices,
                        neighbors, nullptr, ws, out);
}

InterpolateResult
globalInterpolate(const data::PointCloud &cloud,
                  const std::vector<float> &known_features,
                  std::size_t channels,
                  const std::vector<PointIdx> &known_indices,
                  std::size_t k)
{
    core::Workspace ws;
    InterpolateResult out;
    globalInterpolate(cloud, known_features, channels, known_indices, k,
                      ws, out);
    return out;
}

void
blockInterpolate(const data::PointCloud &cloud,
                 const part::BlockTree &tree,
                 const BlockSampleResult &sampled,
                 const std::vector<float> &known_features,
                 std::size_t channels, std::size_t k,
                 core::ThreadPool *pool, core::Workspace &ws,
                 InterpolateResult &out)
{
    NeighborResult &neighbors =
        ws.slot<NeighborResult>("ops.bi.nbr");
    blockKnnToSamples(cloud, tree, sampled, k, pool, ws, neighbors);
    interpolateFeatures(cloud, known_features, channels,
                        sampled.indices, neighbors, pool, ws, out);
}

InterpolateResult
blockInterpolate(const data::PointCloud &cloud,
                 const part::BlockTree &tree,
                 const BlockSampleResult &sampled,
                 const std::vector<float> &known_features,
                 std::size_t channels, std::size_t k,
                 core::ThreadPool *pool)
{
    core::Workspace ws;
    InterpolateResult out;
    blockInterpolate(cloud, tree, sampled, known_features, channels, k,
                     pool, ws, out);
    return out;
}

} // namespace fc::ops
