/**
 * @file
 * SIMD kernel bench: scalar vs dispatched kernels, per kernel and end
 * to end.
 *
 * Each kernel row times the same workload twice — once with the
 * dispatch level forced to Scalar, once at the best level the machine
 * supports — and prints both times plus the speedup. The
 * linear-relu-fp32 row (the blocked MLP kernel under LinearRelu) also
 * prints its dispatched throughput in GMAC/s. The end-to-end row
 * times one warm inference at the default level.
 *
 * CI contract (Release perf-smoke): the CSV shape is gated by
 * scripts/check_bench_csv.sh, and when the AVX2 kernels are active
 * this binary exits non-zero unless the FPS distance-update row
 * reaches a 2x speedup over scalar and the LinearRelu row a 5x one
 * (the register-blocked FMA tile against the scalar running-sum
 * loop). On scalar-only machines the rows print with speedup 1.0 and
 * nothing is asserted.
 */

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "core/simd.h"
#include "nn/mlp.h"
#include "nn/network.h"

namespace {

namespace simd = fc::core::simd;

/** One kernel row: run @p fn at Scalar and at the dispatched level. */
struct KernelTiming
{
    double scalar_ms = 0.0;
    double simd_ms = 0.0;

    double
    speedup() const
    {
        return simd_ms > 0.0 ? scalar_ms / simd_ms : 0.0;
    }
};

template <typename Fn>
KernelTiming
timeBothLevels(Fn &&fn, int reps)
{
    KernelTiming t;
    simd::setActiveLevel(simd::Level::Scalar);
    t.scalar_ms = 1e3 * fcb::bestSeconds(fn, reps);
    if (simd::avx2Available()) {
        simd::setActiveLevel(simd::Level::Avx2);
        t.simd_ms = 1e3 * fcb::bestSeconds(fn, reps);
        simd::setActiveLevel(simd::Level::Scalar);
    } else {
        t.simd_ms = t.scalar_ms;
    }
    return t;
}

constexpr std::size_t kPoints = 1 << 16;
constexpr std::size_t kLayerDim = 128;
constexpr std::size_t kLayerRows = 512;
constexpr int kReps = 5;

void
simdTable()
{
    fc::Pcg32 rng(1);
    const std::size_t n = kPoints;

    // Shared SoA candidate set.
    std::vector<float> xs(n), ys(n), zs(n);
    for (std::size_t i = 0; i < n; ++i) {
        xs[i] = rng.uniform(-1.0f, 1.0f);
        ys[i] = rng.uniform(-1.0f, 1.0f);
        zs[i] = rng.uniform(-1.0f, 1.0f);
    }
    const simd::SoaView pts{xs.data(), ys.data(), zs.data()};
    const fc::Vec3 query(0.1f, -0.2f, 0.3f);

    fc::Table table({"kernel", "scalar ms", "simd ms", "speedup",
                     "simd GMAC/s", "level"});
    const char *level_name =
        simd::levelName(simd::avx2Available() ? simd::Level::Avx2
                                              : simd::Level::Scalar);
    const auto add_row = [&](const char *kernel, const KernelTiming &t,
                             const std::string &gmacs = "-") {
        table.addRow({kernel, fc::Table::num(t.scalar_ms),
                      fc::Table::num(t.simd_ms),
                      fc::Table::num(t.speedup()), gmacs, level_name});
    };

    // FPS distance update: the fused min-distance + argmax sweep.
    std::vector<float> min_dist(n);
    std::vector<std::uint8_t> sampled(n, 0);
    for (std::size_t i = 0; i < n; i += 37)
        sampled[i] = 1;
    const KernelTiming fps = timeBothLevels(
        [&] {
            std::fill(min_dist.begin(), min_dist.end(),
                      std::numeric_limits<float>::max());
            for (int sweep = 0; sweep < 16; ++sweep) {
                const simd::FpsPartial p = simd::fpsUpdate(
                    pts, nullptr, 0, query, min_dist.data(),
                    sampled.data(), 0,
                    static_cast<std::uint32_t>(n));
                benchmark::DoNotOptimize(p.best);
            }
        },
        kReps);
    add_row("fps-update", fps);

    // Neighbor distance screen.
    std::vector<float> dist_out(n);
    const KernelTiming screen = timeBothLevels(
        [&] {
            for (int sweep = 0; sweep < 16; ++sweep) {
                simd::distance2Range(pts, nullptr, 0, query, 0,
                                     static_cast<std::uint32_t>(n),
                                     dist_out.data());
                benchmark::DoNotOptimize(dist_out.data());
            }
        },
        kReps);
    add_row("distance2-range", screen);

    // LinearRelu: the blocked GEMM kernel under its real caller
    // (weights packed and quantized, activations fp16-rounded).
    const fc::nn::LinearRelu layer(kLayerDim, kLayerDim, 7);
    fc::nn::Tensor x(kLayerRows, kLayerDim);
    for (std::size_t r = 0; r < kLayerRows; ++r)
        for (std::size_t c = 0; c < kLayerDim; ++c)
            x.at(r, c) = rng.uniform(-1.0f, 1.0f);
    x.quantizeFp16();
    fc::nn::Tensor y;
    const KernelTiming linear = timeBothLevels(
        [&] {
            layer.forward(x, nullptr, y);
            benchmark::DoNotOptimize(y.data().data());
        },
        kReps);
    const double linear_macs =
        static_cast<double>(layer.macs(kLayerRows));
    add_row("linear-relu-fp32", linear,
            fc::Table::num(linear_macs / (linear.simd_ms * 1e6)));

    // Interpolation blend (axpy).
    std::vector<float> blend_src(n, 0.5f), blend_dst(n, 0.0f);
    const KernelTiming blend = timeBothLevels(
        [&] {
            for (int sweep = 0; sweep < 16; ++sweep) {
                simd::axpy(0.25f, blend_src.data(), blend_dst.data(),
                           n);
                benchmark::DoNotOptimize(blend_dst.data());
            }
        },
        kReps);
    add_row("axpy", blend);

    // fp16 rounding (Tensor::quantizeFp16 / activation stores).
    std::vector<float> round_buf(n, 0.12345f);
    const KernelTiming rounding = timeBothLevels(
        [&] {
            for (int sweep = 0; sweep < 16; ++sweep) {
                simd::fp16RoundBuffer(round_buf.data(), n);
                benchmark::DoNotOptimize(round_buf.data());
            }
        },
        kReps);
    add_row("fp16-round", rounding);

    // End to end: one warm inference at the machine's default level.
    if (simd::avx2Available())
        simd::setActiveLevel(simd::Level::Avx2);
    const fc::data::PointCloud &scene = fcb::scene(4096);
    const fc::nn::Network network(fc::nn::pointNet2SemSeg(), 42);
    fc::nn::BackendOptions backend;
    backend.method = fc::part::Method::Fractal;
    fc::core::Workspace ws;
    fc::nn::InferenceResult out;
    network.run(scene, backend, ws, out); // warm the workspace
    const double e2e_ms = 1e3 * fcb::bestSeconds(
        [&] {
            ws.reset();
            network.run(scene, backend, ws, out);
            benchmark::DoNotOptimize(out.embedding.data().data());
        },
        3);
    table.addRow({"e2e-mixed", "-", fc::Table::num(e2e_ms), "-", "-",
                  simd::levelName(simd::activeLevel())});

    fcb::emit(table, "bench_simd_kernels",
              "SIMD kernel layer: scalar vs dispatched (" +
                  std::to_string(kPoints) + " candidates, " +
                  std::to_string(kLayerRows) + "x" +
                  std::to_string(kLayerDim) + " MLP rows)");

    // The CI floor: whenever the AVX2 path is in play, the FPS update
    // must beat scalar by 2x and the blocked LinearRelu by 5x.
    if (simd::avx2Available()) {
        bool ok = true;
        if (fps.speedup() < 2.0) {
            std::printf("FAIL: fps-update speedup %.2fx < 2x\n",
                        fps.speedup());
            ok = false;
        }
        if (linear.speedup() < 5.0) {
            std::printf("FAIL: linear-relu-fp32 speedup %.2fx < 5x\n",
                        linear.speedup());
            ok = false;
        }
        if (!ok)
            std::exit(1);
    }
}

/** Micro kernel: one FPS update sweep at the dispatched level. */
void
BM_FpsUpdateSweep(benchmark::State &state)
{
    const std::size_t n = 1 << 14;
    fc::Pcg32 rng(3);
    std::vector<float> xs(n), ys(n), zs(n),
        min_dist(n, std::numeric_limits<float>::max());
    std::vector<std::uint8_t> sampled(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        xs[i] = rng.uniform(-1.0f, 1.0f);
        ys[i] = rng.uniform(-1.0f, 1.0f);
        zs[i] = rng.uniform(-1.0f, 1.0f);
    }
    const simd::SoaView pts{xs.data(), ys.data(), zs.data()};
    const fc::Vec3 query(0.0f, 0.0f, 0.0f);
    for (auto _ : state) {
        const simd::FpsPartial p =
            simd::fpsUpdate(pts, nullptr, 0, query, min_dist.data(),
                            sampled.data(), 0,
                            static_cast<std::uint32_t>(n));
        benchmark::DoNotOptimize(p.best);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FpsUpdateSweep);

/** Micro kernel: the blocked LinearRelu over eight row tiles (48
 *  rows) of a 256 -> 128 layer, at the dispatched level. */
void
BM_LinearReluChunk(benchmark::State &state)
{
    const std::size_t in = 256;
    const std::size_t rows = 8 * simd::kLinearRowTile;
    const fc::nn::LinearRelu layer(in, 128, 5);
    fc::Pcg32 rng(5);
    fc::nn::Tensor x(rows, in);
    for (float &v : x.data())
        v = rng.uniform(-1.0f, 1.0f);
    x.quantizeFp16();
    fc::nn::Tensor y;
    for (auto _ : state) {
        layer.forward(x, nullptr, y);
        benchmark::DoNotOptimize(y.data().data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(layer.macs(rows)));
}
BENCHMARK(BM_LinearReluChunk);

} // namespace

FC_BENCH_MAIN(simdTable)
