/**
 * @file
 * Runtime-dispatched vector kernels for the hot inner loops.
 *
 * The paper's speedup comes from wide PE arrays crunching distance and
 * feature math; on a CPU the equivalent is explicit vectorization of
 * the same three inner loops (the Fig. 4 bottleneck trio): the FPS
 * min-distance update, the ball-query/KNN distance screens, and the
 * MLP's dense layers. This header exposes exactly those primitives,
 * with two implementations behind one function-pointer table:
 *
 *   - Scalar: a reference path whose arithmetic is literally the loop
 *     it replaced — bit-identical to the pre-SIMD code, element order
 *     and all. This is the determinism anchor every test compares
 *     against.
 *   - Avx2: AVX2+FMA+F16C kernels compiled in a separate translation
 *     unit (simd_avx2.cc) with per-file -mavx2 flags, selected at
 *     runtime via cpuid so the binary still runs on older x86-64.
 *
 * Dispatch is decided once, on first use: cpuid gates Avx2, and the
 * FC_FORCE_SCALAR environment variable (any non-empty value except
 * "0") forces the scalar path. Tests and benches may also override
 * programmatically with setActiveLevel().
 *
 * Accuracy contract (asserted by tests/test_simd.cc):
 *
 *   - fpsUpdate, distance2Range, axpy: the Avx2 path is bit-identical
 *     to Scalar. The distance kernels deliberately avoid FMA and keep
 *     the scalar evaluation order ((dx*dx + dy*dy) + dz*dz), min/max
 *     and argmax semantics match the scalar comparisons including NaN
 *     behaviour, and axpy is elementwise mul+add.
 *   - fp16RoundBuffer: bit-identical to fp16Round (common/fp16.h)
 *     for every non-NaN input; NaN payloads may differ (F16C
 *     propagates payload bits, the software path canonicalizes to
 *     0x200) while staying NaN.
 *   - linearRelu: every (row, output) is one fp32 running sum seeded
 *     with the bias and taken over the inputs in index order, on both
 *     levels. Scalar adds each rounded product (the historical
 *     LinearRelu loop, bit for bit); Avx2 issues one FMA per step, so
 *     it rounds once per step instead of twice. Results are
 *     ULP-bounded, not bit-equal: the error is at most ~(n/8 + 8)
 *     float ULP of sum_i |a_i * b_i| for n inputs, and after binary16
 *     output rounding (how every MLP activation is stored) scalar and
 *     Avx2 agree to <= 1 fp16 ULP. (When both operands are
 *     fp16-valued, as on the inference path, every product is exact
 *     in fp32 and the two levels coincide.) The order never depends
 *     on the row tile, the chunk, the thread count or the shard, so a
 *     row's output is the same whichever batch computes it.
 *
 * Threading: kernels are pure functions over caller-owned memory and
 * may run concurrently on disjoint ranges — they are called from
 * inside parallelFor/parallelReduce chunks. setActiveLevel() is for
 * test/bench setup only, not for racing against in-flight kernels.
 */

#ifndef FC_CORE_SIMD_H
#define FC_CORE_SIMD_H

#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace fc::core::simd {

/** Implementation tiers, in dispatch-preference order. */
enum class Level : int
{
    Scalar = 0,
    Avx2 = 1,
};

/** True when the CPU (and the build) support the Avx2 kernels. */
bool avx2Available();

/**
 * The level every kernel currently dispatches to. Resolved once on
 * first use: Avx2 when available unless FC_FORCE_SCALAR is set.
 */
Level activeLevel();

/**
 * Override the dispatch level (tests/benches). Requesting Avx2 on a
 * machine without it keeps Scalar and returns false.
 */
bool setActiveLevel(Level level);

/** Human-readable level name ("scalar" / "avx2"). */
const char *levelName(Level level);

/**
 * Pure resolution rule behind activeLevel(), exposed for tests:
 * @p force_scalar_env is the raw FC_FORCE_SCALAR value (null = unset;
 * set and not "0" forces Scalar).
 */
Level resolveLevel(bool avx2_available, const char *force_scalar_env);

/**
 * Structure-of-arrays view of point coordinates (data::PointCloud::
 * soa()). Non-owning; pointers must stay valid for the kernel call.
 */
struct SoaView
{
    const float *xs = nullptr;
    const float *ys = nullptr;
    const float *zs = nullptr;
};

/**
 * Result of one fpsUpdate sweep over a chunk of local candidates.
 * `best`/`pos` carry the running-argmax state of the serial FPS loop
 * (strictly-greater updates, so `pos` is the earliest maximal local
 * index); `sampled` counts candidates skipped because their sampled
 * flag was set — the caller derives visited/computed/skipped stats
 * from it, keeping the kernel free of policy.
 */
struct FpsPartial
{
    float best = -1.0f;
    std::uint32_t pos = 0;
    std::uint32_t sampled = 0;
};

/**
 * Candidate addressing shared by fpsUpdate and distance2Range: local
 * position i in [begin, end) names point
 *
 *     order != nullptr ? order[i] : identity_base + i
 *
 * of @p pts. FPS callers pass their view's order pointer pre-offset
 * (order.data() + view_begin) so local positions index min_dist/
 * sampled directly; identity-view callers pass order = nullptr and
 * the view offset as @p identity_base.
 */

/**
 * One fused FPS distance-update sweep: for every unsampled local
 * candidate i in [begin, end), compute the squared distance from
 * @p query, lower min_dist[i] with it, and track the running argmax
 * of the updated min_dist — the body of the paper's FPS iteration.
 * Scalar-loop semantics exactly (see file header); min_dist is
 * updated in place, sampled is read-only.
 */
FpsPartial fpsUpdate(const SoaView &pts, const PointIdx *order,
                     std::uint32_t identity_base, const Vec3 &query,
                     float *min_dist, const std::uint8_t *sampled,
                     std::uint32_t begin, std::uint32_t end);

/**
 * Squared distances from @p query to the local candidates
 * [begin, end), written to out[i - begin]. The distance screen of
 * ball query and KNN: callers scan the tile with their own
 * radius/top-k logic.
 */
void distance2Range(const SoaView &pts, const PointIdx *order,
                    std::uint32_t identity_base, const Vec3 &query,
                    std::uint32_t begin, std::uint32_t end, float *out);

/**
 * Output-panel width of linearRelu's packed weights: panel p holds
 * the weights of outputs [16p, 16p + 16) as an [in x 16] block, one
 * 16-float row per input channel.
 */
inline constexpr std::size_t kLinearPanel = 16;

/**
 * Rows per register tile of the Avx2 linearRelu microkernel. LinearRelu
 * cuts its rows into chunks that are multiples of it, so only a
 * layer's last chunk runs a partial tile.
 */
inline constexpr std::size_t kLinearRowTile = 6;

/**
 * A dense layer y = act(W x + b) with weights packed for linearRelu.
 * Non-owning; nn::LinearRelu owns the buffers.
 *
 *   panels: ceil(out / kLinearPanel) panels; weight W[o][i] sits at
 *           panels[((o / 16) * in + i) * 16 + o % 16]. The last
 *           panel's lanes past `out` hold zeros.
 *   bias:   ceil(out / kLinearPanel) * kLinearPanel floats, zero past
 *           `out`.
 */
struct PackedLinear
{
    const float *panels = nullptr;
    const float *bias = nullptr;
    std::size_t in = 0;
    std::size_t out = 0;
    bool relu = true;
};

/**
 * One MLP layer over a chunk of rows: for each row r of the row-major
 * [rows x in] input @p x and each output o,
 *
 *     acc = bias[o]; for i in [0, in): acc += W[o][i] * x[r][i];
 *     y[r][o] = fp16Round(relu && acc < 0 ? 0 : acc)
 *
 * written to the row-major [rows x out] @p y (fp32 accumulation over
 * fp16 operands, as in the paper's PE array). Scalar: that loop,
 * literally. Avx2: an R-row x 16-output register tile over the packed
 * panels, one FMA per step in the same index order (ULP-bounded, see
 * the file header).
 */
void linearRelu(const PackedLinear &layer, const float *x,
                std::size_t rows, float *y);

/** y[i] += a * x[i], elementwise (bit-identical across levels). */
void axpy(float a, const float *x, float *y, std::size_t n);

/** Round @p n floats through binary16 in place (Tensor::quantizeFp16
 *  and the LinearRelu activation store). */
void fp16RoundBuffer(float *values, std::size_t n);

namespace detail {

/** Per-level kernel table; one instance per Level. */
struct Kernels
{
    FpsPartial (*fps_update)(const SoaView &, const PointIdx *,
                             std::uint32_t, const Vec3 &, float *,
                             const std::uint8_t *, std::uint32_t,
                             std::uint32_t);
    void (*distance2_range)(const SoaView &, const PointIdx *,
                            std::uint32_t, const Vec3 &, std::uint32_t,
                            std::uint32_t, float *);
    void (*linear_relu)(const PackedLinear &, const float *, std::size_t,
                        float *);
    void (*axpy)(float, const float *, float *, std::size_t);
    void (*fp16_round)(float *, std::size_t);
};

/** The active table (atomic pointer swap under setActiveLevel). */
const Kernels &active();

/** Avx2 table, or null when the build/CPU cannot run it. Defined in
 *  simd_avx2.cc (the only TU compiled with -mavx2 -mfma -mf16c). */
const Kernels *avx2Kernels();

} // namespace detail

} // namespace fc::core::simd

#endif // FC_CORE_SIMD_H
