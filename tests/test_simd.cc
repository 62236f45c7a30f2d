/**
 * @file
 * The core::simd accuracy contract, asserted.
 *
 *  - Dispatch resolution (FC_FORCE_SCALAR rule, setActiveLevel
 *    round-trips) as pure unit tests.
 *  - Scalar-vs-Avx2 equivalence for every kernel the contract calls
 *    bit-identical (fpsUpdate, distance2Range, axpy, fp16 rounding),
 *    on adversarial inputs: all-equal points, denormal coordinates,
 *    every binary16 value, and sizes straddling the 8-lane vector
 *    remainder.
 *  - The blocked linearRelu kernel: the scalar arm is bit-identical to
 *    the historical LinearRelu loop; a row's output does not depend on
 *    the batch, tile or thread count that computes it; and Avx2
 *    (one FMA per step) stays within the documented ULP bound of the
 *    scalar sum, <= 1 fp16 ULP after binary16 output rounding.
 *  - End-to-end: FPS / ball query / KNN identical across levels, and
 *    thread-count determinism with SIMD active (SimdDeterminism, in
 *    the TSan CI filter).
 *
 * Every test that overrides the dispatch level restores it on exit —
 * dispatch is process-global state shared with the rest of the test
 * binary.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fp16.h"
#include "common/rng.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/workspace.h"
#include "dataset/s3dis.h"
#include "nn/mlp.h"
#include "nn/network.h"
#include "ops/fps.h"
#include "ops/neighbor.h"

namespace fc {
namespace {

namespace simd = core::simd;

/** Restores the process-global dispatch level on scope exit. */
class LevelGuard
{
  public:
    LevelGuard() : saved_(simd::activeLevel()) {}
    ~LevelGuard() { simd::setActiveLevel(saved_); }
    LevelGuard(const LevelGuard &) = delete;
    LevelGuard &operator=(const LevelGuard &) = delete;

  private:
    simd::Level saved_;
};

/** Owning SoA triple + view over it. */
struct SoaCloud
{
    std::vector<float> xs, ys, zs;

    simd::SoaView
    view() const
    {
        return {xs.data(), ys.data(), zs.data()};
    }
};

SoaCloud
randomSoa(std::size_t n, std::uint64_t seed, float lo = -1.0f,
          float hi = 1.0f)
{
    Pcg32 rng(seed);
    SoaCloud c;
    c.xs.resize(n);
    c.ys.resize(n);
    c.zs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        c.xs[i] = rng.uniform(lo, hi);
        c.ys[i] = rng.uniform(lo, hi);
        c.zs[i] = rng.uniform(lo, hi);
    }
    return c;
}

/** Monotone rank of an fp16 bit pattern (sign-magnitude unfolded),
 *  so ULP distance is a plain integer difference. */
int
fp16Rank(std::uint16_t bits)
{
    const int mag = bits & 0x7fff;
    return (bits & 0x8000) ? -mag : mag;
}

/** Sizes that straddle the 8-lane width: empty tail, full tail, and
 *  every remainder in between, plus multi-iteration lengths. */
const std::size_t kRemainderSizes[] = {1,  2,  3,  5,  7,  8,  9,
                                       11, 15, 16, 17, 64, 100, 129};

// ---------------------------------------------------------------------
// Dispatch resolution
// ---------------------------------------------------------------------

TEST(SimdDispatch, ResolveLevelRule)
{
    using simd::Level;
    using simd::resolveLevel;
    // Unset: hardware decides.
    EXPECT_EQ(resolveLevel(true, nullptr), Level::Avx2);
    EXPECT_EQ(resolveLevel(false, nullptr), Level::Scalar);
    // Set and truthy: scalar, even with AVX2 present.
    EXPECT_EQ(resolveLevel(true, "1"), Level::Scalar);
    EXPECT_EQ(resolveLevel(true, "yes"), Level::Scalar);
    EXPECT_EQ(resolveLevel(true, "00"), Level::Scalar);
    // Empty or exactly "0": not forced.
    EXPECT_EQ(resolveLevel(true, ""), Level::Avx2);
    EXPECT_EQ(resolveLevel(true, "0"), Level::Avx2);
    // Forcing scalar on a scalar-only machine is a no-op.
    EXPECT_EQ(resolveLevel(false, "1"), Level::Scalar);
}

TEST(SimdDispatch, LevelNames)
{
    EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");
    EXPECT_STREQ(simd::levelName(simd::Level::Avx2), "avx2");
}

TEST(SimdDispatch, SetActiveLevelRoundTrip)
{
    LevelGuard guard;
    EXPECT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
    EXPECT_EQ(simd::activeLevel(), simd::Level::Scalar);
    const bool honored = simd::setActiveLevel(simd::Level::Avx2);
    EXPECT_EQ(honored, simd::avx2Available());
    EXPECT_EQ(simd::activeLevel(), honored ? simd::Level::Avx2
                                           : simd::Level::Scalar);
}

// ---------------------------------------------------------------------
// Scalar-vs-Avx2 bit-identity
// ---------------------------------------------------------------------

#define FC_REQUIRE_AVX2()                                               \
    do {                                                                \
        if (!simd::avx2Available())                                     \
            GTEST_SKIP() << "AVX2 kernels not available";               \
    } while (0)

TEST(SimdEquivalence, FpsUpdateBitIdentical)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    for (const std::size_t n : kRemainderSizes) {
        const SoaCloud cloud = randomSoa(n + 16, n * 7 + 1);
        Pcg32 rng(n * 13 + 5);
        std::vector<std::uint8_t> sampled(n);
        std::vector<float> seed_dist(n);
        for (std::size_t i = 0; i < n; ++i) {
            sampled[i] = rng.uniform() < 0.2f ? 1 : 0;
            seed_dist[i] = rng.uniform(0.0f, 4.0f);
        }
        std::vector<PointIdx> order(n);
        for (std::size_t i = 0; i < n; ++i)
            order[i] = static_cast<PointIdx>((i * 5 + 3) % (n + 16));
        const Vec3 query(0.3f, -0.2f, 0.8f);

        // Identity view (offset base) and order view, both levels.
        for (const bool use_order : {false, true}) {
            const PointIdx *order_ptr =
                use_order ? order.data() : nullptr;
            const std::uint32_t base = use_order ? 0u : 4u;

            std::vector<float> dist_scalar = seed_dist;
            ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
            const simd::FpsPartial ps = simd::fpsUpdate(
                cloud.view(), order_ptr, base, query,
                dist_scalar.data(), sampled.data(), 0,
                static_cast<std::uint32_t>(n));

            std::vector<float> dist_avx2 = seed_dist;
            ASSERT_TRUE(simd::setActiveLevel(simd::Level::Avx2));
            const simd::FpsPartial pa = simd::fpsUpdate(
                cloud.view(), order_ptr, base, query,
                dist_avx2.data(), sampled.data(), 0,
                static_cast<std::uint32_t>(n));

            EXPECT_EQ(ps.best, pa.best) << "n=" << n;
            EXPECT_EQ(ps.pos, pa.pos) << "n=" << n;
            EXPECT_EQ(ps.sampled, pa.sampled) << "n=" << n;
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(dist_scalar[i], dist_avx2[i])
                    << "n=" << n << " i=" << i;
        }
    }
}

TEST(SimdEquivalence, FpsUpdateAllEqualPointsTieBreak)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    // Every candidate at the same spot: every updated distance is
    // equal, so the argmax is decided purely by the tie-break (the
    // earliest index must win, as in the serial loop).
    for (const std::size_t n : kRemainderSizes) {
        SoaCloud cloud;
        cloud.xs.assign(n, 0.25f);
        cloud.ys.assign(n, -0.5f);
        cloud.zs.assign(n, 0.125f);
        std::vector<std::uint8_t> sampled(n, 0);
        sampled[0] = 1; // the tie must go to the first *unsampled*
        const Vec3 query(1.0f, 1.0f, 1.0f);

        for (const simd::Level level :
             {simd::Level::Scalar, simd::Level::Avx2}) {
            std::vector<float> dist(
                n, std::numeric_limits<float>::max());
            ASSERT_TRUE(simd::setActiveLevel(level));
            const simd::FpsPartial p = simd::fpsUpdate(
                cloud.view(), nullptr, 0, query, dist.data(),
                sampled.data(), 0, static_cast<std::uint32_t>(n));
            if (n == 1) {
                // Sole candidate is sampled: nothing updates.
                EXPECT_EQ(p.best, -1.0f);
                EXPECT_EQ(p.sampled, 1u);
            } else {
                EXPECT_EQ(p.pos, 1u)
                    << simd::levelName(level) << " n=" << n;
                EXPECT_EQ(p.sampled, 1u);
            }
        }
    }
}

TEST(SimdEquivalence, Distance2RangeBitIdenticalIncludingDenormals)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    for (const std::size_t n : kRemainderSizes) {
        // Denormal-magnitude coordinates: differences and squares run
        // through the gradual-underflow range.
        SoaCloud cloud = randomSoa(n, n + 31);
        const float denorm = std::ldexp(1.0f, -140);
        for (std::size_t i = 0; i < n; i += 3) {
            cloud.xs[i] = denorm * static_cast<float>(i + 1);
            cloud.ys[i] = -denorm;
            cloud.zs[i] = 0.0f;
        }
        const Vec3 query(denorm, 0.0f, 0.5f);
        std::vector<PointIdx> order(n);
        for (std::size_t i = 0; i < n; ++i)
            order[i] = static_cast<PointIdx>(n - 1 - i);

        for (const bool use_order : {false, true}) {
            std::vector<float> out_scalar(n), out_avx2(n);
            const PointIdx *order_ptr =
                use_order ? order.data() : nullptr;
            ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
            simd::distance2Range(cloud.view(), order_ptr, 0, query, 0,
                                 static_cast<std::uint32_t>(n),
                                 out_scalar.data());
            ASSERT_TRUE(simd::setActiveLevel(simd::Level::Avx2));
            simd::distance2Range(cloud.view(), order_ptr, 0, query, 0,
                                 static_cast<std::uint32_t>(n),
                                 out_avx2.data());
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(out_scalar[i], out_avx2[i])
                    << "n=" << n << " i=" << i
                    << " order=" << use_order;
        }
    }
}

TEST(SimdEquivalence, AxpyBitIdentical)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    for (const std::size_t n : kRemainderSizes) {
        Pcg32 rng(n * 3 + 17);
        std::vector<float> x(n), y_seed(n);
        for (std::size_t i = 0; i < n; ++i) {
            x[i] = rng.uniform(-2.0f, 2.0f);
            y_seed[i] = rng.uniform(-2.0f, 2.0f);
        }
        const float a = 0.37f;

        std::vector<float> y_scalar = y_seed;
        ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
        simd::axpy(a, x.data(), y_scalar.data(), n);
        std::vector<float> y_avx2 = y_seed;
        ASSERT_TRUE(simd::setActiveLevel(simd::Level::Avx2));
        simd::axpy(a, x.data(), y_avx2.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(y_scalar[i], y_avx2[i]) << "n=" << n;
    }
}

/**
 * Round a copy of @p values through fp16RoundBuffer at @p level and
 * check every element against the software converter bit for bit
 * (a float compare would let -0 pass for +0).
 */
void
expectRoundMatchesSoftware(simd::Level level,
                           const std::vector<float> &values)
{
    ASSERT_TRUE(simd::setActiveLevel(level));
    std::vector<float> rounded = values;
    simd::fp16RoundBuffer(rounded.data(), rounded.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint32_t>(rounded[i]),
                  std::bit_cast<std::uint32_t>(fp16Round(values[i])))
            << simd::levelName(level) << " value " << values[i];
}

TEST(SimdEquivalence, Fp16ConversionsExhaustiveNonNan)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    // Every one of the 2^16 binary16 patterns except NaN (payloads may
    // legitimately differ, see the header contract), widened in
    // software: rounding an fp16-valued float must return it
    // unchanged, on both levels.
    std::vector<float> values;
    values.reserve(1u << 16);
    for (std::uint32_t b = 0; b < (1u << 16); ++b) {
        const bool is_nan =
            (b & 0x7c00u) == 0x7c00u && (b & 0x03ffu) != 0;
        if (!is_nan)
            values.push_back(
                fp16BitsToFp32(static_cast<std::uint16_t>(b)));
    }
    for (const simd::Level level :
         {simd::Level::Scalar, simd::Level::Avx2})
        expectRoundMatchesSoftware(level, values);
}

TEST(SimdEquivalence, Fp32ToFp16MatchesSoftwareConverter)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    // Random floats across the full rounding range plus the edges:
    // zero signs, overflow, the max normal, fp16 subnormals, and
    // fp32 values far below fp16 range.
    std::vector<float> values = {0.0f,
                                 -0.0f,
                                 1.0f,
                                 65504.0f,
                                 65520.0f, // rounds to +inf
                                 -65520.0f,
                                 std::numeric_limits<float>::infinity(),
                                 -std::numeric_limits<float>::infinity(),
                                 std::ldexp(1.0f, -24),
                                 std::ldexp(1.0f, -25), // ties to even
                                 std::ldexp(1.0f, -26), // flushes
                                 1e-30f,
                                 std::ldexp(1.0f, -140)};
    Pcg32 rng(2026);
    for (int i = 0; i < 4096; ++i)
        values.push_back(rng.uniform(-70000.0f, 70000.0f));
    for (int i = 0; i < 4096; ++i)
        values.push_back(rng.uniform(-1.0f, 1.0f));

    for (const simd::Level level :
         {simd::Level::Scalar, simd::Level::Avx2})
        expectRoundMatchesSoftware(level, values);
}

// ---------------------------------------------------------------------
// Blocked linearRelu kernel
// ---------------------------------------------------------------------

/** A dense layer in plain [out x in] form plus its packed twin. */
struct TestLayer
{
    std::size_t in = 0;
    std::size_t out = 0;
    bool relu = true;
    std::vector<float> weights; ///< [out x in]
    std::vector<float> bias;    ///< out
    std::vector<float> panels;  ///< simd::PackedLinear layout
    std::vector<float> padded_bias;

    simd::PackedLinear
    packed() const
    {
        return {panels.data(), padded_bias.data(), in, out, relu};
    }
};

/** Pack @p layer's weights into the documented panel layout. */
void
pack(TestLayer &layer)
{
    const std::size_t width =
        (layer.out + simd::kLinearPanel - 1) / simd::kLinearPanel *
        simd::kLinearPanel;
    layer.panels.assign(width * layer.in, 0.0f);
    layer.padded_bias.assign(width, 0.0f);
    for (std::size_t o = 0; o < layer.out; ++o) {
        for (std::size_t i = 0; i < layer.in; ++i)
            layer.panels[((o / simd::kLinearPanel) * layer.in + i) *
                             simd::kLinearPanel +
                         o % simd::kLinearPanel] =
                layer.weights[o * layer.in + i];
        layer.padded_bias[o] = layer.bias[o];
    }
}

TestLayer
randomLayer(std::size_t in, std::size_t out, bool relu,
            std::uint64_t seed)
{
    Pcg32 rng(seed);
    TestLayer layer;
    layer.in = in;
    layer.out = out;
    layer.relu = relu;
    layer.weights.resize(out * in);
    layer.bias.resize(out);
    for (float &w : layer.weights)
        w = rng.uniform(-1.0f, 1.0f);
    for (float &b : layer.bias)
        b = rng.uniform(-0.5f, 0.5f);
    pack(layer);
    return layer;
}

std::vector<float>
randomRows(std::size_t rows, std::size_t in, std::uint64_t seed)
{
    Pcg32 rng(seed);
    std::vector<float> x(rows * in);
    for (float &v : x)
        v = rng.uniform(-1.0f, 1.0f);
    return x;
}

/** The LinearRelu row loop as it stood before the blocked kernel: a
 *  bias-seeded sequential sum per (row, output), ReLU, fp16 round. */
std::vector<float>
referenceLinearRelu(const TestLayer &layer, const std::vector<float> &x,
                    std::size_t rows)
{
    std::vector<float> y(rows * layer.out);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t o = 0; o < layer.out; ++o) {
            float acc = layer.bias[o];
            for (std::size_t i = 0; i < layer.in; ++i)
                acc += layer.weights[o * layer.in + i] *
                       x[r * layer.in + i];
            if (layer.relu && acc < 0.0f)
                acc = 0.0f;
            y[r * layer.out + o] = fp16Round(acc);
        }
    return y;
}

std::vector<std::uint32_t>
bitsOf(const std::vector<float> &values)
{
    std::vector<std::uint32_t> bits(values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        bits[i] = std::bit_cast<std::uint32_t>(values[i]);
    return bits;
}

/** Both levels where the machine has Avx2, else Scalar only. */
std::vector<simd::Level>
availableLevels()
{
    if (simd::avx2Available())
        return {simd::Level::Scalar, simd::Level::Avx2};
    return {simd::Level::Scalar};
}

TEST(SimdDeterminism, LinearReluScalarMatchesHistoricalLoop)
{
    LevelGuard guard;
    ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
    // 2R + 3 rows: two full tiles and a partial one.
    const std::size_t rows = 2 * simd::kLinearRowTile + 3;
    for (const std::size_t in : {1, 3, 6, 131, 320})
        for (const std::size_t out : {1, 3, 4, 13, 16, 17, 64, 256})
            for (const bool relu : {true, false}) {
                const TestLayer layer =
                    randomLayer(in, out, relu, in * 1000 + out);
                const std::vector<float> x =
                    randomRows(rows, in, in + out);
                std::vector<float> y(rows * out);
                simd::linearRelu(layer.packed(), x.data(), rows,
                                 y.data());
                EXPECT_EQ(bitsOf(y),
                          bitsOf(referenceLinearRelu(layer, x, rows)))
                    << in << " -> " << out << " relu=" << relu;
            }
}

TEST(SimdDeterminism, LinearReluRowIndependentOfBatchAndThreads)
{
    LevelGuard guard;
    const std::size_t max_batch = 2 * simd::kLinearRowTile + 3;
    const std::size_t rows = 40;
    // 320 -> 256 cuts its rows into one-tile chunks (several chunks
    // per batch); 13 -> 17 takes a whole batch in one chunk and ends
    // on a partial output panel.
    for (const auto &[in, out] :
         {std::pair<std::size_t, std::size_t>{320, 256}, {13, 17}}) {
        const nn::LinearRelu layer(in, out, in + out);
        nn::Tensor x(rows, in);
        x.data() = randomRows(rows, in, in * out);
        x.quantizeFp16();
        for (const simd::Level level : availableLevels()) {
            ASSERT_TRUE(simd::setActiveLevel(level));
            // Every row computed alone.
            std::vector<float> alone;
            for (std::size_t r = 0; r < rows; ++r) {
                nn::Tensor one(1, in), y;
                std::copy(x.row(r).begin(), x.row(r).end(),
                          one.row(0).begin());
                layer.forward(one, nullptr, y);
                alone.insert(alone.end(), y.data().begin(),
                             y.data().end());
            }
            for (const unsigned threads : {1u, 2u, 4u}) {
                core::ThreadPool pool(threads);
                for (std::size_t batch = 1; batch <= max_batch;
                     ++batch) {
                    std::vector<float> batched;
                    for (std::size_t r0 = 0; r0 < rows; r0 += batch) {
                        const std::size_t n = std::min(batch, rows - r0);
                        nn::Tensor part(n, in), y;
                        std::copy(x.row(r0).begin(),
                                  x.row(r0).begin() + n * in,
                                  part.data().begin());
                        layer.forward(part, &pool, y);
                        batched.insert(batched.end(), y.data().begin(),
                                       y.data().end());
                    }
                    EXPECT_EQ(bitsOf(batched), bitsOf(alone))
                        << simd::levelName(level) << " " << in << " -> "
                        << out << " batch " << batch << ", "
                        << threads << " threads";
                }
            }
        }
    }
}

TEST(SimdDeterminism, LinearReluLevelsAgreeAtLayerShapes)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    const std::size_t rows = 2 * simd::kLinearRowTile + 3;
    for (const auto &[in, out] :
         {std::pair<std::size_t, std::size_t>{131, 128}, {320, 256}}) {
        const nn::LinearRelu layer(in, out, 11);
        nn::Tensor x(rows, in);
        x.data() = randomRows(rows, in, in + 5);
        x.quantizeFp16();
        nn::Tensor y_scalar, y_avx2;
        ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
        layer.forward(x, nullptr, y_scalar);
        ASSERT_TRUE(simd::setActiveLevel(simd::Level::Avx2));
        layer.forward(x, nullptr, y_avx2);
        for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t c = 0; c < out; ++c) {
                const int rs =
                    fp16Rank(fp32ToFp16Bits(y_scalar.at(r, c)));
                const int ra = fp16Rank(fp32ToFp16Bits(y_avx2.at(r, c)));
                EXPECT_LE(std::abs(rs - ra), 1)
                    << in << " -> " << out << " row " << r << " col "
                    << c;
            }
    }
}

/**
 * One output of an (n + 2)-input, ReLU-free layer at the active level:
 * fp16(init + sum_i a[i] * b[i] - c1 - c2), the last two terms being
 * weight c_m times input -1.
 */
float
linearSumMinus(float init, const std::vector<float> &a,
               const std::vector<float> &b, float c1, float c2)
{
    TestLayer layer;
    layer.in = a.size() + 2;
    layer.out = 1;
    layer.relu = false;
    layer.bias = {init};
    layer.weights = a;
    layer.weights.push_back(c1);
    layer.weights.push_back(c2);
    pack(layer);
    std::vector<float> x = b;
    x.push_back(-1.0f);
    x.push_back(-1.0f);
    float y = 0.0f;
    simd::linearRelu(layer.packed(), x.data(), 1, &y);
    return y;
}

/**
 * The fp32 sum S = init + sum_i a[i] * b[i] as the active level's
 * linearRelu accumulates it, read exactly through its fp16 epilogue.
 * The bias and weights are first scaled by a power of two that puts S
 * near 2^10 (exact: every product and partial sum scales with it).
 * Then C1 = fp16(S), C2 = fp16(S - C1) and C3 = fp16(S - C1 - C2):
 * each subtraction is exact (Sterbenz, as c_m is the fp16 rounding of
 * what it subtracts), the last remainder has at most three bits above
 * ULP(S) >= 2^-14 and so is exact in binary16, and S = C1 + C2 + C3.
 * @p rounded receives the unscaled output fp16(S).
 */
double
accumulatedSum(float init, const std::vector<float> &a,
               const std::vector<float> &b, float *rounded)
{
    *rounded = linearSumMinus(init, a, b, 0.0f, 0.0f);
    EXPECT_NE(*rounded, 0.0f) << "sum too small to read back";
    const int scale = 10 - std::ilogb(*rounded);
    std::vector<float> scaled = a;
    for (float &w : scaled)
        w = std::ldexp(w, scale);
    const float init_scaled = std::ldexp(init, scale);
    const float c1 = linearSumMinus(init_scaled, scaled, b, 0.0f, 0.0f);
    const float c2 = linearSumMinus(init_scaled, scaled, b, c1, 0.0f);
    const float c3 = linearSumMinus(init_scaled, scaled, b, c1, c2);
    return std::ldexp(static_cast<double>(c1) + static_cast<double>(c2) +
                          static_cast<double>(c3),
                      -scale);
}

TEST(SimdDeterminism, LinearReluWithinDocumentedUlpBound)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                std::size_t{8}, std::size_t{9},
                                std::size_t{64}, std::size_t{1000}}) {
        Pcg32 rng(n * 97 + 11);
        std::vector<float> a(n), b(n);
        double magnitude = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            a[i] = rng.uniform(-1.0f, 1.0f);
            b[i] = rng.uniform(-1.0f, 1.0f);
            magnitude += std::abs(static_cast<double>(a[i]) *
                                  static_cast<double>(b[i]));
        }
        const float init = 0.5f;

        float out_scalar = 0.0f, out_avx2 = 0.0f;
        ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
        const double sum_scalar = accumulatedSum(init, a, b, &out_scalar);
        ASSERT_TRUE(simd::setActiveLevel(simd::Level::Avx2));
        const double sum_avx2 = accumulatedSum(init, a, b, &out_avx2);

        // The scalar read-back is the historical running sum exactly.
        float running = init;
        for (std::size_t i = 0; i < n; ++i)
            running += a[i] * b[i];
        EXPECT_EQ(sum_scalar, static_cast<double>(running)) << "n=" << n;

        // ~(n/8 + 8) float ULP of sum_i |a_i b_i| (see core/simd.h).
        const double ulp =
            static_cast<double>(std::nextafter(
                static_cast<float>(magnitude),
                std::numeric_limits<float>::infinity())) -
            magnitude;
        const double bound =
            (static_cast<double>(n) / 8.0 + 8.0) * ulp;
        EXPECT_NEAR(sum_scalar, sum_avx2, bound) << "n=" << n;

        // After binary16 output rounding the two levels agree to
        // <= 1 fp16 ULP — the form every stored activation takes.
        const int rank_scalar = fp16Rank(fp32ToFp16Bits(out_scalar));
        const int rank_avx2 = fp16Rank(fp32ToFp16Bits(out_avx2));
        EXPECT_LE(std::abs(rank_scalar - rank_avx2), 1) << "n=" << n;
    }
}

TEST(SimdAccuracy, LinearReluLevelsAgreeWithinOneFp16Ulp)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    nn::LinearRelu layer(48, 32, 7);
    nn::Tensor x(5, 48);
    Pcg32 rng(99);
    for (std::size_t r = 0; r < x.rows(); ++r)
        for (std::size_t c = 0; c < x.cols(); ++c)
            x.at(r, c) = rng.uniform(-1.0f, 1.0f);
    x.quantizeFp16();

    nn::Tensor y_scalar, y_avx2;
    ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
    layer.forward(x, nullptr, y_scalar);
    ASSERT_TRUE(simd::setActiveLevel(simd::Level::Avx2));
    layer.forward(x, nullptr, y_avx2);

    ASSERT_EQ(y_scalar.rows(), y_avx2.rows());
    ASSERT_EQ(y_scalar.cols(), y_avx2.cols());
    for (std::size_t r = 0; r < y_scalar.rows(); ++r)
        for (std::size_t c = 0; c < y_scalar.cols(); ++c) {
            // Outputs are fp16-rounded already; compare their ranks.
            const int rs = fp16Rank(fp32ToFp16Bits(y_scalar.at(r, c)));
            const int ra = fp16Rank(fp32ToFp16Bits(y_avx2.at(r, c)));
            EXPECT_LE(std::abs(rs - ra), 1)
                << "row " << r << " col " << c;
        }
}

// ---------------------------------------------------------------------
// End-to-end equivalence across levels
// ---------------------------------------------------------------------

TEST(SimdEquivalence, GeometryOpsIdenticalAcrossLevels)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    const data::PointCloud scene = data::makeS3disScene(512, 3);
    std::vector<PointIdx> all(scene.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = static_cast<PointIdx>(i);

    ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
    const ops::SampleResult fps_scalar =
        ops::farthestPointSample(scene, 64, {}, nullptr);
    const ops::NeighborResult ball_scalar =
        ops::ballQuery(scene, fps_scalar.indices, 0.3f, 8, nullptr);
    const ops::NeighborResult knn_scalar =
        ops::knnSearch(scene, all, scene.coords(), 4);

    ASSERT_TRUE(simd::setActiveLevel(simd::Level::Avx2));
    const ops::SampleResult fps_avx2 =
        ops::farthestPointSample(scene, 64, {}, nullptr);
    const ops::NeighborResult ball_avx2 =
        ops::ballQuery(scene, fps_scalar.indices, 0.3f, 8, nullptr);
    const ops::NeighborResult knn_avx2 =
        ops::knnSearch(scene, all, scene.coords(), 4);

    EXPECT_EQ(fps_scalar.indices, fps_avx2.indices);
    EXPECT_EQ(ball_scalar.indices, ball_avx2.indices);
    EXPECT_EQ(ball_scalar.counts, ball_avx2.counts);
    EXPECT_EQ(knn_scalar.indices, knn_avx2.indices);
    EXPECT_EQ(knn_scalar.counts, knn_avx2.counts);
}

/** Tiny two-stage segmentation model (SA + FP + head). */
nn::ModelConfig
tinySegModel()
{
    nn::ModelConfig m;
    m.name = "tiny-seg";
    m.long_name = "tiny segmentation";
    m.task = nn::Task::SemanticSegmentation;
    nn::SaStageConfig s0;
    s0.sample_rate = 0.25;
    s0.radius = 0.3f;
    s0.k = 8;
    s0.mlp = {16, 16};
    nn::SaStageConfig s1;
    s1.sample_rate = 0.25;
    s1.radius = 0.6f;
    s1.k = 8;
    s1.mlp = {32, 32};
    m.sa = {s0, s1};
    nn::FpStageConfig f0;
    f0.mlp = {32};
    nn::FpStageConfig f1;
    f1.mlp = {16};
    m.fp = {f0, f1};
    m.head = {13};
    m.num_classes = 13;
    return m;
}

// ---------------------------------------------------------------------
// Thread-count determinism with SIMD active (TSan CI filter)
// ---------------------------------------------------------------------

TEST(SimdDeterminism, FpsIdenticalAcrossThreadCounts)
{
    const data::PointCloud scene = data::makeS3disScene(2048, 9);
    const ops::SampleResult serial =
        ops::farthestPointSample(scene, 256, {}, nullptr);
    for (const unsigned threads : {2u, 4u}) {
        core::ThreadPool pool(threads);
        const ops::SampleResult pooled =
            ops::farthestPointSample(scene, 256, {}, &pool);
        EXPECT_EQ(serial.indices, pooled.indices)
            << threads << " threads";
    }
}

TEST(SimdDeterminism, InferenceIdenticalAcrossThreadCounts)
{
    const data::PointCloud scene = data::makeS3disScene(1024, 21);
    const nn::Network network(tinySegModel(), 7);
    nn::BackendOptions backend;
    backend.method = part::Method::Fractal;
    const nn::InferenceResult serial = network.run(scene, backend);
    for (const unsigned threads : {2u, 4u}) {
        core::ThreadPool pool(threads);
        nn::BackendOptions pooled_backend = backend;
        pooled_backend.pool = &pool;
        core::Workspace ws;
        nn::InferenceResult pooled;
        network.run(scene, pooled_backend, ws, pooled);
        EXPECT_EQ(serial.embedding.data(), pooled.embedding.data());
        EXPECT_EQ(serial.point_features.data(),
                  pooled.point_features.data());
    }
}

} // namespace
} // namespace fc
