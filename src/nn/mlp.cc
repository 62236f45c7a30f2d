#include "nn/mlp.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/workspace.h"

namespace fc::nn {

namespace {

namespace simd = core::simd;

std::size_t
paddedOutputs(std::size_t out)
{
    return (out + simd::kLinearPanel - 1) / simd::kLinearPanel *
           simd::kLinearPanel;
}

/**
 * Rows per kernel call: whole row tiles worth about 2^19 MACs (at
 * least one tile). A pure function of the layer shape, so the chunking
 * (and, since no row's arithmetic depends on it, the output) is the
 * same at every thread count.
 */
std::size_t
rowGrain(std::size_t in, std::size_t out)
{
    const std::size_t tiles = std::max<std::size_t>(
        1, (std::size_t{1} << 19) / (simd::kLinearRowTile * in * out));
    return tiles * simd::kLinearRowTile;
}

} // namespace

LinearRelu::LinearRelu(std::size_t in, std::size_t out,
                       std::uint64_t seed, bool relu)
    : in_(in), out_(out), relu_(relu),
      panels_(paddedOutputs(out) * in, 0.0f),
      bias_(paddedOutputs(out), 0.0f)
{
    fc_assert(in > 0 && out > 0, "degenerate layer %zux%zu", in, out);
    Pcg32 rng(seed, 0x2545f4914f6cdd1dULL);
    const float scale =
        std::sqrt(2.0f / static_cast<float>(in)); // He init
    // Draw in [out x in] order (the weights do not depend on the
    // layout) and store each W[o][i] at its panel position.
    for (std::size_t o = 0; o < out; ++o)
        for (std::size_t i = 0; i < in; ++i)
            panels_[((o / simd::kLinearPanel) * in + i) *
                        simd::kLinearPanel +
                    o % simd::kLinearPanel] = rng.normal(0.0f, scale);
    for (std::size_t o = 0; o < out; ++o)
        bias_[o] = rng.normal(0.0f, 0.01f);
    simd::fp16RoundBuffer(panels_.data(), panels_.size());
}

void
LinearRelu::forward(const Tensor &x, core::ThreadPool *pool,
                    Tensor &y) const
{
    fc_assert(x.cols() == in_, "layer expects %zu channels, got %zu",
              in_, x.cols());
    fc_assert(&x != &y, "LinearRelu::forward cannot run in place");
    y.resize(x.rows(), out_);
    const simd::PackedLinear layer{panels_.data(), bias_.data(), in_,
                                   out_, relu_};
    const float *xs = x.data().data();
    float *ys = y.data().data();
    core::parallelFor(pool, 0, x.rows(), rowGrain(in_, out_),
                      [&](std::size_t rb, std::size_t re) {
                          simd::linearRelu(layer, xs + rb * in_,
                                           re - rb, ys + rb * out_);
                      });
}

Mlp::Mlp(const std::vector<std::size_t> &widths, std::uint64_t seed)
{
    fc_assert(widths.size() >= 2, "MLP needs at least in/out widths");
    layers_.reserve(widths.size() - 1);
    for (std::size_t i = 0; i + 1 < widths.size(); ++i)
        layers_.emplace_back(widths[i], widths[i + 1], seed + i);
}

void
Mlp::forward(const Tensor &x, core::ThreadPool *pool,
             core::Workspace &ws, Tensor &out) const
{
    fc_assert(!layers_.empty(), "forward through empty MLP");
    if (layers_.size() == 1) {
        layers_.front().forward(x, pool, out);
        return;
    }
    Tensor &ping = ws.slot<Tensor>("mlp.ping");
    Tensor &pong = ws.slot<Tensor>("mlp.pong");
    const Tensor *cur = &x;
    for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
        Tensor &dst = (i % 2 == 0) ? ping : pong;
        layers_[i].forward(*cur, pool, dst);
        cur = &dst;
    }
    layers_.back().forward(*cur, pool, out);
}

std::size_t
Mlp::inDim() const
{
    fc_assert(!layers_.empty(), "empty MLP");
    return layers_.front().inDim();
}

std::size_t
Mlp::outDim() const
{
    fc_assert(!layers_.empty(), "empty MLP");
    return layers_.back().outDim();
}

std::uint64_t
Mlp::macs(std::uint64_t rows) const
{
    std::uint64_t total = 0;
    for (const auto &layer : layers_)
        total += layer.macs(rows);
    return total;
}

void
maxPoolGroups(const Tensor &x, std::size_t group_size,
              core::ThreadPool *pool, Tensor &y)
{
    fc_assert(group_size > 0, "group size must be positive");
    fc_assert(x.rows() % group_size == 0,
              "rows %zu not a multiple of group size %zu", x.rows(),
              group_size);
    fc_assert(&x != &y, "maxPoolGroups cannot run in place");
    const std::size_t groups = x.rows() / group_size;
    y.resize(groups, x.cols());
    core::parallelFor(
        pool, 0, groups, core::costGrain(group_size * x.cols()),
        [&](std::size_t gb, std::size_t ge) {
            for (std::size_t g = gb; g < ge; ++g) {
                auto out = y.row(g);
                for (std::size_t c = 0; c < x.cols(); ++c)
                    out[c] = x.at(g * group_size, c);
                for (std::size_t j = 1; j < group_size; ++j) {
                    const auto in = x.row(g * group_size + j);
                    for (std::size_t c = 0; c < x.cols(); ++c)
                        out[c] = std::max(out[c], in[c]);
                }
            }
        });
}

void
globalMaxPool(const Tensor &x, Tensor &y)
{
    fc_assert(x.rows() > 0, "global pool over empty tensor");
    fc_assert(&x != &y, "globalMaxPool cannot run in place");
    y.resize(1, x.cols());
    auto out = y.row(0);
    for (std::size_t c = 0; c < x.cols(); ++c)
        out[c] = x.at(0, c);
    for (std::size_t r = 1; r < x.rows(); ++r) {
        const auto in = x.row(r);
        for (std::size_t c = 0; c < x.cols(); ++c)
            out[c] = std::max(out[c], in[c]);
    }
}

} // namespace fc::nn
