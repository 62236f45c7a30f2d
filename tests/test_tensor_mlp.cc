/**
 * @file
 * Unit tests for the tensor and MLP substrate.
 */

#include <gtest/gtest.h>

#include "core/workspace.h"
#include "nn/mlp.h"
#include "nn/tensor.h"

namespace fc::nn {
namespace {

TEST(Tensor, ShapeAndAccess)
{
    Tensor t(3, 4);
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 4u);
    t.at(1, 2) = 5.0f;
    EXPECT_FLOAT_EQ(t.at(1, 2), 5.0f);
    EXPECT_FLOAT_EQ(t.row(1)[2], 5.0f);
}

TEST(Tensor, QuantizeFp16RoundsEveryElement)
{
    Tensor t(1, 2);
    t.at(0, 0) = 0.1f;
    t.at(0, 1) = 1.0f;
    t.quantizeFp16();
    EXPECT_NE(t.at(0, 0), 0.1f);
    EXPECT_EQ(t.at(0, 1), 1.0f);
}

TEST(LinearRelu, DeterministicWeights)
{
    LinearRelu a(8, 4, 99);
    LinearRelu b(8, 4, 99);
    Tensor x(2, 8);
    for (std::size_t c = 0; c < 8; ++c)
        x.at(0, c) = static_cast<float>(c);
    Tensor ya, yb;
    a.forward(x, nullptr, ya);
    b.forward(x, nullptr, yb);
    for (std::size_t c = 0; c < 4; ++c)
        EXPECT_EQ(ya.at(0, c), yb.at(0, c));
}

TEST(LinearRelu, DifferentSeedsDiffer)
{
    LinearRelu a(8, 4, 1);
    LinearRelu b(8, 4, 2);
    Tensor x(1, 8);
    for (std::size_t c = 0; c < 8; ++c)
        x.at(0, c) = 1.0f;
    Tensor ya, yb;
    a.forward(x, nullptr, ya);
    b.forward(x, nullptr, yb);
    bool any_diff = false;
    for (std::size_t c = 0; c < 4; ++c)
        any_diff |= ya.at(0, c) != yb.at(0, c);
    EXPECT_TRUE(any_diff);
}

TEST(LinearRelu, ReluClampsNegative)
{
    LinearRelu layer(4, 16, 3);
    Tensor x(8, 4);
    for (std::size_t r = 0; r < 8; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            x.at(r, c) = static_cast<float>(r) - 4.0f;
    Tensor y;
    layer.forward(x, nullptr, y);
    for (std::size_t r = 0; r < 8; ++r)
        for (std::size_t c = 0; c < 16; ++c)
            EXPECT_GE(y.at(r, c), 0.0f);
}

TEST(LinearRelu, MacCount)
{
    LinearRelu layer(8, 4, 5);
    EXPECT_EQ(layer.macs(10), 10u * 8u * 4u);
}

TEST(Mlp, ChainsLayers)
{
    Mlp mlp({6, 12, 3}, 7);
    EXPECT_EQ(mlp.inDim(), 6u);
    EXPECT_EQ(mlp.outDim(), 3u);
    Tensor x(5, 6);
    core::Workspace ws;
    Tensor y;
    mlp.forward(x, nullptr, ws, y);
    EXPECT_EQ(y.rows(), 5u);
    EXPECT_EQ(y.cols(), 3u);
    EXPECT_EQ(mlp.macs(5), 5u * (6 * 12 + 12 * 3));
}

TEST(MaxPool, GroupReduction)
{
    Tensor x(6, 2);
    for (std::size_t r = 0; r < 6; ++r) {
        x.at(r, 0) = static_cast<float>(r);
        x.at(r, 1) = -static_cast<float>(r);
    }
    Tensor y;
    maxPoolGroups(x, 3, nullptr, y);
    ASSERT_EQ(y.rows(), 2u);
    EXPECT_FLOAT_EQ(y.at(0, 0), 2.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(y.at(1, 0), 5.0f);
    EXPECT_FLOAT_EQ(y.at(1, 1), -3.0f);
}

TEST(MaxPool, GlobalReduction)
{
    Tensor x(4, 3);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            x.at(r, c) = static_cast<float>(r * 3 + c);
    Tensor y;
    globalMaxPool(x, y);
    ASSERT_EQ(y.rows(), 1u);
    EXPECT_FLOAT_EQ(y.at(0, 0), 9.0f);
    EXPECT_FLOAT_EQ(y.at(0, 2), 11.0f);
}

TEST(MaxPoolDeathTest, BadGroupSizePanics)
{
    Tensor x(5, 2);
    Tensor y;
    EXPECT_DEATH(maxPoolGroups(x, 3, nullptr, y), "multiple");
}

} // namespace
} // namespace fc::nn
