/**
 * @file
 * Minimal dense 2D tensor for the PNN substrate.
 *
 * Row-major float storage; the quantizeFp16() helper rounds every
 * element through IEEE binary16 to model the fp16 datapath of the
 * accelerator (weights and activations are fp16, accumulation fp32).
 */

#ifndef FC_NN_TENSOR_H
#define FC_NN_TENSOR_H

#include <cstddef>
#include <span>
#include <vector>

#include "common/logging.h"
#include "core/parallel.h"
#include "core/simd.h"

namespace fc::nn {

class Tensor
{
  public:
    Tensor() = default;

    Tensor(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
    {}

    Tensor(std::size_t rows, std::size_t cols, std::vector<float> data)
        : rows_(rows), cols_(cols), data_(std::move(data))
    {
        fc_assert(data_.size() == rows_ * cols_,
                  "tensor data size %zu != %zu x %zu", data_.size(),
                  rows_, cols_);
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float &
    at(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }

    float
    at(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    std::span<float>
    row(std::size_t r)
    {
        return {data_.data() + r * cols_, cols_};
    }

    std::span<const float>
    row(std::size_t r) const
    {
        return {data_.data() + r * cols_, cols_};
    }

    const std::vector<float> &data() const { return data_; }
    std::vector<float> &data() { return data_; }

    /**
     * Reshape in place to [rows x cols]. Capacity is reused (a
     * same-or-smaller reshape never allocates), which is what lets
     * workspace tensor slots serve repeated same-shape requests
     * without touching the heap. Retained elements keep their old
     * values (growth is zero-filled): every producer writes the full
     * buffer, so a clearing pass would be one wasted serial sweep
     * per stage on the steady-state path.
     */
    void
    resize(std::size_t rows, std::size_t cols)
    {
        rows_ = rows;
        cols_ = cols;
        data_.resize(rows * cols);
    }

    /**
     * Round every element through binary16. Elementwise, so the
     * chunks dispatch over @p pool with bit-identical results at any
     * thread count (null = the serial loop this always was).
     */
    void
    quantizeFp16(core::ThreadPool *pool = nullptr)
    {
        float *values = data_.data();
        core::parallelFor(pool, 0, data_.size(), core::costGrain(2),
                          [values](std::size_t cb, std::size_t ce) {
                              core::simd::fp16RoundBuffer(values + cb,
                                                          ce - cb);
                          });
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

} // namespace fc::nn

#endif // FC_NN_TENSOR_H
