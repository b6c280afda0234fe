// Dense row-major matrix of doubles — the minimal linear-algebra substrate
// for the multilayer feed-forward network. Deliberately small: the networks
// in this study have tens of units, so clarity beats BLAS.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace adiv {

class Matrix {
public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

    [[nodiscard]] double& at(std::size_t r, std::size_t c) noexcept {
        return data_[r * cols_ + c];
    }
    [[nodiscard]] double at(std::size_t r, std::size_t c) const noexcept {
        return data_[r * cols_ + c];
    }

    [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
        return {&data_[r * cols_], cols_};
    }
    [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
        return {&data_[r * cols_], cols_};
    }

    [[nodiscard]] std::span<double> flat() noexcept { return data_; }
    [[nodiscard]] std::span<const double> flat() const noexcept { return data_; }

    void fill(double value) noexcept {
        for (double& v : data_) v = value;
    }

    /// y = W x (y sized rows()). Requires x.size() == cols(). Each output
    /// starts at +0.0 and adds its column terms in ascending column order;
    /// a few rows' sums are computed together, which changes no bit.
    void multiply(std::span<const double> x, std::span<double> y) const;

    /// y = W^T x (y sized cols()). Requires x.size() == rows(). Each output
    /// starts at +0.0 and adds its row terms in ascending row order, in a
    /// local accumulator that holds a block of outputs across all rows.
    void multiply_transposed(std::span<const double> x, std::span<double> y) const;

    /// y = W^T x where x is zero outside `nonzero`, its ascending row list
    /// (y sized cols()). Bit-identical to multiply_transposed(): each output
    /// starts at +0.0, and a skipped zero row only adds a +-0 term, which
    /// leaves a sum that started at +0.0 unchanged (given finite weights).
    void multiply_transposed_sparse(std::span<const double> x,
                                    std::span<const std::size_t> nonzero,
                                    std::span<double> y) const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

}  // namespace adiv
