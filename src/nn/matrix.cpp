#include "nn/matrix.hpp"

#include <ranges>

#include "util/contracts.hpp"

namespace adiv {
namespace {

/// Outputs a transposed product keeps in local accumulators at once.
constexpr std::size_t kColumnBlock = 8;
/// Rows whose dot products multiply() computes together.
constexpr std::size_t kRowBlock = 4;

/// y[c0 + k] = sum over `rows` (in the order given) of w[r][c0 + k] * x[r],
/// for k < N: N accumulators start at +0.0 and live across every row, so y
/// is stored once per output instead of loaded and stored once per row.
template <std::size_t N, class Rows>
void transposed_block(const double* data, std::size_t cols, std::size_t c0,
                      std::span<const double> x, const Rows& rows, double* y) {
    double acc[N] = {};
    for (const std::size_t r : rows) {
        const double xr = x[r];
        const double* w = data + r * cols + c0;
        for (std::size_t k = 0; k < N; ++k) acc[k] += w[k] * xr;
    }
    for (std::size_t k = 0; k < N; ++k) y[c0 + k] = acc[k];
}

/// The transposed product over `rows`: blocks of kColumnBlock outputs, then
/// the remaining outputs one at a time.
template <class Rows>
void transposed_product(const double* data, std::size_t cols,
                        std::span<const double> x, const Rows& rows,
                        std::span<double> y) {
    std::size_t c = 0;
    for (; c + kColumnBlock <= cols; c += kColumnBlock)
        transposed_block<kColumnBlock>(data, cols, c, x, rows, y.data());
    for (; c < cols; ++c) transposed_block<1>(data, cols, c, x, rows, y.data());
}

/// y[r0 + k] = dot(row r0 + k, x) for k < N, the N sums interleaved column
/// by column; each still starts at +0.0 and adds in ascending column order.
template <std::size_t N>
void dot_block(const double* data, std::size_t cols, std::size_t r0,
               std::span<const double> x, double* y) {
    double acc[N] = {};
    const double* w = data + r0 * cols;
    for (std::size_t c = 0; c < cols; ++c) {
        const double xc = x[c];
        for (std::size_t k = 0; k < N; ++k) acc[k] += w[k * cols + c] * xc;
    }
    for (std::size_t k = 0; k < N; ++k) y[r0 + k] = acc[k];
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    ADIV_REQUIRE(rows > 0 && cols > 0, "matrix dimensions must be positive");
}

void Matrix::multiply(std::span<const double> x, std::span<double> y) const {
    ADIV_REQUIRE(x.size() == cols_ && y.size() == rows_,
                 "matrix multiply shape mismatch");
    std::size_t r = 0;
    for (; r + kRowBlock <= rows_; r += kRowBlock)
        dot_block<kRowBlock>(data_.data(), cols_, r, x, y.data());
    for (; r < rows_; ++r) dot_block<1>(data_.data(), cols_, r, x, y.data());
}

void Matrix::multiply_transposed(std::span<const double> x,
                                 std::span<double> y) const {
    ADIV_REQUIRE(x.size() == rows_ && y.size() == cols_,
                 "matrix transposed-multiply shape mismatch");
    transposed_product(data_.data(), cols_, x, std::views::iota(std::size_t{0}, rows_),
                       y);
}

void Matrix::multiply_transposed_sparse(std::span<const double> x,
                                        std::span<const std::size_t> nonzero,
                                        std::span<double> y) const {
    ADIV_REQUIRE(x.size() == rows_ && y.size() == cols_,
                 "matrix transposed-multiply shape mismatch");
    ADIV_ASSERT(nonzero.empty() || nonzero.back() < rows_);
    transposed_product(data_.data(), cols_, x, nonzero, y);
}

}  // namespace adiv
