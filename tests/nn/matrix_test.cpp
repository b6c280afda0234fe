#include "nn/matrix.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "util/error.hpp"

namespace adiv {
namespace {

TEST(Matrix, ConstructsWithFill) {
    const Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
}

TEST(Matrix, ZeroDimensionsThrow) {
    EXPECT_THROW(Matrix(0, 3), InvalidArgument);
    EXPECT_THROW(Matrix(3, 0), InvalidArgument);
}

TEST(Matrix, AtReadsAndWrites) {
    Matrix m(2, 2);
    m.at(0, 1) = 7.0;
    EXPECT_DOUBLE_EQ(m.at(0, 1), 7.0);
    EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
}

TEST(Matrix, RowSpansShareStorage) {
    Matrix m(2, 3);
    m.row(1)[2] = 9.0;
    EXPECT_DOUBLE_EQ(m.at(1, 2), 9.0);
}

TEST(Matrix, MultiplyComputesMatVec) {
    Matrix m(2, 3);
    // [1 2 3; 4 5 6] * [1 1 1]^T = [6 15]^T
    for (std::size_t c = 0; c < 3; ++c) {
        m.at(0, c) = static_cast<double>(c + 1);
        m.at(1, c) = static_cast<double>(c + 4);
    }
    const std::vector<double> x{1.0, 1.0, 1.0};
    std::vector<double> y(2);
    m.multiply(x, y);
    EXPECT_DOUBLE_EQ(y[0], 6.0);
    EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(Matrix, MultiplyShapeMismatchThrows) {
    const Matrix m(2, 3);
    std::vector<double> x(2), y(2);
    EXPECT_THROW(m.multiply(x, y), InvalidArgument);
}

TEST(Matrix, MultiplyTransposedComputesVecMat) {
    Matrix m(2, 3);
    for (std::size_t c = 0; c < 3; ++c) {
        m.at(0, c) = static_cast<double>(c + 1);
        m.at(1, c) = static_cast<double>(c + 4);
    }
    // [1 2] * [1 2 3; 4 5 6] = [9 12 15]
    const std::vector<double> x{1.0, 2.0};
    std::vector<double> y(3);
    m.multiply_transposed(x, y);
    EXPECT_DOUBLE_EQ(y[0], 9.0);
    EXPECT_DOUBLE_EQ(y[1], 12.0);
    EXPECT_DOUBLE_EQ(y[2], 15.0);
}

TEST(Matrix, MultiplyTransposedSparseMatchesDenseBitForBit) {
    Matrix m(4, 3);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            m.at(r, c) = 0.1 * static_cast<double>(r + 1) - 0.37 * static_cast<double>(c);
    // Rows 1 and 3 are zero, one of them -0.0; the sparse product skips both.
    const std::vector<double> x{0.3, 0.0, -1.7, -0.0};
    const std::vector<std::size_t> nonzero{0, 2};
    std::vector<double> dense(3), sparse(3);
    m.multiply_transposed(x, dense);
    m.multiply_transposed_sparse(x, nonzero, sparse);
    EXPECT_EQ(std::memcmp(dense.data(), sparse.data(), 3 * sizeof(double)), 0);
    EXPECT_DOUBLE_EQ(sparse[0], 0.3 * 0.1 - 1.7 * 0.3);
}

TEST(Matrix, MultiplyTransposedShapeMismatchThrows) {
    const Matrix m(2, 3);
    std::vector<double> x(3), y(3);
    const std::vector<std::size_t> nonzero{0};
    EXPECT_THROW(m.multiply_transposed(x, y), InvalidArgument);
    EXPECT_THROW(m.multiply_transposed_sparse(x, nonzero, y), InvalidArgument);
}

TEST(Matrix, FillOverwrites) {
    Matrix m(2, 2, 5.0);
    m.fill(0.0);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

}  // namespace
}  // namespace adiv
