#include "common/matrix.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace csm::common {
namespace {

TEST(Matrix, DefaultConstructedIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ShapeConstructorZeroInitializes) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 0.0);
  }
}

TEST(Matrix, FillConstructor) {
  Matrix m(2, 2, 7.5);
  EXPECT_EQ(m(0, 0), 7.5);
  EXPECT_EQ(m(1, 1), 7.5);
}

TEST(Matrix, InitializerListLaysOutRowMajor) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(0, 2), 3.0);
  EXPECT_EQ(m(1, 0), 4.0);
  EXPECT_EQ(m.data()[4], 5.0);
}

TEST(Matrix, RaggedInitializerListThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, BufferConstructorValidatesSize) {
  std::vector<double> buf{1, 2, 3, 4, 5, 6};
  Matrix m(2, 3, buf);
  EXPECT_EQ(m(1, 2), 6.0);
  EXPECT_THROW(Matrix(2, 2, buf), std::invalid_argument);
}

TEST(Matrix, ShapeWhoseElementCountOverflowsThrows) {
  // 2 x 2^(w-1) elements wrap to 0 in a w-bit std::size_t.
  const std::size_t half =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
  EXPECT_THROW(Matrix(2, half), std::length_error);
  EXPECT_THROW(Matrix(half, 2, 1.0), std::length_error);
  EXPECT_THROW(Matrix(2, half, std::vector<double>{}), std::length_error);
  EXPECT_EQ(Matrix(0, half).size(), 0u);  // No elements, nothing to wrap.
}

TEST(Matrix, AtThrowsOutOfRange) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW(m.at(1, 1));
}

TEST(Matrix, RowSpanIsWritable) {
  Matrix m(2, 3);
  auto row = m.row(1);
  std::iota(row.begin(), row.end(), 1.0);
  EXPECT_EQ(m(1, 0), 1.0);
  EXPECT_EQ(m(1, 2), 3.0);
  EXPECT_EQ(m(0, 0), 0.0);  // Other rows untouched.
}

TEST(Matrix, ColCopiesStridedColumn) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  const std::vector<double> col = m.col(1);
  EXPECT_EQ(col, (std::vector<double>{2, 4, 6}));
  EXPECT_THROW(m.col(2), std::out_of_range);
}

TEST(Matrix, SetRowValidatesLength) {
  Matrix m(2, 2);
  const std::vector<double> good{9, 8};
  m.set_row(0, good);
  EXPECT_EQ(m(0, 1), 8.0);
  const std::vector<double> bad{1, 2, 3};
  EXPECT_THROW(m.set_row(0, bad), std::invalid_argument);
  EXPECT_THROW(m.set_row(5, good), std::out_of_range);
}

TEST(Matrix, SubColsExtractsWindow) {
  Matrix m{{1, 2, 3, 4}, {5, 6, 7, 8}};
  const Matrix sub = m.sub_cols(1, 2);
  EXPECT_EQ(sub.rows(), 2u);
  EXPECT_EQ(sub.cols(), 2u);
  EXPECT_EQ(sub(0, 0), 2.0);
  EXPECT_EQ(sub(1, 1), 7.0);
  EXPECT_THROW(m.sub_cols(3, 2), std::out_of_range);
}

TEST(Matrix, SubRowsExtractsBlock) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  const Matrix sub = m.sub_rows(1, 2);
  EXPECT_EQ(sub.rows(), 2u);
  EXPECT_EQ(sub(0, 0), 3.0);
  EXPECT_EQ(sub(1, 1), 6.0);
  EXPECT_THROW(m.sub_rows(2, 2), std::out_of_range);
}

TEST(Matrix, PermuteRowsReordersCopy) {
  Matrix m{{1, 1}, {2, 2}, {3, 3}};
  const std::vector<std::size_t> perm{2, 0, 1};
  const Matrix p = m.permute_rows(perm);
  EXPECT_EQ(p(0, 0), 3.0);
  EXPECT_EQ(p(1, 0), 1.0);
  EXPECT_EQ(p(2, 0), 2.0);
}

TEST(Matrix, PermuteRowsValidates) {
  Matrix m(2, 2);
  const std::vector<std::size_t> wrong_size{0};
  EXPECT_THROW(m.permute_rows(wrong_size), std::invalid_argument);
  const std::vector<std::size_t> out_of_range{0, 5};
  EXPECT_THROW(m.permute_rows(out_of_range), std::out_of_range);
}

TEST(Matrix, AppendRowsConcatenates) {
  Matrix a{{1, 2}};
  Matrix b{{3, 4}, {5, 6}};
  a.append_rows(b);
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a(2, 1), 6.0);
}

TEST(Matrix, AppendRowsToEmptyAdopts) {
  Matrix a;
  Matrix b{{1, 2}};
  a.append_rows(b);
  EXPECT_EQ(a, b);
}

TEST(Matrix, AppendRowsRejectsMismatch) {
  Matrix a{{1, 2}};
  Matrix b{{1, 2, 3}};
  EXPECT_THROW(a.append_rows(b), std::invalid_argument);
}

TEST(Matrix, AppendRowGrowsAndValidates) {
  Matrix m;
  const std::vector<double> r0{1, 2, 3};
  m.append_row(r0);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 3u);
  const std::vector<double> bad{1};
  EXPECT_THROW(m.append_row(bad), std::invalid_argument);
}

TEST(Matrix, EqualityIsElementwise) {
  Matrix a{{1, 2}};
  Matrix b{{1, 2}};
  Matrix c{{1, 3}};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Matrix, FillOverwritesEverything) {
  Matrix m(2, 2, 1.0);
  m.fill(-3.0);
  EXPECT_EQ(m(0, 0), -3.0);
  EXPECT_EQ(m(1, 1), -3.0);
}

}  // namespace
}  // namespace csm::common
