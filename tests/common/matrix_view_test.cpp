#include "common/matrix_view.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/matrix.hpp"

namespace csm::common {
namespace {

Matrix counting_matrix(std::size_t rows, std::size_t cols) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = static_cast<double>(r * 100 + c);
    }
  }
  return m;
}

// Column-major storage of the same counting pattern, split after
// `split_cols` columns.
std::pair<std::vector<double>, std::vector<double>> counting_segments(
    std::size_t rows, std::size_t cols, std::size_t split_cols) {
  std::vector<double> a, b;
  for (std::size_t c = 0; c < cols; ++c) {
    auto& dst = c < split_cols ? a : b;
    for (std::size_t r = 0; r < rows; ++r) {
      dst.push_back(static_cast<double>(r * 100 + c));
    }
  }
  return {std::move(a), std::move(b)};
}

TEST(MatrixView, DefaultIsEmpty) {
  const MatrixView v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.rows(), 0u);
  EXPECT_EQ(v.cols(), 0u);
  EXPECT_EQ(v.n_col_segments(), 0u);
}

TEST(MatrixView, WrapsRowMajorMatrix) {
  const Matrix m = counting_matrix(3, 5);
  const MatrixView v(m);
  EXPECT_EQ(v.rows(), 3u);
  EXPECT_EQ(v.cols(), 5u);
  EXPECT_TRUE(v.contiguous_rows());
  EXPECT_FALSE(v.contiguous_cols());
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_EQ(v(r, c), m(r, c));
      EXPECT_EQ(v.at(r, c), m(r, c));
    }
  }
  // Row spans alias the matrix storage (zero-copy).
  EXPECT_EQ(v.row(1).data(), m.row(1).data());
  // col() has no contiguous storage to hand out.
  EXPECT_THROW((void)v.col(0), std::logic_error);
  std::vector<double> col(3);
  v.copy_col(4, col);
  EXPECT_EQ(col, (std::vector<double>{4.0, 104.0, 204.0}));
}

TEST(MatrixView, WrapsOneColumnSegment) {
  const auto [a, b] = counting_segments(4, 6, 6);
  const MatrixView v = MatrixView::column_segments(a, b, 4);
  EXPECT_EQ(v.rows(), 4u);
  EXPECT_EQ(v.cols(), 6u);
  EXPECT_EQ(v.n_col_segments(), 1u);
  EXPECT_TRUE(v.contiguous_cols());
  EXPECT_FALSE(v.contiguous_rows());
  for (std::size_t c = 0; c < 6; ++c) {
    EXPECT_EQ(v.col(c)[2], 200.0 + static_cast<double>(c));
  }
  EXPECT_THROW((void)v.row(0), std::logic_error);
}

TEST(MatrixView, WrapsTwoColumnSegments) {
  const auto [a, b] = counting_segments(4, 7, 3);
  const MatrixView v = MatrixView::column_segments(a, b, 4);
  EXPECT_EQ(v.cols(), 7u);
  EXPECT_EQ(v.n_col_segments(), 2u);
  EXPECT_EQ(v.col_segment(0).n_cols, 3u);
  EXPECT_EQ(v.col_segment(1).first_col, 3u);
  const Matrix expected = counting_matrix(4, 7);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 7; ++c) {
      EXPECT_EQ(v(r, c), expected(r, c)) << r << "," << c;
    }
  }
  // col() spans stay contiguous on both sides of the split.
  EXPECT_EQ(v.col(2).data(), a.data() + 2 * 4);
  EXPECT_EQ(v.col(3).data(), b.data());
}

TEST(MatrixView, RowGatherMatchesAcrossLayouts) {
  const auto [a, b] = counting_segments(3, 8, 5);
  const MatrixView segmented = MatrixView::column_segments(a, b, 3);
  const Matrix m = counting_matrix(3, 8);
  const MatrixView row_major(m);
  std::vector<double> scratch;
  for (std::size_t r = 0; r < 3; ++r) {
    const auto gathered = segmented.row(r, scratch);
    const auto direct = row_major.row(r, scratch);  // No-copy fast path...
    EXPECT_EQ(direct.data(), m.row(r).data());      // ...aliasing the row.
    ASSERT_EQ(gathered.size(), 8u);
    for (std::size_t c = 0; c < 8; ++c) EXPECT_EQ(gathered[c], m(r, c));
  }
}

TEST(MatrixView, MaterializeReproducesBothLayouts) {
  const Matrix m = counting_matrix(5, 9);
  EXPECT_EQ(MatrixView(m).materialize(), m);
  const auto [a, b] = counting_segments(5, 9, 4);
  EXPECT_EQ(MatrixView::column_segments(a, b, 5).materialize(), m);
}

TEST(MatrixView, AtThrowsOutOfRange) {
  const Matrix m = counting_matrix(2, 3);
  const MatrixView v(m);
  EXPECT_THROW((void)v.at(2, 0), std::out_of_range);
  EXPECT_THROW((void)v.at(0, 3), std::out_of_range);
}

TEST(MatrixView, RejectsRaggedSegments) {
  const std::vector<double> five(5, 1.0);
  EXPECT_THROW((void)MatrixView::column_segments(five, {}, 4),
               std::invalid_argument);
  EXPECT_THROW((void)MatrixView::column_segments({}, five, 4),
               std::invalid_argument);
  EXPECT_THROW((void)MatrixView::column_segments(five, {}, 0),
               std::invalid_argument);
}

TEST(MatrixView, LeadingEmptySegmentIsNormalised) {
  const auto [a, b] = counting_segments(2, 4, 0);  // All columns in b.
  const MatrixView v = MatrixView::column_segments(a, b, 2);
  EXPECT_EQ(v.n_col_segments(), 1u);
  EXPECT_EQ(v.cols(), 4u);
  EXPECT_EQ(v(1, 3), 103.0);
}

TEST(ColumnBatch, CopiesEitherLayoutColumnByColumn) {
  const Matrix m = counting_matrix(3, 5);
  const ColumnBatch from_rows(m);
  const auto [a, b] = counting_segments(3, 5, 2);
  const ColumnBatch from_segments(MatrixView::column_segments(a, b, 3));
  EXPECT_EQ(from_rows, from_segments);
  ASSERT_EQ(from_rows.rows(), 3u);
  ASSERT_EQ(from_rows.cols(), 5u);
  for (std::size_t c = 0; c < 5; ++c) {
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(from_rows.col(c)[r], m(r, c));
      EXPECT_EQ(from_rows.values()[c * 3 + r], m(r, c));
    }
  }
  // The implicit view is one column segment over the batch's own storage.
  const MatrixView v = from_rows;
  EXPECT_TRUE(v.contiguous_cols());
  EXPECT_EQ(v.n_col_segments(), 1u);
  EXPECT_EQ(v.col(4).data(), from_rows.col(4).data());
  EXPECT_EQ(v.materialize(), m);
}

TEST(ColumnBatch, ResizeReshapesAndChecksOverflow) {
  ColumnBatch batch(4, 6);
  EXPECT_EQ(batch.values().size(), 24u);
  batch.resize(2, 3);
  EXPECT_EQ(batch.rows(), 2u);
  EXPECT_EQ(batch.cols(), 3u);
  EXPECT_EQ(batch.values().size(), 6u);
  EXPECT_THROW(batch.resize(std::size_t{1} << 33, std::size_t{1} << 33),
               std::length_error);
  // Zero rows view as empty whatever the column count.
  batch.resize(0, 7);
  EXPECT_TRUE(MatrixView(batch).empty());
}

}  // namespace
}  // namespace csm::common
