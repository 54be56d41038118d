#include "common/matrix_view.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace csm::common {

ColumnBatch::ColumnBatch(const MatrixView& m) {
  resize(m.rows(), m.cols());
  for (std::size_t c = 0; c < cols_; ++c) m.copy_col(c, col(c));
}

void ColumnBatch::resize(std::size_t rows, std::size_t cols) {
  if (cols != 0 && rows > std::numeric_limits<std::size_t>::max() / cols) {
    throw std::length_error("ColumnBatch: " + std::to_string(rows) + " x " +
                            std::to_string(cols) +
                            " elements overflow std::size_t");
  }
  data_.resize(rows * cols);
  rows_ = rows;
  cols_ = cols;
}

MatrixView MatrixView::row_major(const double* data, std::size_t rows,
                                 std::size_t cols) {
  MatrixView v;
  v.rows_ = rows;
  v.cols_ = cols;
  v.seg0_ = data;
  return v;
}

MatrixView MatrixView::column_segments(std::span<const double> first,
                                       std::span<const double> second,
                                       std::size_t rows) {
  if (rows == 0) {
    if (!first.empty() || !second.empty()) {
      throw std::invalid_argument(
          "MatrixView: zero rows with non-empty column segments");
    }
    return MatrixView{};
  }
  if (first.size() % rows != 0 || second.size() % rows != 0) {
    throw std::invalid_argument(
        "MatrixView: segment size is not a multiple of the row count");
  }
  if (first.empty() && !second.empty()) {
    // Normalise so seg0_ always holds the leading columns.
    return column_segments(second, {}, rows);
  }
  MatrixView v;
  v.rows_ = rows;
  v.column_major_ = true;
  v.seg0_ = first.data();
  v.seg0_cols_ = first.size() / rows;
  v.seg1_ = second.empty() ? nullptr : second.data();
  v.cols_ = v.seg0_cols_ + second.size() / rows;
  return v;
}

double MatrixView::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("MatrixView::at: index out of range");
  }
  return (*this)(r, c);
}

std::span<const double> MatrixView::col(std::size_t c) const {
  if (!column_major_) {
    throw std::logic_error(
        "MatrixView::col: columns are strided in a row-major view");
  }
  if (c >= cols_) throw std::out_of_range("MatrixView::col: column index");
  if (c < seg0_cols_) return {seg0_ + c * rows_, rows_};
  return {seg1_ + (c - seg0_cols_) * rows_, rows_};
}

std::span<const double> MatrixView::row(std::size_t r) const {
  if (column_major_) {
    throw std::logic_error(
        "MatrixView::row: rows are strided in a column-segment view");
  }
  if (r >= rows_) throw std::out_of_range("MatrixView::row: row index");
  return {seg0_ + r * cols_, cols_};
}

std::span<const double> MatrixView::row(std::size_t r,
                                        std::vector<double>& scratch) const {
  if (!column_major_) return row(r);
  if (r >= rows_) throw std::out_of_range("MatrixView::row: row index");
  scratch.resize(cols_);
  double* dst = scratch.data();
  for (std::size_t k = 0; k < n_col_segments(); ++k) {
    const ColSegment seg = col_segment(k);
    const double* src = seg.data + r;
    for (std::size_t c = 0; c < seg.n_cols; ++c) {
      *dst++ = *src;
      src += rows_;
    }
  }
  return scratch;
}

void MatrixView::copy_col(std::size_t c, std::span<double> out) const {
  if (out.size() != rows_) {
    throw std::invalid_argument("MatrixView::copy_col: wrong output length");
  }
  if (c >= cols_) throw std::out_of_range("MatrixView::copy_col: column");
  if (column_major_) {
    const std::span<const double> src = col(c);
    std::copy(src.begin(), src.end(), out.begin());
    return;
  }
  for (std::size_t r = 0; r < rows_; ++r) out[r] = seg0_[r * cols_ + c];
}

MatrixView::ColSegment MatrixView::col_segment(std::size_t k) const {
  if (k >= n_col_segments()) {
    throw std::out_of_range("MatrixView::col_segment: segment index");
  }
  if (k == 0) return {seg0_, 0, seg0_cols_};
  return {seg1_, seg0_cols_, cols_ - seg0_cols_};
}

Matrix MatrixView::materialize() const {
  Matrix out(rows_, cols_);
  if (empty()) return out;
  if (!column_major_) {
    for (std::size_t r = 0; r < rows_; ++r) {
      const std::span<const double> src = row(r);
      std::copy(src.begin(), src.end(), out.row(r).begin());
    }
    return out;
  }
  for (std::size_t c = 0; c < cols_; ++c) {
    const std::span<const double> src = col(c);
    double* dst = out.data() + c;
    for (std::size_t r = 0; r < rows_; ++r) dst[r * cols_] = src[r];
  }
  return out;
}

}  // namespace csm::common
