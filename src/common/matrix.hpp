// Dense row-major matrix used throughout the library.
//
// Monitoring data is modelled, as in the paper, as a "sensor matrix" with one
// row per sensor and one column per time-stamp; most kernels therefore walk
// rows contiguously. The class is deliberately small: it owns a flat
// std::vector<double> and exposes spans over rows, which is all the CS
// pipeline, the baselines and the ML substrate need.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace csm::common {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix, zero-initialised. Like every (rows,
  /// cols) constructor, throws std::length_error when rows * cols
  /// overflows std::size_t.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(element_count(rows, cols), 0.0) {}

  /// Creates a rows x cols matrix filled with `value`.
  Matrix(std::size_t rows, std::size_t cols, double value)
      : rows_(rows), cols_(cols), data_(element_count(rows, cols), value) {}

  /// Creates a matrix from nested initialiser lists; all rows must have the
  /// same length. Intended for tests and small fixtures.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  /// Adopts an existing flat buffer (row-major). Throws std::invalid_argument
  /// if the buffer size does not equal rows*cols.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked element access; throws std::out_of_range.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Contiguous view over row `r`.
  std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  /// Copies column `c` into a fresh vector (columns are strided).
  std::vector<double> col(std::size_t c) const;

  /// Replaces row `r` with `values` (must have exactly cols() elements).
  void set_row(std::size_t r, std::span<const double> values);

  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }

  /// Copies the column range [first_col, first_col+n_cols) into a new matrix.
  /// This is how sliding windows (the paper's S^w sub-matrices) are cut out.
  Matrix sub_cols(std::size_t first_col, std::size_t n_cols) const;

  /// Copies the row range [first_row, first_row+n_rows) into a new matrix.
  Matrix sub_rows(std::size_t first_row, std::size_t n_rows) const;

  /// Returns a new matrix whose rows are this matrix's rows permuted so that
  /// result row i == this row perm[i]. `perm` must be a permutation of
  /// [0, rows()).
  Matrix permute_rows(std::span<const std::size_t> perm) const;

  /// Appends the rows of `other` below this matrix (column counts must match).
  void append_rows(const Matrix& other);

  /// Appends one row (must have exactly cols() elements, unless the matrix is
  /// empty, in which case the row defines the column count).
  void append_row(std::span<const double> values);

  void fill(double value) noexcept {
    for (double& v : data_) v = value;
  }

  bool operator==(const Matrix& other) const noexcept = default;

 private:
  static std::size_t element_count(std::size_t rows, std::size_t cols) {
    if (cols != 0 && rows > std::numeric_limits<std::size_t>::max() / cols) {
      throw std::length_error("Matrix: " + std::to_string(rows) + " x " +
                              std::to_string(cols) +
                              " elements overflow std::size_t");
    }
    return rows * cols;
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace csm::common
