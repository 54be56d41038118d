#include "common/matrix.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace csm::common {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  if (data_.size() != element_count(rows_, cols_)) {
    throw std::invalid_argument("Matrix: buffer size does not match shape");
  }
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("Matrix::at: index out of range");
  }
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("Matrix::at: index out of range");
  }
  return data_[r * cols_ + c];
}

std::vector<double> Matrix::col(std::size_t c) const {
  if (c >= cols_) throw std::out_of_range("Matrix::col: column out of range");
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
  return out;
}

void Matrix::set_row(std::size_t r, std::span<const double> values) {
  if (r >= rows_) throw std::out_of_range("Matrix::set_row: row out of range");
  if (values.size() != cols_) {
    throw std::invalid_argument("Matrix::set_row: wrong length");
  }
  std::copy(values.begin(), values.end(), data_.begin() + r * cols_);
}

Matrix Matrix::sub_cols(std::size_t first_col, std::size_t n_cols) const {
  if (first_col + n_cols > cols_) {
    throw std::out_of_range("Matrix::sub_cols: range out of bounds");
  }
  Matrix out(rows_, n_cols);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* src = data_.data() + r * cols_ + first_col;
    std::copy(src, src + n_cols, out.data() + r * n_cols);
  }
  return out;
}

Matrix Matrix::sub_rows(std::size_t first_row, std::size_t n_rows) const {
  if (first_row + n_rows > rows_) {
    throw std::out_of_range("Matrix::sub_rows: range out of bounds");
  }
  Matrix out(n_rows, cols_);
  std::copy(data_.begin() + first_row * cols_,
            data_.begin() + (first_row + n_rows) * cols_, out.data());
  return out;
}

Matrix Matrix::permute_rows(std::span<const std::size_t> perm) const {
  if (perm.size() != rows_) {
    throw std::invalid_argument("Matrix::permute_rows: wrong permutation size");
  }
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    if (perm[i] >= rows_) {
      throw std::out_of_range("Matrix::permute_rows: index out of range");
    }
    std::copy(data_.begin() + perm[i] * cols_,
              data_.begin() + (perm[i] + 1) * cols_, out.data() + i * cols_);
  }
  return out;
}

void Matrix::append_rows(const Matrix& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  if (other.cols() != cols_) {
    throw std::invalid_argument("Matrix::append_rows: column count mismatch");
  }
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  rows_ += other.rows_;
}

void Matrix::append_row(std::span<const double> values) {
  if (empty() && rows_ == 0) {
    cols_ = values.size();
  } else if (values.size() != cols_) {
    throw std::invalid_argument("Matrix::append_row: wrong length");
  }
  data_.insert(data_.end(), values.begin(), values.end());
  ++rows_;
}

}  // namespace csm::common
