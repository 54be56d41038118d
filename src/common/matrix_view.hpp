// Zero-copy, read-only view over an n_sensors x cols window of sensor data.
//
// The compute surface of core::SignatureMethod consumes windows through this
// view, so the same kernel can read either of the two layouts the library
// stores sensor data in, without assembling a temporary matrix first:
//
//  * a row-major common::Matrix block (the offline path: rows are contiguous,
//    columns are strided), or
//  * one or two contiguous column segments inside a common::RingMatrix
//    (the streaming path: each column is a contiguous slot; a window that
//    straddles the ring's wrap point splits into exactly two segments).
//
// The view never owns storage and is trivially copyable; it is valid only as
// long as the viewed Matrix / ColumnBatch / RingMatrix is alive and
// unmodified (for a RingMatrix, any push may recycle viewed slots). Callers
// that need an owning row-major copy use materialize().
//
// ColumnBatch is the owning column-major counterpart: one batch of samples
// in the layout a CSMF sample-batch frame, a CSMR recording batch and a
// RingMatrix slot run all share, so a column moves between any two of them
// with one copy and no transpose.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/matrix.hpp"

namespace csm::common {

class MatrixView;

/// Owning rows x cols block of doubles stored column by column: column c
/// is the contiguous span [c * rows, (c + 1) * rows). Converts implicitly
/// to a one-segment MatrixView.
class ColumnBatch {
 public:
  ColumnBatch() = default;

  /// rows x cols zeros. Throws std::length_error when rows * cols
  /// overflows std::size_t.
  ColumnBatch(std::size_t rows, std::size_t cols) { resize(rows, cols); }

  /// Copies `m` column by column (a gather when `m` is row-major).
  explicit ColumnBatch(const MatrixView& m);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  /// Reshapes to rows x cols, keeping the allocation when it is large
  /// enough (so a reused batch stops allocating); values are unspecified
  /// afterwards. Same overflow check as the constructor.
  void resize(std::size_t rows, std::size_t cols);

  std::span<double> col(std::size_t c) noexcept {
    return {data_.data() + c * rows_, rows_};
  }
  std::span<const double> col(std::size_t c) const noexcept {
    return {data_.data() + c * rows_, rows_};
  }

  /// All rows * cols values, column after column.
  std::span<double> values() noexcept { return data_; }
  std::span<const double> values() const noexcept { return data_; }

  bool operator==(const ColumnBatch&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Non-owning const view over rows x cols doubles in one of two layouts.
class MatrixView {
 public:
  /// Empty view (rows() == cols() == 0).
  MatrixView() = default;

  /// Views a row-major matrix. Implicit on purpose: every Matrix-taking
  /// compute API accepts the matrix unchanged through this conversion.
  MatrixView(const Matrix& m)  // NOLINT(google-explicit-constructor)
      : rows_(m.rows()), cols_(m.cols()), seg0_(m.data()) {}

  /// Views a column batch as one column segment. Implicit for the same
  /// reason: ingest and recording accept a batch unchanged.
  MatrixView(const ColumnBatch& b)  // NOLINT(google-explicit-constructor)
      : MatrixView(column_segments(b.values(), {}, b.rows())) {}

  /// Views `rows` x `cols` doubles of row-major storage at `data`.
  static MatrixView row_major(const double* data, std::size_t rows,
                              std::size_t cols);

  /// Views one or two contiguous column-major segments (each segment holds
  /// whole `rows`-element columns back to back; `second` may be empty).
  /// This is how RingMatrix exposes windows that straddle its wrap point.
  /// Throws std::invalid_argument if a segment size is not a multiple of
  /// `rows`, or if rows == 0 while a segment is non-empty.
  static MatrixView column_segments(std::span<const double> first,
                                    std::span<const double> second,
                                    std::size_t rows);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return rows_ * cols_; }
  bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  /// True when row(r) returns a direct span (row-major backing).
  bool contiguous_rows() const noexcept { return !column_major_; }
  /// True when col(c) returns a direct span (column-segment backing).
  bool contiguous_cols() const noexcept { return column_major_; }

  /// Unchecked element access.
  double operator()(std::size_t r, std::size_t c) const noexcept {
    if (!column_major_) return seg0_[r * cols_ + c];
    return c < seg0_cols_ ? seg0_[c * rows_ + r]
                          : seg1_[(c - seg0_cols_) * rows_ + r];
  }

  /// Bounds-checked element access; throws std::out_of_range.
  double at(std::size_t r, std::size_t c) const;

  /// Contiguous span over column `c`. Throws std::logic_error when the
  /// backing is row-major (columns are strided there); check
  /// contiguous_cols() or use copy_col().
  std::span<const double> col(std::size_t c) const;

  /// Contiguous span over row `r`. Throws std::logic_error when the backing
  /// is column segments; check contiguous_rows() or use the scratch
  /// overload.
  std::span<const double> row(std::size_t r) const;

  /// Row `r` as a contiguous span in any layout: the backing row when
  /// row-major, otherwise gathered into `scratch` (resized to cols()).
  std::span<const double> row(std::size_t r,
                              std::vector<double>& scratch) const;

  /// Copies column `c` into `out` (out.size() must equal rows()).
  void copy_col(std::size_t c, std::span<double> out) const;

  /// Number of contiguous column segments: 0 for row-major backing,
  /// otherwise 1 or 2.
  std::size_t n_col_segments() const noexcept {
    if (!column_major_) return 0;
    return seg0_cols_ < cols_ ? 2 : 1;
  }

  /// Column segment `k` as (data, first_col, n_cols): whole columns stored
  /// back to back starting at logical column first_col. k < n_col_segments().
  struct ColSegment {
    const double* data = nullptr;
    std::size_t first_col = 0;
    std::size_t n_cols = 0;
  };
  ColSegment col_segment(std::size_t k) const;

  /// Owning row-major copy — the escape hatch for consumers that genuinely
  /// need a common::Matrix.
  Matrix materialize() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  bool column_major_ = false;
  const double* seg0_ = nullptr;  ///< Row-major block, or first col segment.
  const double* seg1_ = nullptr;  ///< Second col segment (may be null).
  std::size_t seg0_cols_ = 0;     ///< Columns in seg0_ (column-major only).
};

}  // namespace csm::common
