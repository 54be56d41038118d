// Per-row min-max normalisation.
//
// The CS training stage records the lower/upper bound of every sensor row;
// the sorting stage then rescales incoming windows into [0, 1] using those
// *stored* bounds (new data may exceed them, so values are clamped). Rows
// with a degenerate range (constant sensors) normalise to 0.
#pragma once

#include <cstddef>
#include <vector>

#include "common/matrix.hpp"
#include "common/matrix_view.hpp"

namespace csm::stats {

/// Lower/upper bound of one sensor row.
struct MinMaxBounds {
  double lo = 0.0;
  double hi = 0.0;

  /// Maps v into [0, 1], clamping values outside the training range.
  /// Degenerate bounds (hi <= lo) map everything to 0.
  double normalize(double v) const noexcept {
    if (hi <= lo) return 0.0;
    const double u = (v - lo) / (hi - lo);
    return u < 0.0 ? 0.0 : (u > 1.0 ? 1.0 : u);
  }

  /// Inverse map from [0, 1] back to the original scale.
  double denormalize(double u) const noexcept { return lo + u * (hi - lo); }

  bool operator==(const MinMaxBounds&) const noexcept = default;
};

/// Computes per-row bounds of `s`, skipping NaNs; a row with no other
/// value gets NaN bounds. Accepts any window view (a common::Matrix
/// converts implicitly), so ring-buffer history can be scanned in place.
std::vector<MinMaxBounds> row_bounds(const common::MatrixView& s);

/// Returns a copy of `s` with every row mapped through its bounds.
/// Throws std::invalid_argument if bounds.size() != s.rows().
common::Matrix normalize_rows(const common::Matrix& s,
                              const std::vector<MinMaxBounds>& bounds);

/// In-place variant of normalize_rows.
void normalize_rows_inplace(common::Matrix& s,
                            const std::vector<MinMaxBounds>& bounds);

}  // namespace csm::stats
