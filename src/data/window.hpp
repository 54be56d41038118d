// Sliding-window parameters over sensor matrices.
//
// A signature method consumes sub-matrices S^w of the sensor matrix S with
// `wl` columns (the aggregation window) taken every `ws` columns (the step) —
// Section III-A. WindowSpec enumerates the windows that fit in a matrix of t
// columns; callers cut each one out as a column range.
#pragma once

#include <cstddef>
#include <stdexcept>

namespace csm::data {

/// Aggregation window parameters (in samples).
struct WindowSpec {
  std::size_t length = 1;  ///< wl: columns aggregated into one signature.
  std::size_t step = 1;    ///< ws: columns between successive windows.

  /// Number of windows that fit into t columns (0 if t < length).
  std::size_t count(std::size_t t) const noexcept {
    if (length == 0 || step == 0 || t < length) return 0;
    return (t - length) / step + 1;
  }

  /// First column of window w.
  std::size_t start(std::size_t w) const noexcept { return w * step; }

  /// Throws std::invalid_argument on zero length/step.
  void validate() const {
    if (length == 0) throw std::invalid_argument("WindowSpec: zero length");
    if (step == 0) throw std::invalid_argument("WindowSpec: zero step");
  }
};

}  // namespace csm::data
