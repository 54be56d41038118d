#include "stats/normalize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace csm::stats {

std::vector<MinMaxBounds> row_bounds(const common::MatrixView& s) {
  std::vector<MinMaxBounds> out(s.rows());
  if (s.cols() == 0) return out;
  for (std::size_t r = 0; r < s.rows(); ++r) {
    // Seed from the row's first non-NaN value; the comparisons below skip
    // every later NaN. A row without one keeps NaN bounds.
    std::size_t c = 0;
    while (c < s.cols() && std::isnan(s(r, c))) ++c;
    if (c == s.cols()) {
      const double nan = std::numeric_limits<double>::quiet_NaN();
      out[r] = MinMaxBounds{nan, nan};
      continue;
    }
    double lo = s(r, c);
    double hi = lo;
    for (++c; c < s.cols(); ++c) {
      const double v = s(r, c);
      if (v < lo) lo = v;
      if (v > hi) hi = v;
    }
    out[r] = MinMaxBounds{lo, hi};
  }
  return out;
}

common::Matrix normalize_rows(const common::Matrix& s,
                              const std::vector<MinMaxBounds>& bounds) {
  common::Matrix out = s;
  normalize_rows_inplace(out, bounds);
  return out;
}

void normalize_rows_inplace(common::Matrix& s,
                            const std::vector<MinMaxBounds>& bounds) {
  if (bounds.size() != s.rows()) {
    throw std::invalid_argument("normalize_rows: bounds/row count mismatch");
  }
  for (std::size_t r = 0; r < s.rows(); ++r) {
    const MinMaxBounds& b = bounds[r];
    for (double& v : s.row(r)) v = b.normalize(v);
  }
}

}  // namespace csm::stats
