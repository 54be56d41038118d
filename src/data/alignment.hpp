// Time alignment of raw sensor series onto a dense sensor matrix.
//
// Section III-A of the paper assumes time-aligned sensors with a common
// sampling rate and notes that "an interpolation pre-processing step may be
// required to align the data" — this module is that step. Every series is
// linearly interpolated onto a regular grid covering the overlap of all
// series, yielding the n x t sensor matrix S.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "data/time_series.hpp"

namespace csm::data {

/// A dense, aligned sensor matrix plus its metadata.
struct AlignedSensors {
  common::Matrix matrix;            ///< rows = sensors, cols = time-stamps.
  std::vector<std::string> names;   ///< per-row sensor names.
  std::int64_t start_timestamp = 0; ///< timestamp of column 0.
  std::int64_t interval_ms = 0;     ///< grid step.

  /// Reorders rows to match `order` (a permutation of names). CS models are
  /// bound to a fixed row order, while directory readers return sensors
  /// sorted by filename — call this to re-establish the training order
  /// before applying a model. Throws std::invalid_argument if `order` is
  /// not exactly the set of names present.
  void reorder(const std::vector<std::string>& order);
};

/// Aligns `series` onto a regular grid with step `interval_ms`, spanning the
/// intersection [max(first), min(last)] of all series' time ranges. Values at
/// grid points are linearly interpolated. Throws std::invalid_argument if
/// `series` is empty, any series is empty/unsorted, or the intersection is
/// empty, and std::length_error (or std::bad_alloc) if the grid is too large
/// to hold.
AlignedSensors align(const std::vector<TimeSeries>& series,
                     std::int64_t interval_ms);

/// Convenience: aligns with the median sampling interval observed across all
/// series (rounded to >= 1ms).
AlignedSensors align_auto(const std::vector<TimeSeries>& series);

}  // namespace csm::data
