// The CS model produced by the training stage (Section III-C1).
//
// A CS model is everything the online stages need: the row permutation vector
// p computed by Algorithm 1 and the per-row min/max bounds for normalisation.
// Models are cheap to store and are typically trained once and reused for all
// subsequent windows. Out-of-band trainers ship them to in-band consumers
// inside a CsSignatureMethod, through the model codec (core/model_codec.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "common/matrix.hpp"
#include "stats/normalize.hpp"

namespace csm::core {

/// Trained CS model: permutation + normalisation bounds.
class CsModel {
 public:
  CsModel() = default;

  /// Throws std::invalid_argument if `permutation` is not a permutation of
  /// [0, n) or bounds has a different length.
  CsModel(std::vector<std::size_t> permutation,
          std::vector<stats::MinMaxBounds> bounds);

  /// Number of sensor rows the model was trained on.
  std::size_t n_sensors() const noexcept { return permutation_.size(); }

  const std::vector<std::size_t>& permutation() const noexcept {
    return permutation_;
  }
  const std::vector<stats::MinMaxBounds>& bounds() const noexcept {
    return bounds_;
  }

  /// Sorting stage (Section III-C2): min-max-normalises every row of `s`
  /// using the stored bounds, then permutes rows by p. `s` must have
  /// n_sensors() rows; any column count is accepted.
  common::Matrix sort(const common::Matrix& s) const;

  bool operator==(const CsModel&) const = default;

 private:
  std::vector<std::size_t> permutation_;
  std::vector<stats::MinMaxBounds> bounds_;
};

}  // namespace csm::core
