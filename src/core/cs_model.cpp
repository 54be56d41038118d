#include "core/cs_model.hpp"

#include <cmath>
#include <stdexcept>

namespace csm::core {

namespace {

void check_permutation(const std::vector<std::size_t>& p) {
  std::vector<bool> seen(p.size(), false);
  for (std::size_t v : p) {
    if (v >= p.size() || seen[v]) {
      throw std::invalid_argument("CsModel: not a valid permutation");
    }
    seen[v] = true;
  }
}

void check_bounds_finite(const std::vector<stats::MinMaxBounds>& bounds) {
  for (const stats::MinMaxBounds& b : bounds) {
    if (!std::isfinite(b.lo) || !std::isfinite(b.hi)) {
      throw std::invalid_argument("CsModel: non-finite normalisation bounds");
    }
  }
}

}  // namespace

CsModel::CsModel(std::vector<std::size_t> permutation,
                 std::vector<stats::MinMaxBounds> bounds)
    : permutation_(std::move(permutation)), bounds_(std::move(bounds)) {
  check_permutation(permutation_);
  if (bounds_.size() != permutation_.size()) {
    throw std::invalid_argument("CsModel: bounds/permutation size mismatch");
  }
  check_bounds_finite(bounds_);
}

common::Matrix CsModel::sort(const common::Matrix& s) const {
  if (s.rows() != n_sensors()) {
    throw std::invalid_argument("CsModel::sort: sensor count mismatch");
  }
  common::Matrix normalized = stats::normalize_rows(s, bounds_);
  return normalized.permute_rows(permutation_);
}

}  // namespace csm::core
