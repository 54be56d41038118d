#include "baselines/tuncer.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

#include "core/model_codec.hpp"
#include "stats/descriptive.hpp"

namespace csm::baselines {

std::vector<double> TuncerMethod::compute(
    const common::MatrixView& window) const {
  if (window.empty()) throw std::invalid_argument("Tuncer: empty window");
  static constexpr std::array<double, 5> kQs = {5.0, 25.0, 50.0, 75.0, 95.0};
  std::vector<double> out;
  out.reserve(signature_length(window.rows()));
  // A ring-segment view gathers each row into the reused scratch buffer
  // (the percentile indicators need a sortable copy anyway); a row-major
  // view hands out the backing row directly.
  std::vector<double> scratch;
  for (std::size_t r = 0; r < window.rows(); ++r) {
    const auto row = window.row(r, scratch);
    const double lo = stats::min(row);  // NaN iff the row holds a NaN.
    out.push_back(stats::mean(row));
    out.push_back(stats::stddev(row));
    out.push_back(lo);
    out.push_back(stats::max(row));
    const std::vector<double> ps = stats::percentiles(row, kQs);
    out.insert(out.end(), ps.begin(), ps.end());
    // Every indicator above is NaN for a row holding a NaN; the telescoped
    // sum of changes reads only the row's two ends, so it takes it here.
    out.push_back(std::isnan(lo) ? lo : stats::sum_of_changes(row));
    out.push_back(stats::abs_sum_of_changes(row));
  }
  return out;
}

std::unique_ptr<core::SignatureMethod> TuncerMethod::fit(
    const common::MatrixView& /*train*/) const {
  return std::make_unique<TuncerMethod>(*this);
}

void TuncerMethod::save(core::codec::Sink& /*sink*/) const {
  // Stateless: the codec key alone reconstructs the method.
}

}  // namespace csm::baselines
