// Tuncer et al. baseline (Section III-B, [15]).
//
// For every sensor row of the window, eleven statistical indicators are
// computed and concatenated: mean, standard deviation, minimum, maximum, the
// 5th/25th/50th/75th/95th percentiles, the sum of changes and the absolute
// sum of changes (the paper substitutes the last two for skewness/kurtosis).
// Signature length l = n * 11. Per-sensor percentile sorting makes the cost
// O(n * wl log wl). A sensor row that holds a NaN gives NaN for all eleven
// of its indicators.
#pragma once

#include "core/signature_method.hpp"

namespace csm::baselines {

class TuncerMethod final : public core::SignatureMethod {
 public:
  static constexpr std::size_t kFeaturesPerSensor = 11;

  std::string name() const override { return "Tuncer"; }
  std::size_t signature_length(std::size_t n_sensors) const override {
    return n_sensors * kFeaturesPerSensor;
  }
  std::vector<double> compute(
      const common::MatrixView& window) const override;

  // Stateless lifecycle: fit() is a copy, serialisation carries no fields.
  std::unique_ptr<core::SignatureMethod> fit(
      const common::MatrixView& train) const override;
  std::string codec_key() const override { return "tuncer"; }
  void save(core::codec::Sink& sink) const override;
};

}  // namespace csm::baselines
