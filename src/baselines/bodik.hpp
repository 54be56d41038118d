// Bodik et al. baseline (Section III-B, [16]).
//
// Characterises the distribution of each sensor's window data with nine
// quantile-style indicators: minimum, maximum and the
// 5th/25th/35th/50th/65th/75th/95th percentiles. Signature length l = n * 9.
#pragma once

#include "core/signature_method.hpp"

namespace csm::baselines {

class BodikMethod final : public core::SignatureMethod {
 public:
  static constexpr std::size_t kFeaturesPerSensor = 9;

  std::string name() const override { return "Bodik"; }
  std::size_t signature_length(std::size_t n_sensors) const override {
    return n_sensors * kFeaturesPerSensor;
  }
  std::vector<double> compute(
      const common::MatrixView& window) const override;

  // Stateless lifecycle: fit() is a copy, serialisation carries no fields.
  std::unique_ptr<core::SignatureMethod> fit(
      const common::MatrixView& train) const override;
  std::string codec_key() const override { return "bodik"; }
  void save(core::codec::Sink& sink) const override;
};

}  // namespace csm::baselines
