// Lan et al. baseline (Section III-B, [13]).
//
// Each sensor row is sub-sampled to a fixed length `wr` with a mean filter
// (chunked averaging along the time axis) and the sub-sampled rows are
// concatenated, preserving coarse time information. Signature length
// l = n * wr. The paper replaces the original flatten+PCA with this
// sub-sampling step for scalability; we follow that variant.
#pragma once

#include "core/signature_method.hpp"

namespace csm::baselines {

class LanMethod final : public core::SignatureMethod {
 public:
  /// `wr` is the per-sensor sub-sampled length (default 10, a compromise the
  /// evaluation uses between footprint and fidelity).
  explicit LanMethod(std::size_t wr = 10);

  std::size_t wr() const noexcept { return wr_; }

  std::string name() const override { return "Lan"; }
  std::size_t signature_length(std::size_t n_sensors) const override {
    return n_sensors * wr_;
  }
  std::vector<double> compute(
      const common::MatrixView& window) const override;

  // Stateless lifecycle: fit() is a copy; serialisation keeps wr.
  std::unique_ptr<core::SignatureMethod> fit(
      const common::MatrixView& train) const override;
  std::string codec_key() const override { return "lan"; }
  void save(core::codec::Sink& sink) const override;

 private:
  std::size_t wr_;
};

/// Mean-filter resampling of one series to `target` samples: target chunks
/// cover the series contiguously (boundary samples may be shared when the
/// length is not divisible, mirroring the CS block scheme on the time axis).
std::vector<double> mean_filter_resample(std::span<const double> x,
                                         std::size_t target);

}  // namespace csm::baselines
