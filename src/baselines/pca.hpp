// PCA comparator (Section I-A related work).
//
// Classic dimensionality reduction applied to monitoring data: a model is
// trained on historical data — per-sensor standardisation plus the top-k
// eigenvectors of the sensor covariance matrix — and each window is reduced
// to the projections of its mean vector (and of its mean first-order
// derivative vector) onto those components. The signature length 2k mirrors
// a CS-k signature exactly, making the two directly comparable. The paper
// cites evidence [15] that variance-dominant components miss fault-critical
// indicators; the ablation_pca benchmark tests that with this class.
#pragma once

#include <cstddef>
#include <vector>

#include "core/signature_method.hpp"

namespace csm::baselines {

/// Trained PCA signature model.
class PcaModel {
 public:
  PcaModel() = default;

  /// Builds a model from its parts (e.g. when decoding). Throws
  /// std::invalid_argument on inconsistent shapes or non-finite values.
  PcaModel(std::vector<double> means, std::vector<double> inv_std,
           common::Matrix components, std::vector<double> explained);

  /// Trains on historical data (rows = sensors): standardises each sensor
  /// row and extracts the top `components` covariance eigenvectors. Accepts
  /// any window view (a common::Matrix converts implicitly); ring-buffer
  /// history is standardised straight out of the view.
  /// Throws std::invalid_argument if `s` is empty or components == 0.
  static PcaModel fit(const common::MatrixView& s, std::size_t components);

  std::size_t n_sensors() const noexcept { return means_.size(); }
  std::size_t n_components() const noexcept { return components_.rows(); }
  const std::vector<double>& means() const noexcept { return means_; }
  const std::vector<double>& inv_std() const noexcept { return inv_std_; }
  const common::Matrix& components() const noexcept { return components_; }
  const std::vector<double>& explained_variance() const noexcept {
    return explained_;
  }

  /// Projects an n-vector (standardised internally) onto the components.
  std::vector<double> project(std::span<const double> x) const;

  /// Projects without mean subtraction (per-sensor scaling only) — for
  /// quantities such as derivatives that are already centred at zero.
  std::vector<double> project_centered(std::span<const double> x) const;

 private:
  std::vector<double> means_;
  std::vector<double> inv_std_;
  common::Matrix components_;  ///< k x n, row = unit eigenvector.
  std::vector<double> explained_;
};

/// SignatureMethod adapter: signature = [projected window mean,
/// projected window mean-derivative], length 2k. Exists untrained (requested
/// component count only — the registry's "pca:components=8" form) or trained
/// (holding a fitted PcaModel).
class PcaMethod final : public core::SignatureMethod {
 public:
  /// Untrained prototype; compute()/save() throw until fit().
  /// Throws std::invalid_argument if components == 0.
  explicit PcaMethod(std::size_t components);

  /// Trained method. Throws std::invalid_argument on an untrained model.
  PcaMethod(PcaModel model, std::string display_name = {});

  std::string name() const override { return name_; }
  std::size_t signature_length(std::size_t n_sensors) const override;
  std::vector<double> compute(
      const common::MatrixView& window) const override;

  bool trained() const override { return model_.n_sensors() > 0; }
  std::size_t n_sensors() const override { return model_.n_sensors(); }
  /// Fits the standardisation + eigenbasis on `train`.
  std::unique_ptr<core::SignatureMethod> fit(
      const common::MatrixView& train) const override;
  std::string codec_key() const override { return "pca"; }
  /// Fields: sensors, components, means, inv-std, explained, basis
  /// (k x n row-major).
  void save(core::codec::Sink& sink) const override;

  const PcaModel& model() const noexcept { return model_; }

  /// Reads the save() fields back from either codec back-end. Throws
  /// std::runtime_error on malformed input.
  static std::unique_ptr<PcaMethod> read(core::codec::Source& in);

 private:
  PcaModel model_;            ///< Default-constructed = untrained.
  std::size_t components_;    ///< Requested k (model may clamp to n).
  std::string name_;
};

}  // namespace csm::baselines
