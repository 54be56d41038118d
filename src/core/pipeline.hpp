// End-to-end CS pipeline: model + block count + windowing.
//
// For offline dataset generation the pipeline pushes the sensor matrix's
// columns through the same StreamSmoother a live stream runs, normalising
// each sample once and seeding every window after the first with the column
// before it — no redundant normalisation, no zero-derivative spike at window
// boundaries, O(n * wl) scratch, and signatures byte-identical to a
// MethodStream over the same columns. For online use it also implements the
// generic SignatureMethod interface (one window in, one signature out).
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/matrix.hpp"
#include "core/cs_model.hpp"
#include "core/signature.hpp"
#include "core/signature_method.hpp"
#include "data/window.hpp"

namespace csm::core {

/// CS output configuration.
struct CsOptions {
  /// Number of signature blocks l; 0 means "as many as sensors" (CS-All).
  std::size_t blocks = 0;
  /// Drop the imaginary (derivative) channel when flattening ("-R" variant).
  bool real_only = false;

  std::size_t resolve_blocks(std::size_t n_sensors) const noexcept {
    return blocks == 0 ? n_sensors : blocks;
  }
};

/// Trained CS pipeline.
class CsPipeline {
 public:
  CsPipeline(CsModel model, CsOptions options)
      : model_(std::move(model)), options_(options) {}

  const CsModel& model() const noexcept { return model_; }
  const CsOptions& options() const noexcept { return options_; }

  /// Number of blocks produced per signature.
  std::size_t blocks() const noexcept {
    return options_.resolve_blocks(model_.n_sensors());
  }

  /// Computes one signature per sliding window of `s`, each window after
  /// column 0 seeded with the column before it. Throws std::invalid_argument
  /// on a sensor count mismatch or an invalid spec.
  std::vector<Signature> transform(const common::Matrix& s,
                                   const data::WindowSpec& spec) const;

  /// Computes a single signature from one window view (sorting + smoothing
  /// fused over the view — no intermediate matrices). A common::Matrix
  /// window converts implicitly.
  Signature transform_window(const common::MatrixView& window) const;

  /// Sorted (normalised + permuted) view of the full matrix — the "sorting
  /// stage" output used for visualisation and the JS-divergence reference.
  common::Matrix sorted(const common::Matrix& s) const {
    return model_.sort(s);
  }

 private:
  CsModel model_;
  CsOptions options_;
};

/// Stacks signatures as columns into (real, imaginary) heatmap matrices of
/// shape l x n_signatures — the image representation of Figs. 2, 6 and 7.
std::pair<common::Matrix, common::Matrix> signature_heatmaps(
    const std::vector<Signature>& sigs);

/// SignatureMethod adapter so CS can be driven by the same harness as the
/// baselines. Exists in two states: an untrained prototype (options only —
/// the registry's "cs:blocks=20" form) that fit() turns into a trained
/// method, and a trained method holding a reference-counted pipeline.
class CsSignatureMethod final : public SignatureMethod {
 public:
  /// Untrained prototype; compute()/save() throw until fit().
  explicit CsSignatureMethod(CsOptions options, std::string display_name = {});

  /// Trained method (the usual deployment). Throws std::invalid_argument on
  /// a null pipeline.
  CsSignatureMethod(std::shared_ptr<const CsPipeline> pipeline,
                    std::string display_name = {});

  // Keep the inherited Matrix-taking thin overloads visible next to the
  // MatrixView overrides below.
  using SignatureMethod::compute;
  using SignatureMethod::compute_streaming;
  using SignatureMethod::fit;

  std::string name() const override { return name_; }
  std::size_t signature_length(std::size_t n_sensors) const override;
  std::vector<double> compute(const common::MatrixView& window) const override;

  bool trained() const override { return pipeline_ != nullptr; }
  std::size_t n_sensors() const override;
  /// Trains Algorithm 1 + bounds on `train` under this method's options.
  std::unique_ptr<SignatureMethod> fit(
      const common::MatrixView& train) const override;
  /// fit() reusing the context's correlation workspace, aborting with
  /// common::OperationCancelled when its token fires mid-train.
  std::unique_ptr<SignatureMethod> fit(const common::MatrixView& train,
                                       TrainContext& ctx) const override;
  std::string codec_key() const override { return "cs"; }
  /// Fields: blocks, real-only, perm, lo, hi (the embedded CsModel).
  void save(codec::Sink& sink) const override;
  /// Seeds the derivative channel with the raw column preceding the window.
  std::vector<double> compute_streaming(
      const common::MatrixView& window,
      const std::span<const double>* seed_col) const override;
  /// A StreamSmoother over this pipeline's model, which it keeps alive.
  /// Throws std::logic_error if untrained.
  std::unique_ptr<StreamState> make_stream_state(
      std::size_t window_length) const override;

  const CsOptions& options() const noexcept { return options_; }
  /// Null when untrained.
  std::shared_ptr<const CsPipeline> pipeline() const noexcept {
    return pipeline_;
  }

  /// Reads the save() fields back from either codec back-end. Throws
  /// std::runtime_error on malformed input.
  static std::unique_ptr<CsSignatureMethod> read(codec::Source& in);

 private:
  std::shared_ptr<const CsPipeline> pipeline_;  ///< Null = untrained.
  CsOptions options_;
  std::string name_;
};

}  // namespace csm::core
