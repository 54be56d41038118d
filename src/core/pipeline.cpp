#include "core/pipeline.hpp"

#include <stdexcept>

#include "core/model_codec.hpp"
#include "core/smoothing.hpp"
#include "core/training.hpp"
#include "stats/finite_diff.hpp"

namespace csm::core {

std::vector<Signature> CsPipeline::transform(
    const common::Matrix& s, const data::WindowSpec& spec) const {
  spec.validate();
  const common::Matrix sorted_full = model_.sort(s);
  const common::Matrix derivs_full = stats::backward_diff_rows(sorted_full);
  const std::size_t l = blocks();
  const std::size_t n_windows = spec.count(s.cols());
  std::vector<Signature> out;
  out.reserve(n_windows);
  for (std::size_t w = 0; w < n_windows; ++w) {
    const std::size_t first = spec.start(w);
    out.push_back(smooth(sorted_full.sub_cols(first, spec.length),
                         derivs_full.sub_cols(first, spec.length), l));
  }
  return out;
}

Signature CsPipeline::transform_window(
    const common::MatrixView& window) const {
  if (window.rows() != model_.n_sensors()) {
    throw std::invalid_argument(
        "CsPipeline::transform_window: sensor count mismatch");
  }
  return smooth_window(window, model_.permutation(), model_.bounds(), nullptr,
                       blocks());
}

std::pair<common::Matrix, common::Matrix> signature_heatmaps(
    const std::vector<Signature>& sigs) {
  if (sigs.empty()) {
    throw std::invalid_argument("signature_heatmaps: no signatures");
  }
  const std::size_t l = sigs.front().length();
  for (const Signature& s : sigs) {
    if (s.length() != l) {
      throw std::invalid_argument("signature_heatmaps: ragged lengths");
    }
  }
  common::Matrix re(l, sigs.size());
  common::Matrix im(l, sigs.size());
  for (std::size_t c = 0; c < sigs.size(); ++c) {
    for (std::size_t r = 0; r < l; ++r) {
      re(r, c) = sigs[c].real()[r];
      im(r, c) = sigs[c].imag()[r];
    }
  }
  return {std::move(re), std::move(im)};
}

namespace {

std::string cs_display_name(const CsOptions& opt) {
  std::string name =
      opt.blocks == 0 ? "CS-All" : "CS-" + std::to_string(opt.blocks);
  if (opt.real_only) name += "-R";
  return name;
}

}  // namespace

CsSignatureMethod::CsSignatureMethod(CsOptions options,
                                     std::string display_name)
    : options_(options), name_(std::move(display_name)) {
  if (name_.empty()) name_ = cs_display_name(options_);
}

CsSignatureMethod::CsSignatureMethod(
    std::shared_ptr<const CsPipeline> pipeline, std::string display_name)
    : pipeline_(std::move(pipeline)), name_(std::move(display_name)) {
  if (!pipeline_) {
    throw std::invalid_argument("CsSignatureMethod: null pipeline");
  }
  options_ = pipeline_->options();
  if (name_.empty()) name_ = cs_display_name(options_);
}

std::size_t CsSignatureMethod::signature_length(std::size_t n_sensors) const {
  const std::size_t l = options_.resolve_blocks(n_sensors);
  return options_.real_only ? l : 2 * l;
}

std::vector<double> CsSignatureMethod::compute(
    const common::MatrixView& window) const {
  if (!pipeline_) {
    throw std::logic_error("CsSignatureMethod: compute() before fit()");
  }
  return pipeline_->transform_window(window).flatten(options_.real_only);
}

std::size_t CsSignatureMethod::n_sensors() const {
  return pipeline_ ? pipeline_->model().n_sensors() : 0;
}

std::unique_ptr<SignatureMethod> CsSignatureMethod::fit(
    const common::MatrixView& train_data) const {
  auto pipeline =
      std::make_shared<const CsPipeline>(train(train_data), options_);
  return std::make_unique<CsSignatureMethod>(std::move(pipeline), name_);
}

std::unique_ptr<SignatureMethod> CsSignatureMethod::fit(
    const common::MatrixView& train_data, TrainContext& ctx) const {
  auto pipeline =
      std::make_shared<const CsPipeline>(train(train_data, ctx), options_);
  return std::make_unique<CsSignatureMethod>(std::move(pipeline), name_);
}

void CsSignatureMethod::save(codec::Sink& sink) const {
  if (!pipeline_) {
    throw std::logic_error("CsSignatureMethod: serialize() before fit()");
  }
  const CsModel& model = pipeline_->model();
  sink.size("blocks", options_.blocks);
  sink.flag("real-only", options_.real_only);
  sink.sizes("perm", model.permutation());
  std::vector<double> lo, hi;
  lo.reserve(model.bounds().size());
  hi.reserve(model.bounds().size());
  for (const stats::MinMaxBounds& b : model.bounds()) {
    lo.push_back(b.lo);
    hi.push_back(b.hi);
  }
  sink.f64_array("lo", lo);
  sink.f64_array("hi", hi);
}

std::unique_ptr<CsSignatureMethod> CsSignatureMethod::read(codec::Source& in) {
  CsOptions options;
  options.blocks = in.size("blocks");
  options.real_only = in.flag("real-only");
  const std::vector<std::size_t> perm = in.sizes("perm");
  const std::vector<double> lo = in.f64_array("lo");
  const std::vector<double> hi = in.f64_array("hi");
  if (lo.size() != perm.size() || hi.size() != perm.size()) {
    throw std::runtime_error(
        "CsSignatureMethod: bounds arrays do not match the permutation "
        "length");
  }
  std::vector<stats::MinMaxBounds> bounds(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    bounds[i] = {lo[i], hi[i]};
  }
  try {
    auto pipeline = std::make_shared<const CsPipeline>(
        CsModel(perm, std::move(bounds)), options);
    return std::make_unique<CsSignatureMethod>(std::move(pipeline));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("CsSignatureMethod: ") + e.what());
  }
}

std::vector<double> CsSignatureMethod::compute_streaming(
    const common::MatrixView& window,
    const std::span<const double>* seed_col) const {
  if (!pipeline_) {
    throw std::logic_error("CsSignatureMethod: compute() before fit()");
  }
  const CsModel& model = pipeline_->model();
  if (window.rows() != model.n_sensors()) {
    throw std::invalid_argument(
        "CsSignatureMethod: sensor count mismatch");
  }
  return smooth_window(window, model.permutation(), model.bounds(), seed_col,
                       options_.resolve_blocks(model.n_sensors()))
      .flatten(options_.real_only);
}

}  // namespace csm::core
