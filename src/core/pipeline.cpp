#include "core/pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/model_codec.hpp"
#include "core/smoothing.hpp"
#include "core/training.hpp"

namespace csm::core {

std::vector<Signature> CsPipeline::transform(
    const common::Matrix& s, const data::WindowSpec& spec) const {
  spec.validate();
  if (s.rows() != model_.n_sensors()) {
    throw std::invalid_argument("CsPipeline::transform: sensor count mismatch");
  }
  StreamSmoother smoother(model_.permutation(), model_.bounds(), blocks(),
                          spec.length);
  const std::size_t n_windows = spec.count(s.cols());
  std::vector<Signature> out;
  out.reserve(n_windows);
  std::vector<double> column(s.rows());
  std::size_t next = 0;  // First column not pushed yet.
  for (std::size_t w = 0; w < n_windows; ++w) {
    const std::size_t first = spec.start(w);
    // Push the window and, past column 0, the seed column before it; with
    // ws > wl + 1 the columns between windows are skipped.
    for (std::size_t c = std::max(next, first == 0 ? 0 : first - 1);
         c < first + spec.length; ++c) {
      for (std::size_t r = 0; r < s.rows(); ++r) column[r] = s(r, c);
      smoother.push(column);
    }
    next = first + spec.length;
    out.push_back(smoother.emit(first > 0));
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
    throw std::logic_error("CsSignatureMethod: save() before fit()");
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

namespace {

/// CS's per-stream state: a StreamSmoother over the pipeline's model. The
/// pipeline is held so the permutation the smoother reads outlives it.
class CsStreamState final : public StreamState {
 public:
  CsStreamState(std::shared_ptr<const CsPipeline> pipeline,
                std::size_t window_length)
      : pipeline_(std::move(pipeline)),
        smoother_(pipeline_->model().permutation(),
                  pipeline_->model().bounds(), pipeline_->blocks(),
                  window_length) {}

  void push(std::span<const double> column) override {
    smoother_.push(column);
  }
  std::vector<double> emit(bool seeded) override {
    return smoother_.emit(seeded).flatten(pipeline_->options().real_only);
  }

 private:
  std::shared_ptr<const CsPipeline> pipeline_;
  StreamSmoother smoother_;
};

}  // namespace

std::unique_ptr<StreamState> CsSignatureMethod::make_stream_state(
    std::size_t window_length) const {
  if (!pipeline_) {
    throw std::logic_error("CsSignatureMethod: stream state before fit()");
  }
  return std::make_unique<CsStreamState>(pipeline_, window_length);
}

}  // namespace csm::core
