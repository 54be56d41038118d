#include "baselines/pca.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/model_codec.hpp"
#include "stats/descriptive.hpp"
#include "stats/eigen.hpp"
#include "stats/finite_diff.hpp"

namespace csm::baselines {

namespace {

// Sanity cap on decoded dimensions: a corrupt record must not turn into a
// multi-gigabyte allocation before the shape checks can fail.
constexpr std::size_t kMaxPcaDim = 1u << 24;

void check_all_finite(std::span<const double> values, const char* what) {
  for (double v : values) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument(std::string("PcaModel: non-finite ") + what);
    }
  }
}

}  // namespace

PcaModel::PcaModel(std::vector<double> means, std::vector<double> inv_std,
                   common::Matrix components, std::vector<double> explained) {
  const std::size_t n = means.size();
  const std::size_t k = components.rows();
  if (n == 0 || k == 0 || k > n || inv_std.size() != n ||
      components.cols() != n || explained.size() != k) {
    throw std::invalid_argument("PcaModel: inconsistent part shapes");
  }
  check_all_finite(means, "means");
  check_all_finite(inv_std, "inverse deviations");
  check_all_finite(explained, "explained variances");
  for (std::size_t r = 0; r < k; ++r) {
    check_all_finite(components.row(r), "component coefficients");
  }
  means_ = std::move(means);
  inv_std_ = std::move(inv_std);
  components_ = std::move(components);
  explained_ = std::move(explained);
}

PcaModel PcaModel::fit(const common::MatrixView& s, std::size_t components) {
  if (s.empty()) throw std::invalid_argument("PcaModel::fit: empty matrix");
  if (components == 0) {
    throw std::invalid_argument("PcaModel::fit: zero components");
  }
  const std::size_t n = s.rows();
  const std::size_t t = s.cols();
  const std::size_t k = std::min(components, n);

  PcaModel model;
  model.means_.resize(n);
  model.inv_std_.resize(n);
  // The standardised copy the eigen-decomposition needs is built straight
  // out of the view; mean/stddev walk each row time-ascending (gathered
  // into scratch for ring-segment layouts), matching the materialised path
  // bit for bit.
  common::Matrix standardized(n, t);
  std::vector<double> scratch;
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = s.row(r, scratch);
    model.means_[r] = stats::mean(row);
    const double sd = stats::stddev(row);
    model.inv_std_[r] = sd > 1e-12 ? 1.0 / sd : 0.0;
    auto dst = standardized.row(r);
    for (std::size_t c = 0; c < t; ++c) {
      dst[c] = (row[c] - model.means_[r]) * model.inv_std_[r];
    }
  }

  const stats::EigenDecomposition eig =
      stats::jacobi_eigen(stats::covariance_matrix(standardized));
  model.components_ = eig.vectors.sub_rows(0, k);
  model.explained_.assign(eig.values.begin(),
                          eig.values.begin() + static_cast<std::ptrdiff_t>(k));
  return model;
}

namespace {

std::vector<double> project_impl(const common::Matrix& components,
                                 std::span<const double> x,
                                 std::span<const double> means,
                                 std::span<const double> inv_std,
                                 bool subtract_mean) {
  if (x.size() != means.size()) {
    throw std::invalid_argument("PcaModel::project: wrong vector length");
  }
  std::vector<double> out(components.rows(), 0.0);
  for (std::size_t c = 0; c < components.rows(); ++c) {
    const auto component = components.row(c);
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double centered = subtract_mean ? x[i] - means[i] : x[i];
      acc += component[i] * centered * inv_std[i];
    }
    out[c] = acc;
  }
  return out;
}

}  // namespace

std::vector<double> PcaModel::project(std::span<const double> x) const {
  return project_impl(components_, x, means_, inv_std_, true);
}

std::vector<double> PcaModel::project_centered(
    std::span<const double> x) const {
  return project_impl(components_, x, means_, inv_std_, false);
}

PcaMethod::PcaMethod(std::size_t components) : components_(components) {
  if (components_ == 0) {
    throw std::invalid_argument("PcaMethod: zero components");
  }
  name_ = "PCA-" + std::to_string(components_);
}

PcaMethod::PcaMethod(PcaModel model, std::string display_name)
    : model_(std::move(model)),
      components_(model_.n_components()),
      name_(std::move(display_name)) {
  if (model_.n_sensors() == 0) {
    throw std::invalid_argument("PcaMethod: untrained model");
  }
  if (name_.empty()) {
    name_ = "PCA-" + std::to_string(model_.n_components());
  }
}

std::size_t PcaMethod::signature_length(std::size_t /*n_sensors*/) const {
  return 2 * (trained() ? model_.n_components() : components_);
}

std::unique_ptr<core::SignatureMethod> PcaMethod::fit(
    const common::MatrixView& train) const {
  return std::make_unique<PcaMethod>(PcaModel::fit(train, components_));
}

void PcaMethod::save(core::codec::Sink& sink) const {
  if (!trained()) {
    throw std::logic_error("PcaMethod: save() before fit()");
  }
  const std::size_t n = model_.n_sensors();
  const std::size_t k = model_.n_components();
  sink.size("sensors", n);
  sink.size("components", k);
  sink.f64_array("means", model_.means());
  sink.f64_array("inv-std", model_.inv_std());
  sink.f64_array("explained", model_.explained_variance());
  // The k x n basis matrix is row-major contiguous already.
  sink.f64_array("basis", {model_.components().data(), k * n});
}

std::unique_ptr<PcaMethod> PcaMethod::read(core::codec::Source& in) {
  const std::size_t n = in.size("sensors");
  const std::size_t k = in.size("components");
  std::vector<double> means = in.f64_array("means");
  std::vector<double> inv_std = in.f64_array("inv-std");
  std::vector<double> explained = in.f64_array("explained");
  const std::vector<double> basis = in.f64_array("basis");
  if (n == 0 || k == 0 || n > kMaxPcaDim || k > kMaxPcaDim ||
      means.size() != n || inv_std.size() != n || explained.size() != k ||
      basis.size() != k * n) {
    throw std::runtime_error(
        "PcaMethod: field shapes are inconsistent with sensors/components");
  }
  common::Matrix components(k, n);
  std::copy(basis.begin(), basis.end(), components.data());
  try {
    return std::make_unique<PcaMethod>(
        PcaModel(std::move(means), std::move(inv_std), std::move(components),
                 std::move(explained)));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("PcaMethod: ") + e.what());
  }
}

std::vector<double> PcaMethod::compute(
    const common::MatrixView& window) const {
  if (!trained()) {
    throw std::logic_error("PcaMethod: compute() before fit()");
  }
  if (window.rows() != model_.n_sensors()) {
    throw std::invalid_argument("PcaMethod: sensor count mismatch");
  }
  // Window mean vector and mean backward-derivative vector per sensor. The
  // means accumulate column by column when the view is column-segmented
  // (each column a contiguous span) and row by row otherwise; both walk
  // time ascending per sensor, so the result is bit-identical either way.
  const std::size_t n = window.rows();
  const std::size_t wl = window.cols();
  std::vector<double> mean_vec(n, 0.0);
  std::vector<double> diff_vec(n);
  if (window.contiguous_cols() && wl > 0) {
    for (std::size_t c = 0; c < wl; ++c) {
      const std::span<const double> col = window.col(c);
      for (std::size_t r = 0; r < n; ++r) mean_vec[r] += col[r];
    }
    for (std::size_t r = 0; r < n; ++r) {
      mean_vec[r] /= static_cast<double>(wl);
    }
  } else if (wl > 0) {
    for (std::size_t r = 0; r < n; ++r) {
      mean_vec[r] = stats::mean(window.row(r));
    }
  }
  for (std::size_t r = 0; r < n; ++r) {
    // Mean of backward differences = (last - first) / wl.
    const double swing = wl > 1 ? window(r, wl - 1) - window(r, 0) : 0.0;
    diff_vec[r] = wl > 1 ? swing / static_cast<double>(wl) : 0.0;
  }
  std::vector<double> out = model_.project(mean_vec);
  // Derivatives are naturally centred at zero, so skip mean subtraction.
  const std::vector<double> diff_proj = model_.project_centered(diff_vec);
  out.insert(out.end(), diff_proj.begin(), diff_proj.end());
  return out;
}

}  // namespace csm::baselines
