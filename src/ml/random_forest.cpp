#include "ml/random_forest.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace csm::ml {

namespace {

// Bootstrap resample of [0, n): n draws with replacement.
std::vector<std::size_t> bootstrap_indices(std::size_t n, common::Rng& rng) {
  std::vector<std::size_t> out(n);
  for (auto& v : out) v = static_cast<std::size_t>(rng.uniform_int(n));
  return out;
}

// Checks X once for all trees, which then fit without their own scan: an
// exception must not leave the parallel region.
void check_training_input(const common::Matrix& x, std::size_t y_size) {
  if (x.rows() == 0) {
    throw std::invalid_argument("RandomForest: empty training set");
  }
  if (y_size != x.rows()) {
    throw std::invalid_argument("RandomForest: label/target count mismatch");
  }
  require_finite_features(x);
}

}  // namespace

std::size_t resolve_max_features(const ForestParams& params,
                                 std::size_t n_features,
                                 bool classification) {
  if (params.tree.max_features != 0) {
    return std::min(params.tree.max_features, n_features);
  }
  MaxFeaturesMode mode = params.feature_mode;
  if (mode == MaxFeaturesMode::kTaskDefault) {
    mode = classification ? MaxFeaturesMode::kSqrt : MaxFeaturesMode::kAll;
  }
  switch (mode) {
    case MaxFeaturesMode::kAll:
      return n_features;
    case MaxFeaturesMode::kSqrt:
      return std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::sqrt(static_cast<double>(n_features))));
    case MaxFeaturesMode::kThird:
      return std::max<std::size_t>(1, n_features / 3);
    case MaxFeaturesMode::kTaskDefault:
      break;  // Unreachable; handled above.
  }
  return n_features;
}

RandomForestClassifier::RandomForestClassifier(ForestParams params)
    : params_(params) {
  if (params_.n_estimators == 0) {
    throw std::invalid_argument("RandomForestClassifier: zero estimators");
  }
}

void RandomForestClassifier::fit(const common::Matrix& x,
                                 std::span<const int> y) {
  check_training_input(x, y.size());
  int max_label = 0;
  for (int l : y) {
    if (l < 0) throw std::invalid_argument("RandomForest: negative label");
    max_label = std::max(max_label, l);
  }
  n_classes_ = static_cast<std::size_t>(max_label) + 1;

  TreeParams tree_params = params_.tree;
  tree_params.max_features =
      resolve_max_features(params_, x.cols(), /*classification=*/true);

  // Deterministic per-tree streams, forked sequentially before going wide.
  common::Rng root(params_.seed);
  std::vector<common::Rng> streams;
  streams.reserve(params_.n_estimators);
  for (std::size_t i = 0; i < params_.n_estimators; ++i) {
    streams.push_back(root.fork());
  }

  trees_.assign(params_.n_estimators, DecisionTree(tree_params));
  common::parallel_for_dynamic(params_.n_estimators, [&](std::size_t t) {
    common::Rng& rng = streams[t];
    const std::vector<std::size_t> sample =
        params_.bootstrap ? bootstrap_indices(x.rows(), rng)
                          : std::vector<std::size_t>{};
    trees_[t].fit_impl(x, y, {}, n_classes_, rng, sample,
                       /*check_features=*/false);
  });
}

int RandomForestClassifier::predict_one(std::span<const double> x) const {
  if (trees_.empty() || !trees_.front().is_fitted()) {
    throw std::logic_error("RandomForestClassifier: not fitted");
  }
  std::vector<std::size_t> votes(n_classes_, 0);
  for (const DecisionTree& tree : trees_) {
    ++votes[static_cast<std::size_t>(tree.predict_class(x))];
  }
  return static_cast<int>(std::max_element(votes.begin(), votes.end()) -
                          votes.begin());
}

RandomForestRegressor::RandomForestRegressor(ForestParams params)
    : params_(params) {
  if (params_.n_estimators == 0) {
    throw std::invalid_argument("RandomForestRegressor: zero estimators");
  }
}

void RandomForestRegressor::fit(const common::Matrix& x,
                                std::span<const double> y) {
  check_training_input(x, y.size());
  TreeParams tree_params = params_.tree;
  tree_params.max_features =
      resolve_max_features(params_, x.cols(), /*classification=*/false);

  common::Rng root(params_.seed);
  std::vector<common::Rng> streams;
  streams.reserve(params_.n_estimators);
  for (std::size_t i = 0; i < params_.n_estimators; ++i) {
    streams.push_back(root.fork());
  }

  trees_.assign(params_.n_estimators, DecisionTree(tree_params));
  common::parallel_for_dynamic(params_.n_estimators, [&](std::size_t t) {
    common::Rng& rng = streams[t];
    const std::vector<std::size_t> sample =
        params_.bootstrap ? bootstrap_indices(x.rows(), rng)
                          : std::vector<std::size_t>{};
    trees_[t].fit_impl(x, {}, y, 0, rng, sample, /*check_features=*/false);
  });
}

double RandomForestRegressor::predict_one(std::span<const double> x) const {
  if (trees_.empty() || !trees_.front().is_fitted()) {
    throw std::logic_error("RandomForestRegressor: not fitted");
  }
  double acc = 0.0;
  for (const DecisionTree& tree : trees_) acc += tree.predict_value(x);
  return acc / static_cast<double>(trees_.size());
}

}  // namespace csm::ml
