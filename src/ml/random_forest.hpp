// Random forests (Section IV-A1: 50 estimators, Gini impurity).
//
// Bagged CART ensembles: each tree trains on a bootstrap resample of the
// data with per-split random feature sub-sampling (sqrt(n_features) for
// classification, all features for regression — the scikit-learn defaults
// the paper relies on). Tree training is independent, so estimators are
// built in parallel with deterministic per-tree RNG streams. A fit rejects a
// NaN or an infinity in X (std::invalid_argument naming the row and the
// column) before it builds any tree.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/decision_tree.hpp"
#include "ml/model.hpp"

namespace csm::ml {

/// How per-split feature sub-sampling is resolved when tree.max_features is
/// left at 0 (the "task default").
enum class MaxFeaturesMode {
  kTaskDefault,  ///< sqrt(n) for classification, all for regression.
  kAll,
  kSqrt,
  kThird,
};

/// Ensemble configuration.
struct ForestParams {
  std::size_t n_estimators = 50;  ///< The paper's estimator count.
  TreeParams tree;                ///< tree.max_features 0 = use feature_mode.
  MaxFeaturesMode feature_mode = MaxFeaturesMode::kTaskDefault;
  bool bootstrap = true;
  std::uint64_t seed = 0x5eed;
};

/// Resolves the per-split feature count for `n_features` inputs.
std::size_t resolve_max_features(const ForestParams& params,
                                 std::size_t n_features, bool classification);

/// Majority-vote bagged classifier.
class RandomForestClassifier final : public Classifier {
 public:
  explicit RandomForestClassifier(ForestParams params = {});

  void fit(const common::Matrix& x, std::span<const int> y) override;
  int predict_one(std::span<const double> x) const override;

  std::size_t n_classes() const noexcept { return n_classes_; }
  const std::vector<DecisionTree>& trees() const noexcept { return trees_; }

 private:
  ForestParams params_;
  std::vector<DecisionTree> trees_;
  std::size_t n_classes_ = 0;
};

/// Mean-prediction bagged regressor.
class RandomForestRegressor final : public Regressor {
 public:
  explicit RandomForestRegressor(ForestParams params = {});

  void fit(const common::Matrix& x, std::span<const double> y) override;
  double predict_one(std::span<const double> x) const override;

  const std::vector<DecisionTree>& trees() const noexcept { return trees_; }

 private:
  ForestParams params_;
  std::vector<DecisionTree> trees_;
};

}  // namespace csm::ml
