// CART decision trees (classification and regression).
//
// The paper's models are scikit-learn random forests (50 estimators, Gini
// impurity); this is the underlying tree learner, built from scratch:
// axis-aligned binary splits chosen by exhaustive threshold scan over a
// random feature subset, Gini impurity for classification and variance
// reduction for regression, with the usual depth / minimum-sample stopping
// rules. Trees are stored as a flat node array for cache-friendly inference.
//
// As in scikit-learn, a classifier trains on bootstrap draw counts: each
// distinct sampled row is held once with the number of times it was drawn,
// and every class count is weighted by it. A regressor keeps one entry per
// draw, because its target sums depend on the order they are added in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"

namespace csm::ml {

/// Stopping and split-sampling parameters shared by both tree kinds.
struct TreeParams {
  std::size_t max_depth = 0;          ///< 0 = unlimited.
  std::size_t min_samples_split = 2;  ///< Nodes smaller than this are leaves.
  std::size_t min_samples_leaf = 1;  ///< Smaller children are rejected.
  std::size_t max_features = 0;       ///< Features tried per split; 0 = all.
};

class RandomForestClassifier;
class RandomForestRegressor;

/// A fitted CART tree. Fit either as a classifier or as a regressor; the
/// corresponding predict method must be used.
///
/// A fit rejects, before it builds any node:
///   - an empty X, a label or target count other than X.rows(), or zero
///     classes: std::invalid_argument;
///   - a sample index outside X, or a sampled row's label outside
///     [0, n_classes): std::out_of_range;
///   - a NaN or an infinity in a sampled row of X: std::invalid_argument
///     naming the row and the column. The split search sorts each
///     feature's values, which needs them ordered.
class DecisionTree {
 public:
  /// One node of the flat array; node 0 is the root.
  struct Node {
    std::int32_t feature = -1;  ///< -1 marks a leaf.
    double threshold = 0.0;     ///< Go left if x[feature] <= threshold.
    std::uint32_t left = 0;
    std::uint32_t right = 0;
    double value = 0.0;         ///< Leaf payload: class id or mean target.
  };

  explicit DecisionTree(TreeParams params = {}) : params_(params) {}

  /// Fits a classifier on rows `sample_indices` of X (all rows when empty;
  /// a row listed k times counts k times). Labels must be in
  /// [0, n_classes). `rng` drives feature sub-sampling.
  void fit_classifier(const common::Matrix& x, std::span<const int> y,
                      std::size_t n_classes, common::Rng& rng,
                      std::span<const std::size_t> sample_indices = {});

  /// Fits a regressor on rows `sample_indices` of X (all rows when empty).
  void fit_regressor(const common::Matrix& x, std::span<const double> y,
                     common::Rng& rng,
                     std::span<const std::size_t> sample_indices = {});

  bool is_fitted() const noexcept { return !nodes_.empty(); }
  bool is_classifier() const noexcept { return is_classifier_; }
  std::size_t n_nodes() const noexcept { return nodes_.size(); }
  std::size_t depth() const noexcept { return depth_; }
  /// The fitted nodes, root first, for inspection.
  std::span<const Node> nodes() const noexcept { return nodes_; }

  /// Predicted class for one feature vector.
  int predict_class(std::span<const double> x) const;
  /// Predicted value for one feature vector.
  double predict_value(std::span<const double> x) const;

 private:
  // The forests scan X for non-finite values once, then fit every tree
  // with check_features = false.
  friend class RandomForestClassifier;
  friend class RandomForestRegressor;

  const Node& descend(std::span<const double> x) const;

  /// Classifies when n_classes > 0, regresses on `yr` otherwise.
  void fit_impl(const common::Matrix& x, std::span<const int> yc,
                std::span<const double> yr, std::size_t n_classes,
                common::Rng& rng, std::span<const std::size_t> sample_indices,
                bool check_features);

  TreeParams params_;
  std::vector<Node> nodes_;
  std::size_t depth_ = 0;
  bool is_classifier_ = false;
};

/// Gini impurity of a class-count histogram with `total` samples.
double gini_impurity(std::span<const std::size_t> counts, std::size_t total);

/// Throws std::invalid_argument naming the first row of `rows` (every row
/// of X when empty), and its column, that holds a NaN or an infinity.
void require_finite_features(const common::Matrix& x,
                             std::span<const std::size_t> rows = {});

}  // namespace csm::ml
