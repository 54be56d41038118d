#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace csm::ml {

double gini_impurity(std::span<const std::size_t> counts, std::size_t total) {
  if (total == 0) return 0.0;
  double acc = 0.0;
  const double inv = 1.0 / static_cast<double>(total);
  for (std::size_t c : counts) {
    const double p = static_cast<double>(c) * inv;
    acc += p * p;
  }
  return 1.0 - acc;
}

void require_finite_features(const common::Matrix& x,
                             std::span<const std::size_t> rows) {
  const auto check_row = [&](std::size_t r) {
    const std::span<const double> values = x.row(r);
    for (std::size_t c = 0; c < values.size(); ++c) {
      if (!std::isfinite(values[c])) {
        throw std::invalid_argument(
            "non-finite feature at row " + std::to_string(r) + ", column " +
            std::to_string(c));
      }
    }
  };
  if (rows.empty()) {
    for (std::size_t r = 0; r < x.rows(); ++r) check_row(r);
  } else {
    for (std::size_t r : rows) check_row(r);
  }
}

namespace {

// Work item for the iterative tree builder: a node and the range of its
// entries inside the shared row buffer.
struct BuildItem {
  std::uint32_t node;
  std::size_t begin;
  std::size_t end;
  std::size_t depth;
};

// Result of a split search.
struct Split {
  std::int32_t feature = -1;
  double threshold = 0.0;
  double score = -1.0;  // Impurity decrease (not normalised); -1 = none.
};

// A node entry keyed by its value of the feature under search. Sorting
// these pairs reads contiguous keys instead of one strided load of X per
// comparison.
struct Keyed {
  double value;
  std::size_t row;
};

}  // namespace

void DecisionTree::fit_classifier(const common::Matrix& x,
                                  std::span<const int> y,
                                  std::size_t n_classes, common::Rng& rng,
                                  std::span<const std::size_t> sample_indices) {
  if (n_classes == 0) {
    throw std::invalid_argument("fit_classifier: zero classes");
  }
  fit_impl(x, y, {}, n_classes, rng, sample_indices,
           /*check_features=*/true);
}

void DecisionTree::fit_regressor(const common::Matrix& x,
                                 std::span<const double> y, common::Rng& rng,
                                 std::span<const std::size_t> sample_indices) {
  fit_impl(x, {}, y, 0, rng, sample_indices, /*check_features=*/true);
}

void DecisionTree::fit_impl(const common::Matrix& x, std::span<const int> yc,
                            std::span<const double> yr, std::size_t n_classes,
                            common::Rng& rng,
                            std::span<const std::size_t> sample_indices,
                            bool check_features) {
  const bool classify = n_classes > 0;
  if (classify && yc.size() != x.rows()) {
    throw std::invalid_argument("DecisionTree: label count mismatch");
  }
  if (!classify && yr.size() != x.rows()) {
    throw std::invalid_argument("DecisionTree: target count mismatch");
  }
  if (x.rows() == 0) {
    throw std::invalid_argument("DecisionTree: no training samples");
  }
  for (std::size_t i : sample_indices) {
    if (i >= x.rows()) {
      throw std::out_of_range("DecisionTree: sample index out of range");
    }
  }

  // Shared, reorderable buffer of entries; each node owns a range. A
  // classifier holds each distinct row once and weights it by its draw
  // count: a Gini score reads only class counts and a threshold only
  // values, so neither the order nor the multiplicity of equal entries can
  // change a split. A regressor keeps one entry per draw, in draw order,
  // because its target sums depend on the order of addition, which for
  // equal keys std::sort takes from its input order.
  std::vector<std::size_t> idx;
  std::vector<std::size_t> draws;  // Classifier: draws of each row of X.
  if (classify) {
    draws.assign(x.rows(), sample_indices.empty() ? 1 : 0);
    for (std::size_t i : sample_indices) ++draws[i];
    for (std::size_t r = 0; r < x.rows(); ++r) {
      if (draws[r] == 0) continue;
      if (yc[r] < 0 || static_cast<std::size_t>(yc[r]) >= n_classes) {
        throw std::out_of_range("DecisionTree: label out of range");
      }
      idx.push_back(r);
    }
  } else if (sample_indices.empty()) {
    idx.resize(x.rows());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
  } else {
    idx.assign(sample_indices.begin(), sample_indices.end());
  }
  if (check_features) require_finite_features(x, idx);

  is_classifier_ = classify;
  nodes_.clear();
  depth_ = 0;

  const std::size_t n_features = x.cols();
  const std::size_t features_per_split =
      params_.max_features == 0 ? n_features
                                : std::min(params_.max_features, n_features);

  std::vector<std::size_t> feature_pool(n_features);
  std::iota(feature_pool.begin(), feature_pool.end(), std::size_t{0});

  // Scratch buffers reused across nodes.
  std::vector<std::size_t> counts_total(n_classes), counts_left(n_classes);
  std::vector<Keyed> sorted;  // The node's entries, sorted per feature.

  nodes_.push_back(Node{});
  std::vector<BuildItem> stack{BuildItem{0, 0, idx.size(), 0}};

  while (!stack.empty()) {
    const BuildItem item = stack.back();
    stack.pop_back();
    depth_ = std::max(depth_, item.depth);
    const std::span<const std::size_t> node_idx(idx.data() + item.begin,
                                                item.end - item.begin);
    const std::size_t k = node_idx.size();  // Entries.
    std::size_t m = k;                      // Samples (draws).

    // Leaf payload and purity of this node.
    double node_impurity = 0.0;
    double leaf_value = 0.0;
    double sum = 0.0, sum_sq = 0.0;
    if (classify) {
      std::fill(counts_total.begin(), counts_total.end(), std::size_t{0});
      m = 0;
      for (std::size_t i : node_idx) {
        counts_total[static_cast<std::size_t>(yc[i])] += draws[i];
        m += draws[i];
      }
      node_impurity = gini_impurity(counts_total, m);
      leaf_value = static_cast<double>(
          std::max_element(counts_total.begin(), counts_total.end()) -
          counts_total.begin());
    } else {
      for (std::size_t i : node_idx) {
        sum += yr[i];
        sum_sq += yr[i] * yr[i];
      }
      leaf_value = sum / static_cast<double>(m);
      node_impurity = sum_sq / static_cast<double>(m) - leaf_value * leaf_value;
    }

    const bool depth_ok =
        params_.max_depth == 0 || item.depth < params_.max_depth;
    Split best;
    if (depth_ok && m >= params_.min_samples_split && node_impurity > 1e-12) {
      // Sample features without replacement (partial Fisher-Yates).
      for (std::size_t f = 0; f < features_per_split; ++f) {
        const std::size_t j =
            f + static_cast<std::size_t>(rng.uniform_int(n_features - f));
        std::swap(feature_pool[f], feature_pool[j]);
      }
      for (std::size_t fi = 0; fi < features_per_split; ++fi) {
        const std::size_t feature = feature_pool[fi];
        sorted.resize(k);
        for (std::size_t e = 0; e < k; ++e) {
          sorted[e] = Keyed{x(node_idx[e], feature), node_idx[e]};
        }
        std::sort(sorted.begin(), sorted.end(),
                  [](const Keyed& a, const Keyed& b) {
                    return a.value < b.value;
                  });
        if (sorted.front().value == sorted.back().value) {
          continue;  // Constant feature in this node.
        }
        if (classify) {
          std::fill(counts_left.begin(), counts_left.end(), std::size_t{0});
          std::size_t n_left = 0;
          for (std::size_t pos = 1; pos < k; ++pos) {
            const std::size_t moved = sorted[pos - 1].row;
            counts_left[static_cast<std::size_t>(yc[moved])] += draws[moved];
            n_left += draws[moved];
            if (sorted[pos - 1].value == sorted[pos].value) continue;
            if (n_left < params_.min_samples_leaf ||
                m - n_left < params_.min_samples_leaf) {
              continue;
            }
            // Weighted Gini of the two children; lower is better, so score
            // is the decrease relative to the parent.
            double gini_right;
            {
              double acc = 0.0;
              const double inv =
                  1.0 / static_cast<double>(m - n_left);
              for (std::size_t c = 0; c < n_classes; ++c) {
                const double p =
                    static_cast<double>(counts_total[c] - counts_left[c]) *
                    inv;
                acc += p * p;
              }
              gini_right = 1.0 - acc;
            }
            const double gini_left = gini_impurity(counts_left, n_left);
            const double frac_left =
                static_cast<double>(n_left) / static_cast<double>(m);
            const double child_impurity =
                frac_left * gini_left + (1.0 - frac_left) * gini_right;
            const double score = node_impurity - child_impurity;
            if (score > best.score) {
              best.score = score;
              best.feature = static_cast<std::int32_t>(feature);
              best.threshold =
                  0.5 * (sorted[pos - 1].value + sorted[pos].value);
            }
          }
        } else {
          double sum_left = 0.0;
          std::size_t n_left = 0;
          for (std::size_t pos = 1; pos < k; ++pos) {
            sum_left += yr[sorted[pos - 1].row];
            ++n_left;
            if (sorted[pos - 1].value == sorted[pos].value) continue;
            if (n_left < params_.min_samples_leaf ||
                m - n_left < params_.min_samples_leaf) {
              continue;
            }
            // Variance reduction is maximised by maximising
            // nL*meanL^2 + nR*meanR^2 (constant terms dropped).
            const double sum_right = sum - sum_left;
            const double nl = static_cast<double>(n_left);
            const double nr = static_cast<double>(m - n_left);
            const double score_raw =
                sum_left * sum_left / nl + sum_right * sum_right / nr;
            // Shift so the score is comparable to "impurity decrease > 0":
            // subtract the parent's contribution sum^2 / m.
            const double score =
                (score_raw - sum * sum / static_cast<double>(m)) /
                static_cast<double>(m);
            if (score > best.score) {
              best.score = score;
              best.feature = static_cast<std::int32_t>(feature);
              best.threshold =
                  0.5 * (sorted[pos - 1].value + sorted[pos].value);
            }
          }
        }
      }
    }

    if (best.feature < 0 || best.score <= 1e-15) {
      nodes_[item.node].feature = -1;
      nodes_[item.node].value = leaf_value;
      continue;
    }

    // Partition this node's entry range around the threshold.
    const auto mid_it = std::partition(
        idx.begin() + static_cast<std::ptrdiff_t>(item.begin),
        idx.begin() + static_cast<std::ptrdiff_t>(item.end),
        [&](std::size_t i) {
          return x(i, static_cast<std::size_t>(best.feature)) <=
                 best.threshold;
        });
    const auto mid =
        static_cast<std::size_t>(mid_it - idx.begin());
    if (mid == item.begin || mid == item.end) {
      // Numerically degenerate split; make a leaf instead.
      nodes_[item.node].feature = -1;
      nodes_[item.node].value = leaf_value;
      continue;
    }

    const auto left_id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{});
    const auto right_id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{});
    nodes_[item.node].feature = best.feature;
    nodes_[item.node].threshold = best.threshold;
    nodes_[item.node].left = left_id;
    nodes_[item.node].right = right_id;
    stack.push_back(BuildItem{left_id, item.begin, mid, item.depth + 1});
    stack.push_back(BuildItem{right_id, mid, item.end, item.depth + 1});
  }
}

const DecisionTree::Node& DecisionTree::descend(
    std::span<const double> x) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree: not fitted");
  const Node* node = &nodes_[0];
  while (node->feature >= 0) {
    const auto f = static_cast<std::size_t>(node->feature);
    if (f >= x.size()) {
      throw std::out_of_range("DecisionTree: feature vector too short");
    }
    node = &nodes_[x[f] <= node->threshold ? node->left : node->right];
  }
  return *node;
}

int DecisionTree::predict_class(std::span<const double> x) const {
  if (!is_classifier_) {
    throw std::logic_error("DecisionTree: not fitted as classifier");
  }
  return static_cast<int>(descend(x).value);
}

double DecisionTree::predict_value(std::span<const double> x) const {
  if (is_classifier_) {
    throw std::logic_error("DecisionTree: not fitted as regressor");
  }
  return descend(x).value;
}

}  // namespace csm::ml
