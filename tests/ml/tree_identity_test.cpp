// Tree identity: DecisionTree against a copy of the straightforward CART
// split search, which sorts each node's sample indices (one entry per
// bootstrap draw) through a comparator that reads X. The library fits a
// classifier on draw counts and sorts contiguous (value, row) pairs; both
// must give the same tree, node for node and bit for bit. The inputs are
// built to make the shortcuts matter: bootstrap samples full of duplicates,
// features on a coarse grid so that ties are everywhere, and a constant
// column.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "ml/decision_tree.hpp"
#include "ml/random_forest.hpp"

namespace csm::ml {
namespace {

using Node = DecisionTree::Node;

struct Reference {
  std::vector<Node> nodes;
  std::size_t depth = 0;
};

// The reference split search: one entry per draw, each candidate feature
// sorted by index through x(a, feature) < x(b, feature).
Reference reference_fit(const common::Matrix& x, std::span<const int> yc,
                        std::span<const double> yr, std::size_t n_classes,
                        const TreeParams& params, common::Rng& rng,
                        std::span<const std::size_t> sample_indices) {
  struct Item {
    std::uint32_t node;
    std::size_t begin;
    std::size_t end;
    std::size_t depth;
  };
  const bool classify = n_classes > 0;
  Reference out;
  std::vector<std::size_t> idx(sample_indices.begin(), sample_indices.end());
  if (idx.empty()) {
    idx.resize(x.rows());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
  }
  const std::size_t n_features = x.cols();
  const std::size_t features_per_split =
      params.max_features == 0 ? n_features
                               : std::min(params.max_features, n_features);
  std::vector<std::size_t> feature_pool(n_features);
  std::iota(feature_pool.begin(), feature_pool.end(), std::size_t{0});
  std::vector<std::size_t> counts_total(n_classes), counts_left(n_classes);
  std::vector<std::size_t> sorted;

  out.nodes.push_back(Node{});
  std::vector<Item> stack{Item{0, 0, idx.size(), 0}};
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    const std::size_t m = item.end - item.begin;
    out.depth = std::max(out.depth, item.depth);
    const std::span<std::size_t> node_idx(idx.data() + item.begin, m);

    double node_impurity = 0.0;
    double leaf_value = 0.0;
    double sum = 0.0, sum_sq = 0.0;
    if (classify) {
      std::fill(counts_total.begin(), counts_total.end(), std::size_t{0});
      for (std::size_t i : node_idx) {
        ++counts_total[static_cast<std::size_t>(yc[i])];
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
        params.max_depth == 0 || item.depth < params.max_depth;
    std::int32_t best_feature = -1;
    double best_threshold = 0.0;
    double best_score = -1.0;
    if (depth_ok && m >= params.min_samples_split && node_impurity > 1e-12) {
      for (std::size_t f = 0; f < features_per_split; ++f) {
        const std::size_t j =
            f + static_cast<std::size_t>(rng.uniform_int(n_features - f));
        std::swap(feature_pool[f], feature_pool[j]);
      }
      for (std::size_t fi = 0; fi < features_per_split; ++fi) {
        const std::size_t feature = feature_pool[fi];
        sorted.assign(node_idx.begin(), node_idx.end());
        std::sort(sorted.begin(), sorted.end(),
                  [&](std::size_t a, std::size_t b) {
                    return x(a, feature) < x(b, feature);
                  });
        if (x(sorted.front(), feature) == x(sorted.back(), feature)) continue;
        std::fill(counts_left.begin(), counts_left.end(), std::size_t{0});
        double sum_left = 0.0;
        std::size_t n_left = 0;
        for (std::size_t pos = 1; pos < m; ++pos) {
          if (classify) {
            ++counts_left[static_cast<std::size_t>(yc[sorted[pos - 1]])];
          } else {
            sum_left += yr[sorted[pos - 1]];
          }
          ++n_left;
          if (x(sorted[pos - 1], feature) == x(sorted[pos], feature)) continue;
          if (n_left < params.min_samples_leaf ||
              m - n_left < params.min_samples_leaf) {
            continue;
          }
          double score;
          if (classify) {
            double acc = 0.0;
            const double inv = 1.0 / static_cast<double>(m - n_left);
            for (std::size_t c = 0; c < n_classes; ++c) {
              const double p =
                  static_cast<double>(counts_total[c] - counts_left[c]) * inv;
              acc += p * p;
            }
            const double gini_right = 1.0 - acc;
            const double gini_left = gini_impurity(counts_left, n_left);
            const double frac_left =
                static_cast<double>(n_left) / static_cast<double>(m);
            const double child_impurity =
                frac_left * gini_left + (1.0 - frac_left) * gini_right;
            score = node_impurity - child_impurity;
          } else {
            const double sum_right = sum - sum_left;
            const double nl = static_cast<double>(n_left);
            const double nr = static_cast<double>(m - n_left);
            const double score_raw =
                sum_left * sum_left / nl + sum_right * sum_right / nr;
            score = (score_raw - sum * sum / static_cast<double>(m)) /
                    static_cast<double>(m);
          }
          if (score > best_score) {
            best_score = score;
            best_feature = static_cast<std::int32_t>(feature);
            best_threshold =
                0.5 * (x(sorted[pos - 1], feature) + x(sorted[pos], feature));
          }
        }
      }
    }

    if (best_feature < 0 || best_score <= 1e-15) {
      out.nodes[item.node].feature = -1;
      out.nodes[item.node].value = leaf_value;
      continue;
    }
    const auto mid_it = std::partition(
        idx.begin() + static_cast<std::ptrdiff_t>(item.begin),
        idx.begin() + static_cast<std::ptrdiff_t>(item.end),
        [&](std::size_t i) {
          return x(i, static_cast<std::size_t>(best_feature)) <=
                 best_threshold;
        });
    const auto mid = static_cast<std::size_t>(mid_it - idx.begin());
    if (mid == item.begin || mid == item.end) {
      out.nodes[item.node].feature = -1;
      out.nodes[item.node].value = leaf_value;
      continue;
    }
    const auto left_id = static_cast<std::uint32_t>(out.nodes.size());
    out.nodes.push_back(Node{});
    const auto right_id = static_cast<std::uint32_t>(out.nodes.size());
    out.nodes.push_back(Node{});
    out.nodes[item.node].feature = best_feature;
    out.nodes[item.node].threshold = best_threshold;
    out.nodes[item.node].left = left_id;
    out.nodes[item.node].right = right_id;
    stack.push_back(Item{left_id, item.begin, mid, item.depth + 1});
    stack.push_back(Item{right_id, mid, item.end, item.depth + 1});
  }
  return out;
}

// Node for node: feature, children, and the bits of threshold and value.
// Adds the tree's split count to `splits`.
void expect_same_tree(const DecisionTree& tree, const Reference& want,
                      const std::string& where, std::size_t& splits) {
  ASSERT_TRUE(tree.is_fitted()) << where;
  const std::span<const Node> got = tree.nodes();
  splits += got.size() / 2;
  ASSERT_EQ(got.size(), want.nodes.size()) << where;
  EXPECT_EQ(tree.depth(), want.depth) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Node& a = got[i];
    const Node& b = want.nodes[i];
    ASSERT_EQ(a.feature, b.feature) << where << " node " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.threshold),
              std::bit_cast<std::uint64_t>(b.threshold))
        << where << " node " << i;
    ASSERT_EQ(a.left, b.left) << where << " node " << i;
    ASSERT_EQ(a.right, b.right) << where << " node " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.value),
              std::bit_cast<std::uint64_t>(b.value))
        << where << " node " << i;
  }
}

constexpr std::size_t kRows = 150;
constexpr std::size_t kFeatures = 9;  // Column 4 is constant.
constexpr std::size_t kConstantColumn = 4;

// Features on a grid of step 0.25 (ties everywhere), one constant column,
// labels and targets that depend on the first features plus noise.
struct Data {
  common::Matrix x;
  std::vector<int> labels;
  std::vector<double> targets;
};

Data make_data(std::size_t n_classes, std::uint64_t seed) {
  common::Rng rng(seed);
  Data d{common::Matrix(kRows, kFeatures), std::vector<int>(kRows),
         std::vector<double>(kRows)};
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < kFeatures; ++c) {
      d.x(r, c) = c == kConstantColumn
                      ? 1.5
                      : std::round(rng.gaussian(0.0, 1.5) * 4.0) / 4.0;
    }
    const double z = d.x(r, 0) + 0.7 * d.x(r, 1) - 0.4 * d.x(r, 2) +
                     rng.gaussian(0.0, 0.8);
    const double bucket =
        std::floor((z + 4.0) * static_cast<double>(n_classes) / 8.0);
    d.labels[r] = static_cast<int>(
        std::clamp(bucket, 0.0, static_cast<double>(n_classes - 1)));
    d.targets[r] = std::sin(d.x(r, 0)) + 0.3 * d.x(r, 3) * d.x(r, 1) +
                   rng.gaussian(0.0, 0.1);
  }
  return d;
}

// kRows draws from the first `pool` rows: a small pool repeats each row
// many times.
std::vector<std::size_t> draws_from(std::size_t pool, common::Rng& rng) {
  std::vector<std::size_t> out(kRows);
  for (auto& v : out) v = static_cast<std::size_t>(rng.uniform_int(pool));
  return out;
}

TEST(TreeIdentity, StandaloneTreesMatchTheIndexSortReference) {
  const std::size_t sqrt_f = static_cast<std::size_t>(
      std::sqrt(static_cast<double>(kFeatures)));
  std::size_t trees = 0;
  std::size_t splits = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const std::size_t n_classes : {2u, 7u}) {
      const Data d = make_data(n_classes, 1000 + seed);
      common::Rng sampler(seed);
      // All rows, a bootstrap draw, and a draw full of duplicates.
      const std::vector<std::vector<std::size_t>> samples{
          {}, draws_from(kRows, sampler), draws_from(kRows / 6, sampler)};
      for (const std::size_t max_features :
           {std::size_t{1}, sqrt_f, kFeatures}) {
        for (const std::size_t min_leaf : {1u, 5u}) {
          for (const std::size_t max_depth : {0u, 4u}) {
            TreeParams params;
            params.max_features = max_features;
            params.min_samples_leaf = min_leaf;
            params.max_depth = max_depth;
            for (std::size_t s = 0; s < samples.size(); ++s) {
              const std::string where =
                  "seed " + std::to_string(seed) + " classes " +
                  std::to_string(n_classes) + " max_features " +
                  std::to_string(max_features) + " min_leaf " +
                  std::to_string(min_leaf) + " max_depth " +
                  std::to_string(max_depth) + " sample " + std::to_string(s);
              const std::uint64_t rng_seed = seed * 7919 + s;
              {
                common::Rng ra(rng_seed), rb(rng_seed);
                DecisionTree tree(params);
                tree.fit_classifier(d.x, d.labels, n_classes, ra, samples[s]);
                expect_same_tree(tree,
                                 reference_fit(d.x, d.labels, {}, n_classes,
                                               params, rb, samples[s]),
                                 "classifier " + where, splits);
                EXPECT_EQ(ra(), rb()) << where;  // Same draws consumed.
              }
              if (n_classes == 2) {  // The regressor ignores the class count.
                common::Rng ra(rng_seed), rb(rng_seed);
                DecisionTree tree(params);
                tree.fit_regressor(d.x, d.targets, ra, samples[s]);
                expect_same_tree(tree,
                                 reference_fit(d.x, {}, d.targets, 0, params,
                                               rb, samples[s]),
                                 "regressor " + where, splits);
                EXPECT_EQ(ra(), rb()) << where;
              }
              trees += n_classes == 2 ? 2 : 1;
              if (HasFatalFailure()) return;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(trees, 20u * 3 * 2 * 2 * 3 * 3);
  EXPECT_GT(splits, 10 * trees);  // Deep enough to compare (about 18).
}

// Replays a forest's per-tree streams: the root seed forks one stream per
// tree, in order, and each tree draws its bootstrap sample (kRows draws
// from all kRows rows) from its stream before fitting with it.
std::vector<common::Rng> replay_streams(std::uint64_t seed, std::size_t n) {
  common::Rng root(seed);
  std::vector<common::Rng> streams;
  for (std::size_t i = 0; i < n; ++i) streams.push_back(root.fork());
  return streams;
}

TEST(TreeIdentity, ForestTreesMatchTheReplayedReference) {
  std::size_t splits = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const std::size_t n_classes : {2u, 7u}) {
      const Data d = make_data(n_classes, 2000 + seed);
      ForestParams params;
      params.n_estimators = 8;
      params.seed = seed;
      params.tree.min_samples_leaf = seed % 2 ? 1 : 5;
      params.tree.max_depth = seed % 3 ? 0 : 4;

      RandomForestClassifier forest(params);
      forest.fit(d.x, d.labels);
      ASSERT_EQ(forest.n_classes(), n_classes);
      TreeParams tree_params = params.tree;
      tree_params.max_features = resolve_max_features(params, kFeatures, true);
      std::vector<common::Rng> streams =
          replay_streams(params.seed, params.n_estimators);
      for (std::size_t t = 0; t < params.n_estimators; ++t) {
        const std::vector<std::size_t> sample = draws_from(kRows, streams[t]);
        expect_same_tree(forest.trees()[t],
                         reference_fit(d.x, d.labels, {}, n_classes,
                                       tree_params, streams[t], sample),
                         "forest classifier seed " + std::to_string(seed) +
                             " tree " + std::to_string(t),
                         splits);
        if (HasFatalFailure()) return;
      }

      if (n_classes != 2) continue;
      RandomForestRegressor regressor(params);
      regressor.fit(d.x, d.targets);
      tree_params.max_features = resolve_max_features(params, kFeatures, false);
      streams = replay_streams(params.seed, params.n_estimators);
      for (std::size_t t = 0; t < params.n_estimators; ++t) {
        const std::vector<std::size_t> sample = draws_from(kRows, streams[t]);
        expect_same_tree(regressor.trees()[t],
                         reference_fit(d.x, {}, d.targets, 0, tree_params,
                                       streams[t], sample),
                         "forest regressor seed " + std::to_string(seed) +
                             " tree " + std::to_string(t),
                         splits);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(splits, 10u * 8 * 3 * 20);  // 480 trees, about 30 splits each.
}

}  // namespace
}  // namespace csm::ml
