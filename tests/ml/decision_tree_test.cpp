#include "ml/decision_tree.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace csm::ml {
namespace {

// Linearly separable 2-D blobs.
void make_blobs(common::Matrix& x, std::vector<int>& y, std::size_t per_class,
                std::uint64_t seed) {
  common::Rng rng(seed);
  x = common::Matrix(2 * per_class, 2);
  y.assign(2 * per_class, 0);
  for (std::size_t i = 0; i < per_class; ++i) {
    x(i, 0) = rng.gaussian(-2.0, 0.5);
    x(i, 1) = rng.gaussian(-2.0, 0.5);
    y[i] = 0;
    x(per_class + i, 0) = rng.gaussian(2.0, 0.5);
    x(per_class + i, 1) = rng.gaussian(2.0, 0.5);
    y[per_class + i] = 1;
  }
}

TEST(GiniImpurity, KnownValues) {
  const std::vector<std::size_t> pure{10, 0};
  EXPECT_DOUBLE_EQ(gini_impurity(pure, 10), 0.0);
  const std::vector<std::size_t> even{5, 5};
  EXPECT_DOUBLE_EQ(gini_impurity(even, 10), 0.5);
  const std::vector<std::size_t> three_even{4, 4, 4};
  EXPECT_NEAR(gini_impurity(three_even, 12), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(gini_impurity(pure, 0), 0.0);
}

TEST(DecisionTree, SeparatesBlobsPerfectly) {
  common::Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 50, 1);
  DecisionTree tree;
  common::Rng rng(2);
  tree.fit_classifier(x, y, 2, rng);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(tree.predict_class(x.row(i)), y[i]);
  }
}

TEST(DecisionTree, PureNodeIsSingleLeaf) {
  common::Matrix x{{1.0}, {2.0}, {3.0}};
  const std::vector<int> y{1, 1, 1};
  DecisionTree tree;
  common::Rng rng(3);
  tree.fit_classifier(x, y, 2, rng);
  EXPECT_EQ(tree.n_nodes(), 1u);
  EXPECT_EQ(tree.depth(), 0u);
  const std::vector<double> probe{99.0};
  EXPECT_EQ(tree.predict_class(probe), 1);
}

TEST(DecisionTree, MaxDepthLimitsGrowth) {
  common::Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 100, 4);
  // Make the problem non-trivial: XOR-ish labels need depth >= 2.
  for (std::size_t i = 0; i < x.rows(); ++i) {
    y[i] = (x(i, 0) > 0.0) != (x(i, 1) > 0.0) ? 1 : 0;
  }
  TreeParams params;
  params.max_depth = 1;
  DecisionTree stump(params);
  common::Rng rng(5);
  stump.fit_classifier(x, y, 2, rng);
  EXPECT_LE(stump.depth(), 1u);
  EXPECT_LE(stump.n_nodes(), 3u);
}

TEST(DecisionTree, MinSamplesLeafRespected) {
  common::Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 30, 6);
  TreeParams params;
  params.min_samples_leaf = 10;
  DecisionTree tree(params);
  common::Rng rng(7);
  tree.fit_classifier(x, y, 2, rng);
  // With 60 samples and min leaf 10 there can be at most 6 leaves ->
  // at most 11 nodes.
  EXPECT_LE(tree.n_nodes(), 11u);
}

TEST(DecisionTree, BootstrapSampleIndicesUsed) {
  common::Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 20, 8);
  // Train only on class-0 samples: every prediction must be class 0.
  std::vector<std::size_t> only_class0(20);
  for (std::size_t i = 0; i < 20; ++i) only_class0[i] = i;
  DecisionTree tree;
  common::Rng rng(9);
  tree.fit_classifier(x, y, 2, rng, only_class0);
  const std::vector<double> class1_point{2.0, 2.0};
  EXPECT_EQ(tree.predict_class(class1_point), 0);
}

TEST(DecisionTree, RegressionFitsStepFunction) {
  common::Matrix x(100, 1);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = i < 50 ? 1.0 : 5.0;
  }
  DecisionTree tree;
  common::Rng rng(10);
  tree.fit_regressor(x, y, rng);
  const std::vector<double> low{10.0};
  const std::vector<double> high{90.0};
  EXPECT_NEAR(tree.predict_value(low), 1.0, 1e-9);
  EXPECT_NEAR(tree.predict_value(high), 5.0, 1e-9);
}

TEST(DecisionTree, RegressionReducesToMeanForConstantFeatures) {
  common::Matrix x(4, 1, 1.0);  // All features identical: no split possible.
  const std::vector<double> y{1.0, 2.0, 3.0, 4.0};
  DecisionTree tree;
  common::Rng rng(11);
  tree.fit_regressor(x, y, rng);
  EXPECT_EQ(tree.n_nodes(), 1u);
  const std::vector<double> probe{1.0};
  EXPECT_DOUBLE_EQ(tree.predict_value(probe), 2.5);
}

TEST(DecisionTree, WrongPredictKindThrows) {
  common::Matrix x{{0.0}, {1.0}};
  const std::vector<int> yc{0, 1};
  DecisionTree ct;
  common::Rng rng(12);
  ct.fit_classifier(x, yc, 2, rng);
  const std::vector<double> probe{0.5};
  EXPECT_THROW(ct.predict_value(probe), std::logic_error);

  const std::vector<double> yr{0.0, 1.0};
  DecisionTree rt;
  rt.fit_regressor(x, yr, rng);
  EXPECT_THROW(rt.predict_class(probe), std::logic_error);
}

TEST(DecisionTree, UnfittedPredictThrows) {
  DecisionTree tree;
  const std::vector<double> probe{1.0};
  EXPECT_THROW(tree.predict_class(probe), std::logic_error);
}

TEST(DecisionTree, InputValidation) {
  DecisionTree tree;
  common::Rng rng(13);
  common::Matrix x{{1.0}, {2.0}};
  const std::vector<int> short_y{0};
  EXPECT_THROW(tree.fit_classifier(x, short_y, 2, rng),
               std::invalid_argument);
  const std::vector<int> y{0, 1};
  EXPECT_THROW(tree.fit_classifier(x, y, 0, rng), std::invalid_argument);
  const std::vector<std::size_t> bad_idx{5};
  EXPECT_THROW(tree.fit_classifier(x, y, 2, rng, bad_idx),
               std::out_of_range);
  EXPECT_THROW(tree.fit_classifier(common::Matrix(), {}, 2, rng),
               std::invalid_argument);
}

// Runs `fit` and expects std::invalid_argument whose message holds `what`.
template <typename Fit>
void expect_rejected(const Fit& fit, const std::string& what) {
  try {
    fit();
    ADD_FAILURE() << "no exception; expected one naming \"" << what << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(DecisionTree, RejectsNonFiniteFeaturesNamingRowAndColumn) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    common::Matrix x{{0.0, 1.0}, {1.0, 2.0}, {2.0, 3.0}, {3.0, 4.0}};
    x(2, 1) = bad;
    const std::vector<int> yc{0, 0, 1, 1};
    const std::vector<double> yr{0.0, 0.5, 1.0, 1.5};
    common::Rng rng(18);
    DecisionTree tree;
    expect_rejected([&] { tree.fit_classifier(x, yc, 2, rng); },
                    "row 2, column 1");
    expect_rejected([&] { tree.fit_regressor(x, yr, rng); },
                    "row 2, column 1");
    EXPECT_FALSE(tree.is_fitted());
    // Only the sampled rows are checked.
    const std::vector<std::size_t> sample{0, 3, 3, 1};
    tree.fit_classifier(x, yc, 2, rng, sample);
    EXPECT_TRUE(tree.is_fitted());
    tree.fit_regressor(x, yr, rng, sample);
    EXPECT_TRUE(tree.is_fitted());
  }
}

TEST(DecisionTree, ShortFeatureVectorAtPredictThrows) {
  common::Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 30, 14);
  DecisionTree tree;
  common::Rng rng(15);
  tree.fit_classifier(x, y, 2, rng);
  const std::vector<double> too_short{};
  EXPECT_THROW(tree.predict_class(too_short), std::out_of_range);
}

TEST(DecisionTree, DeterministicGivenSameRngSeed) {
  common::Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 40, 16);
  DecisionTree a, b;
  common::Rng ra(17), rb(17);
  TreeParams params;
  params.max_features = 1;  // Force feature sampling to matter.
  a = DecisionTree(params);
  b = DecisionTree(params);
  a.fit_classifier(x, y, 2, ra);
  b.fit_classifier(x, y, 2, rb);
  EXPECT_EQ(a.n_nodes(), b.n_nodes());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(a.predict_class(x.row(i)), b.predict_class(x.row(i)));
  }
}

}  // namespace
}  // namespace csm::ml
