#include "ml/random_forest.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ml/metrics.hpp"

namespace csm::ml {
namespace {

void make_blobs(common::Matrix& x, std::vector<int>& y, std::size_t per_class,
                std::size_t n_classes, std::uint64_t seed) {
  common::Rng rng(seed);
  x = common::Matrix(per_class * n_classes, 3);
  y.assign(per_class * n_classes, 0);
  for (std::size_t c = 0; c < n_classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      const std::size_t row = c * per_class + i;
      x(row, 0) = rng.gaussian(3.0 * static_cast<double>(c), 0.6);
      x(row, 1) = rng.gaussian(-2.0 * static_cast<double>(c), 0.6);
      x(row, 2) = rng.gaussian();  // Pure noise feature.
      y[row] = static_cast<int>(c);
    }
  }
}

TEST(ResolveMaxFeatures, Modes) {
  ForestParams p;
  EXPECT_EQ(resolve_max_features(p, 100, true), 10u);    // sqrt default.
  EXPECT_EQ(resolve_max_features(p, 100, false), 100u);  // all default.
  p.feature_mode = MaxFeaturesMode::kSqrt;
  EXPECT_EQ(resolve_max_features(p, 100, false), 10u);
  p.feature_mode = MaxFeaturesMode::kThird;
  EXPECT_EQ(resolve_max_features(p, 99, false), 33u);
  p.feature_mode = MaxFeaturesMode::kAll;
  EXPECT_EQ(resolve_max_features(p, 7, true), 7u);
  p.tree.max_features = 5;  // Explicit override wins.
  EXPECT_EQ(resolve_max_features(p, 100, true), 5u);
  EXPECT_EQ(resolve_max_features(p, 3, true), 3u);  // Capped at n.
}

TEST(RandomForestClassifier, LearnsMultiClassBlobs) {
  common::Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 60, 3, 21);
  ForestParams params;
  params.n_estimators = 20;
  RandomForestClassifier forest(params);
  forest.fit(x, y);
  EXPECT_EQ(forest.n_classes(), 3u);
  const std::vector<int> pred = forest.predict(x);
  EXPECT_GT(macro_f1(y, pred), 0.97);
}

TEST(RandomForestClassifier, GeneralizesToHeldOut) {
  common::Matrix x_train, x_test;
  std::vector<int> y_train, y_test;
  make_blobs(x_train, y_train, 80, 2, 22);
  make_blobs(x_test, y_test, 40, 2, 23);  // Fresh draw, same distribution.
  RandomForestClassifier forest;
  forest.fit(x_train, y_train);
  EXPECT_GT(macro_f1(y_test, forest.predict(x_test)), 0.95);
}

TEST(RandomForestClassifier, DeterministicForSeed) {
  common::Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 40, 2, 24);
  ForestParams params;
  params.seed = 777;
  RandomForestClassifier a(params), b(params);
  a.fit(x, y);
  b.fit(x, y);
  EXPECT_EQ(a.predict(x), b.predict(x));
}

TEST(RandomForestClassifier, Validation) {
  ForestParams zero;
  zero.n_estimators = 0;
  EXPECT_THROW(RandomForestClassifier{zero}, std::invalid_argument);

  RandomForestClassifier forest;
  EXPECT_THROW(forest.fit(common::Matrix(), {}), std::invalid_argument);
  common::Matrix x{{1.0}, {2.0}};
  const std::vector<int> bad{0};
  EXPECT_THROW(forest.fit(x, bad), std::invalid_argument);
  const std::vector<int> negative{0, -2};
  EXPECT_THROW(forest.fit(x, negative), std::invalid_argument);
  const std::vector<double> probe{1.0};
  EXPECT_THROW(forest.predict_one(probe), std::logic_error);
}

TEST(RandomForestRegressor, FitsSmoothFunction) {
  common::Rng rng(25);
  common::Matrix x(300, 1);
  std::vector<double> y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    x(i, 0) = rng.uniform(0.0, 10.0);
    y[i] = std::sin(x(i, 0)) + 0.05 * rng.gaussian();
  }
  RandomForestRegressor forest;
  forest.fit(x, y);
  double max_err = 0.0;
  for (double probe = 0.5; probe < 9.5; probe += 0.5) {
    const std::vector<double> p{probe};
    max_err = std::max(max_err,
                       std::abs(forest.predict_one(p) - std::sin(probe)));
  }
  EXPECT_LT(max_err, 0.35);
}

TEST(RandomForestRegressor, PredictionWithinTargetRange) {
  common::Rng rng(26);
  common::Matrix x(100, 2);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y[i] = 3.0 * x(i, 0) + 1.0;
  }
  RandomForestRegressor forest;
  forest.fit(x, y);
  // Forest predictions are averages of training targets, so they can never
  // leave the training range.
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> probe{rng.uniform(-1.0, 2.0),
                                    rng.uniform(-1.0, 2.0)};
    const double pred = forest.predict_one(probe);
    EXPECT_GE(pred, 1.0 - 1e-9);
    EXPECT_LE(pred, 4.0 + 1e-9);
  }
}

TEST(RandomForestRegressor, Validation) {
  RandomForestRegressor forest;
  EXPECT_THROW(forest.fit(common::Matrix(), {}), std::invalid_argument);
  const std::vector<double> probe{1.0};
  EXPECT_THROW(forest.predict_one(probe), std::logic_error);
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

constexpr double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity()};

TEST(RandomForestClassifier, RejectsNonFiniteFeaturesBeforeAnyTreeIsBuilt) {
  common::Matrix clean;
  std::vector<int> y;
  make_blobs(clean, y, 20, 2, 30);
  ForestParams params;
  params.n_estimators = 5;
  for (const double bad : kNonFinite) {
    common::Matrix x = clean;
    x(17, 2) = bad;
    RandomForestClassifier fresh(params);
    expect_rejected([&] { fresh.fit(x, y); }, "row 17, column 2");
    EXPECT_TRUE(fresh.trees().empty());

    // A rejected refit leaves the forest fitted before it as it was.
    RandomForestClassifier fitted(params);
    fitted.fit(clean, y);
    const std::vector<int> before = fitted.predict(clean);
    expect_rejected([&] { fitted.fit(x, y); }, "row 17, column 2");
    EXPECT_EQ(fitted.trees().size(), params.n_estimators);
    EXPECT_EQ(fitted.n_classes(), 2u);
    EXPECT_EQ(fitted.predict(clean), before);
  }
}

TEST(RandomForestRegressor, RejectsNonFiniteFeaturesBeforeAnyTreeIsBuilt) {
  common::Matrix clean;
  std::vector<int> labels;
  make_blobs(clean, labels, 20, 2, 30);
  const std::vector<double> y(labels.begin(), labels.end());
  ForestParams params;
  params.n_estimators = 5;
  for (const double bad : kNonFinite) {
    common::Matrix x = clean;
    x(17, 2) = bad;
    RandomForestRegressor fresh(params);
    expect_rejected([&] { fresh.fit(x, y); }, "row 17, column 2");
    EXPECT_TRUE(fresh.trees().empty());

    // A rejected refit leaves the forest fitted before it as it was.
    RandomForestRegressor fitted(params);
    fitted.fit(clean, y);
    const std::vector<double> before = fitted.predict(clean);
    expect_rejected([&] { fitted.fit(x, y); }, "row 17, column 2");
    EXPECT_EQ(fitted.trees().size(), params.n_estimators);
    EXPECT_EQ(fitted.predict(clean), before);
  }
}

TEST(RandomForestClassifier, MoreTreesMoreStable) {
  // Ensemble sanity: a 50-tree forest must do at least as well as a
  // 1-tree forest on noisy held-out data (allowing small slack).
  common::Matrix x_train, x_test;
  std::vector<int> y_train, y_test;
  make_blobs(x_train, y_train, 30, 2, 27);
  make_blobs(x_test, y_test, 50, 2, 28);
  // Inject label noise into training.
  common::Rng rng(29);
  for (auto& label : y_train) {
    if (rng.uniform() < 0.15) label = 1 - label;
  }
  ForestParams one;
  one.n_estimators = 1;
  RandomForestClassifier small(one);
  small.fit(x_train, y_train);
  RandomForestClassifier big;  // 50 trees.
  big.fit(x_train, y_train);
  const double f1_small = macro_f1(y_test, small.predict(x_test));
  const double f1_big = macro_f1(y_test, big.predict(x_test));
  EXPECT_GE(f1_big, f1_small - 0.02);
}

}  // namespace
}  // namespace csm::ml
