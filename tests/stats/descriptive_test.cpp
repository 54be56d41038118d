#include "stats/descriptive.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace csm::stats {
namespace {

const std::vector<double> kSimple{1.0, 2.0, 3.0, 4.0, 5.0};

TEST(Descriptive, MeanOfKnownValues) {
  EXPECT_DOUBLE_EQ(mean(kSimple), 3.0);
}

TEST(Descriptive, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Descriptive, VarianceIsPopulationVariance) {
  EXPECT_DOUBLE_EQ(variance(kSimple), 2.0);
}

TEST(Descriptive, VarianceOfConstantIsZero) {
  const std::vector<double> c{4.0, 4.0, 4.0};
  EXPECT_DOUBLE_EQ(variance(c), 0.0);
}

TEST(Descriptive, VarianceOfSingletonIsZero) {
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{5.0}), 0.0);
}

TEST(Descriptive, StddevIsSqrtVariance) {
  EXPECT_DOUBLE_EQ(stddev(kSimple), std::sqrt(2.0));
}

TEST(Descriptive, CovarianceOfSelfIsVariance) {
  EXPECT_DOUBLE_EQ(covariance(kSimple, kSimple), variance(kSimple));
}

TEST(Descriptive, CovarianceOfAnticorrelatedIsNegative) {
  const std::vector<double> up{1, 2, 3};
  const std::vector<double> down{3, 2, 1};
  EXPECT_LT(covariance(up, down), 0.0);
}

TEST(Descriptive, CovarianceLengthMismatchThrows) {
  const std::vector<double> a{1, 2};
  const std::vector<double> b{1, 2, 3};
  EXPECT_THROW(covariance(a, b), std::invalid_argument);
}

TEST(Descriptive, MinMax) {
  EXPECT_DOUBLE_EQ(min(kSimple), 1.0);
  EXPECT_DOUBLE_EQ(max(kSimple), 5.0);
  EXPECT_THROW(min(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(max(std::vector<double>{}), std::invalid_argument);
}

TEST(Descriptive, PercentileEndpoints) {
  EXPECT_DOUBLE_EQ(percentile(kSimple, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(kSimple, 100.0), 5.0);
}

TEST(Descriptive, PercentileMedian) {
  EXPECT_DOUBLE_EQ(percentile(kSimple, 50.0), 3.0);
  const std::vector<double> even{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(even, 50.0), 2.5);
}

TEST(Descriptive, PercentileLinearInterpolation) {
  // numpy.percentile([1..5], 25) == 2.0; ([1..4], 25) == 1.75.
  EXPECT_DOUBLE_EQ(percentile(kSimple, 25.0), 2.0);
  const std::vector<double> four{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(four, 25.0), 1.75);
}

TEST(Descriptive, PercentileUnsortedInput) {
  const std::vector<double> shuffled{5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(shuffled, 50.0), 3.0);
}

TEST(Descriptive, PercentileValidation) {
  EXPECT_THROW(percentile(std::vector<double>{}, 50.0),
               std::invalid_argument);
  EXPECT_THROW(percentile(kSimple, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile(kSimple, 101.0), std::invalid_argument);
}

TEST(Descriptive, NanAnywhereGivesNanExtremaAndPercentiles) {
  // A NaN has no rank: wherever it sits, the extrema and every percentile
  // are NaN, and the percentile sort never sees it.
  const std::vector<double> qs{0.0, 5.0, 50.0, 95.0, 100.0};
  for (std::size_t at = 0; at < kSimple.size(); ++at) {
    std::vector<double> x = kSimple;
    x[at] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(std::isnan(min(x))) << "NaN at " << at;
    EXPECT_TRUE(std::isnan(max(x))) << "NaN at " << at;
    EXPECT_TRUE(std::isnan(percentile(x, 50.0))) << "NaN at " << at;
    for (double p : percentiles(x, qs)) {
      EXPECT_TRUE(std::isnan(p)) << "NaN at " << at;
    }
    EXPECT_THROW(percentiles(x, std::vector<double>{101.0}),
                 std::invalid_argument);
  }
}

TEST(Descriptive, ExtremaKeepTheFirstOfEqualElements) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(min(std::vector<double>{-0.0, 0.0, 1.0})), bits(-0.0));
  EXPECT_EQ(bits(min(std::vector<double>{0.0, -0.0, 1.0})), bits(0.0));
  EXPECT_EQ(bits(max(std::vector<double>{-1.0, 0.0, -0.0})), bits(0.0));
  EXPECT_EQ(bits(max(std::vector<double>{-1.0, -0.0, 0.0})), bits(-0.0));
}

TEST(Descriptive, PercentilesBatchMatchesSingle) {
  const std::vector<double> qs{5.0, 25.0, 50.0, 75.0, 95.0};
  const std::vector<double> batch = percentiles(kSimple, qs);
  ASSERT_EQ(batch.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], percentile(kSimple, qs[i]));
  }
}

TEST(Descriptive, SumOfChangesTelescopes) {
  const std::vector<double> x{2.0, 7.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(sum_of_changes(x), 7.0);  // 9 - 2.
}

TEST(Descriptive, AbsSumOfChanges) {
  const std::vector<double> x{2.0, 7.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(abs_sum_of_changes(x), 5.0 + 6.0 + 8.0);
}

TEST(Descriptive, ChangesOfShortSeriesAreZero) {
  EXPECT_DOUBLE_EQ(sum_of_changes(std::vector<double>{1.0}), 0.0);
  EXPECT_DOUBLE_EQ(abs_sum_of_changes(std::vector<double>{1.0}), 0.0);
}

}  // namespace
}  // namespace csm::stats
