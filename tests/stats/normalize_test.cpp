#include "stats/normalize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace csm::stats {
namespace {

TEST(MinMaxBounds, NormalizesIntoUnitInterval) {
  MinMaxBounds b{10.0, 20.0};
  EXPECT_DOUBLE_EQ(b.normalize(10.0), 0.0);
  EXPECT_DOUBLE_EQ(b.normalize(20.0), 1.0);
  EXPECT_DOUBLE_EQ(b.normalize(15.0), 0.5);
}

TEST(MinMaxBounds, ClampsOutOfRangeValues) {
  MinMaxBounds b{0.0, 1.0};
  EXPECT_DOUBLE_EQ(b.normalize(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(b.normalize(7.0), 1.0);
}

TEST(MinMaxBounds, DegenerateRangeMapsToZero) {
  MinMaxBounds b{3.0, 3.0};
  EXPECT_DOUBLE_EQ(b.normalize(3.0), 0.0);
  EXPECT_DOUBLE_EQ(b.normalize(100.0), 0.0);
}

TEST(MinMaxBounds, DenormalizeInverts) {
  MinMaxBounds b{-4.0, 6.0};
  EXPECT_DOUBLE_EQ(b.denormalize(b.normalize(1.0)), 1.0);
  EXPECT_DOUBLE_EQ(b.denormalize(0.0), -4.0);
  EXPECT_DOUBLE_EQ(b.denormalize(1.0), 6.0);
}

TEST(RowBounds, ComputesPerRowExtrema) {
  common::Matrix m{{1, 5, 3}, {-2, 0, 2}};
  const auto bounds = row_bounds(m);
  ASSERT_EQ(bounds.size(), 2u);
  EXPECT_DOUBLE_EQ(bounds[0].lo, 1.0);
  EXPECT_DOUBLE_EQ(bounds[0].hi, 5.0);
  EXPECT_DOUBLE_EQ(bounds[1].lo, -2.0);
  EXPECT_DOUBLE_EQ(bounds[1].hi, 2.0);
}

TEST(RowBounds, SkipsALeadingNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  common::Matrix m{{nan, nan, 4, -1, 2}, {nan, 3, nan, 7, nan}};
  const auto bounds = row_bounds(m);
  ASSERT_EQ(bounds.size(), 2u);
  EXPECT_EQ(bounds[0], (MinMaxBounds{-1.0, 4.0}));
  EXPECT_EQ(bounds[1], (MinMaxBounds{3.0, 7.0}));
}

TEST(RowBounds, AllNaNRowKeepsNaNBounds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  common::Matrix m{{1, 2}, {nan, nan}};
  const auto bounds = row_bounds(m);
  ASSERT_EQ(bounds.size(), 2u);
  EXPECT_EQ(bounds[0], (MinMaxBounds{1.0, 2.0}));
  EXPECT_TRUE(std::isnan(bounds[1].lo));
  EXPECT_TRUE(std::isnan(bounds[1].hi));
}

TEST(NormalizeRows, MapsEachRowThroughItsBounds) {
  common::Matrix m{{0, 5, 10}, {100, 150, 200}};
  const auto bounds = row_bounds(m);
  const common::Matrix n = normalize_rows(m, bounds);
  EXPECT_DOUBLE_EQ(n(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(n(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(n(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(n(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(n(1, 2), 1.0);
}

TEST(NormalizeRows, ForeignBoundsClamp) {
  common::Matrix m{{-10, 0, 10}};
  const std::vector<MinMaxBounds> bounds{{0.0, 5.0}};
  const common::Matrix n = normalize_rows(m, bounds);
  EXPECT_DOUBLE_EQ(n(0, 0), 0.0);  // Clamped from below.
  EXPECT_DOUBLE_EQ(n(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(n(0, 2), 1.0);  // Clamped from above.
}

TEST(NormalizeRows, BoundsCountMismatchThrows) {
  common::Matrix m(2, 3);
  const std::vector<MinMaxBounds> bounds{{0.0, 1.0}};
  EXPECT_THROW(normalize_rows(m, bounds), std::invalid_argument);
}

TEST(NormalizeRows, InplaceMatchesCopy) {
  common::Matrix m{{3, 1, 2}};
  const auto bounds = row_bounds(m);
  const common::Matrix copy = normalize_rows(m, bounds);
  normalize_rows_inplace(m, bounds);
  EXPECT_EQ(m, copy);
}

}  // namespace
}  // namespace csm::stats
