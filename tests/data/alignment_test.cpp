#include "data/alignment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/rng.hpp"

namespace csm::data {
namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

TimeSeries series(std::string name,
                  std::vector<std::pair<std::int64_t, double>> points) {
  TimeSeries s;
  s.name = std::move(name);
  for (auto [t, v] : points) s.samples.push_back({t, v});
  return s;
}

TEST(Align, AlreadyAlignedIsIdentity) {
  const std::vector<TimeSeries> in{
      series("a", {{0, 1.0}, {100, 2.0}, {200, 3.0}}),
      series("b", {{0, 4.0}, {100, 5.0}, {200, 6.0}})};
  const AlignedSensors out = align(in, 100);
  EXPECT_EQ(out.matrix.rows(), 2u);
  EXPECT_EQ(out.matrix.cols(), 3u);
  EXPECT_DOUBLE_EQ(out.matrix(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(out.matrix(1, 2), 6.0);
  EXPECT_EQ(out.names, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(out.start_timestamp, 0);
}

TEST(Align, InterpolatesBetweenSamples) {
  const std::vector<TimeSeries> in{series("a", {{0, 0.0}, {200, 2.0}})};
  const AlignedSensors out = align(in, 100);
  ASSERT_EQ(out.matrix.cols(), 3u);
  EXPECT_DOUBLE_EQ(out.matrix(0, 1), 1.0);
}

TEST(Align, UsesOverlapOfAllSeries) {
  const std::vector<TimeSeries> in{
      series("early", {{0, 1.0}, {300, 4.0}}),
      series("late", {{100, 10.0}, {400, 40.0}})};
  const AlignedSensors out = align(in, 100);
  EXPECT_EQ(out.start_timestamp, 100);
  EXPECT_EQ(out.matrix.cols(), 3u);  // 100, 200, 300.
}

TEST(Align, NegativeTimestampsKeepTheirGrid) {
  // A range that crosses zero: grid times are start + c * interval in
  // plain int64 terms, whatever the sign. Each value is t / 100.
  const std::vector<TimeSeries> in{
      series("a", {{-1000, -10.0}, {0, 0.0}, {500, 5.0}}),
      series("b", {{-1200, -12.0}, {800, 8.0}})};
  const AlignedSensors out = align(in, 300);
  EXPECT_EQ(out.start_timestamp, -1000);
  EXPECT_EQ(out.interval_ms, 300);
  ASSERT_EQ(out.matrix.cols(), 6u);  // -1000, -700, ..., 500.
  for (std::size_t c = 0; c < 6; ++c) {
    const double v = (-1000.0 + 300.0 * static_cast<double>(c)) / 100.0;
    EXPECT_DOUBLE_EQ(out.matrix(0, c), v) << c;
    EXPECT_DOUBLE_EQ(out.matrix(1, c), v) << c;
  }
}

TEST(Align, GridStopsAtTheLastPointInsideTheOverlap) {
  // The overlap [50, 970] holds 50, 250, ..., 850; 1050 would overshoot,
  // so a span that is no multiple of the interval loses its tail.
  const std::vector<TimeSeries> in{
      series("a", {{0, 0.0}, {1000, 1000.0}}),
      series("b", {{50, 50.0}, {970, 970.0}})};
  const AlignedSensors out = align(in, 200);
  EXPECT_EQ(out.start_timestamp, 50);
  ASSERT_EQ(out.matrix.cols(), 5u);
  EXPECT_DOUBLE_EQ(out.matrix(0, 4), 850.0);
  EXPECT_DOUBLE_EQ(out.matrix(1, 4), 850.0);
}

TEST(Align, SingleSharedTimestampGivesOneColumn) {
  // Ranges that touch at one instant overlap in exactly one grid column.
  const std::vector<TimeSeries> in{series("a", {{0, 0.0}, {100, 2.0}}),
                                   series("b", {{100, 10.0}, {200, 20.0}})};
  const AlignedSensors out = align(in, 1000);
  EXPECT_EQ(out.start_timestamp, 100);
  ASSERT_EQ(out.matrix.cols(), 1u);
  EXPECT_DOUBLE_EQ(out.matrix(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(out.matrix(1, 0), 10.0);
}

TEST(Align, MismatchedRatesResample) {
  const std::vector<TimeSeries> in{
      series("fast", {{0, 0.0}, {50, 0.5}, {100, 1.0}, {150, 1.5},
                      {200, 2.0}}),
      series("slow", {{0, 0.0}, {200, 20.0}})};
  const AlignedSensors out = align(in, 100);
  EXPECT_DOUBLE_EQ(out.matrix(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(out.matrix(1, 1), 10.0);
}

TEST(Align, Validation) {
  EXPECT_THROW(align({}, 100), std::invalid_argument);
  const std::vector<TimeSeries> empty_series{series("x", {})};
  EXPECT_THROW(align(empty_series, 100), std::invalid_argument);
  const std::vector<TimeSeries> one{series("a", {{0, 1.0}, {100, 2.0}})};
  EXPECT_THROW(align(one, 0), std::invalid_argument);
  const std::vector<TimeSeries> disjoint{
      series("a", {{0, 1.0}, {100, 2.0}}),
      series("b", {{500, 1.0}, {600, 2.0}})};
  EXPECT_THROW(align(disjoint, 100), std::invalid_argument);
}

TEST(Align, SpanBeyondInt64MaxStaysExact) {
  // hi - lo = 1.8e19 does not fit in int64_t. Each value is t / 1e18.
  const std::int64_t lo = -9'000'000'000'000'000'000;
  const std::int64_t hi = 9'000'000'000'000'000'000;
  const std::vector<TimeSeries> in{series("up", {{lo, -9.0}, {hi, 9.0}}),
                                   series("down", {{lo, 9.0}, {hi, -9.0}})};
  const AlignedSensors out = align(in, 3'000'000'000'000'000'000);
  EXPECT_EQ(out.start_timestamp, lo);
  ASSERT_EQ(out.matrix.cols(), 7u);  // lo, lo + 3e18, ..., hi.
  for (std::size_t c = 0; c < 7; ++c) {
    const double v = -9.0 + 3.0 * static_cast<double>(c);
    EXPECT_NEAR(out.matrix(0, c), v, 1e-9) << c;
    EXPECT_NEAR(out.matrix(1, c), -v, 1e-9) << c;
  }
}

TEST(Align, GridTooLargeToHoldThrows) {
  // Two sensors over [0, INT64_MAX] at 1 ms: 2 x 2^63 elements wrap
  // std::size_t to 0.
  const std::vector<TimeSeries> wraps{series("a", {{0, 1.0}, {kMax, 2.0}}),
                                      series("b", {{0, 1.0}, {kMax, 2.0}})};
  EXPECT_THROW(align(wraps, 1), std::length_error);
  // The whole int64 range at 1 ms is 2^64 columns, one more than
  // std::size_t counts.
  const std::vector<TimeSeries> full{series("a", {{kMin, 1.0}, {kMax, 2.0}})};
  EXPECT_THROW(align(full, 1), std::length_error);
}

TEST(Align, RecoversJitteredAndDroppedSamples) {
  // A collector polling a slow signal every second, with 10% timestamp
  // jitter and 2% dropped samples per sensor: the aligned grid must follow
  // the signal closely.
  constexpr std::int64_t kInterval = 1000;
  const auto truth = [](std::size_t sensor, double t_ms) {
    return std::sin(0.05 * t_ms / 1000.0 + static_cast<double>(sensor));
  };
  common::Rng rng(5);
  std::vector<TimeSeries> in(3);
  for (std::size_t r = 0; r < in.size(); ++r) {
    in[r].name = std::to_string(r);
    std::int64_t prev = kMin;
    for (std::int64_t k = 0; k < 300; ++k) {
      if (rng.uniform() < 0.02) continue;
      const auto t = static_cast<std::int64_t>(std::llround(
          static_cast<double>(k * kInterval) +
          0.1 * static_cast<double>(kInterval) * rng.gaussian()));
      if (t <= prev) continue;  // Keep timestamps strictly increasing.
      prev = t;
      in[r].samples.push_back({t, truth(r, static_cast<double>(t))});
    }
  }
  const AlignedSensors out = align(in, kInterval);
  ASSERT_EQ(out.matrix.rows(), 3u);
  ASSERT_GT(out.matrix.cols(), 290u);
  double max_err = 0.0;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < out.matrix.cols(); ++c) {
      const auto t = static_cast<double>(
          out.start_timestamp + static_cast<std::int64_t>(c) * kInterval);
      max_err = std::max(max_err, std::abs(out.matrix(r, c) - truth(r, t)));
    }
  }
  EXPECT_LT(max_err, 0.05);
}

TEST(Align, UnsortedSeriesRejected) {
  const std::vector<TimeSeries> in{
      series("a", {{100, 1.0}, {0, 2.0}})};
  EXPECT_THROW(align(in, 50), std::invalid_argument);
}

TEST(AlignAuto, PicksMedianInterval) {
  const std::vector<TimeSeries> in{
      series("a", {{0, 0.0}, {100, 1.0}, {200, 2.0}, {300, 3.0}})};
  const AlignedSensors out = align_auto(in);
  EXPECT_EQ(out.interval_ms, 100);
  EXPECT_EQ(out.matrix.cols(), 4u);
}

TEST(AlignAuto, MedianPoolsTheGapsOfEverySeries) {
  // Three 100 ms gaps from "slow" and eight 40 ms gaps from "fast": the
  // median of all eleven is 40 ms, so the faster sensor sets the grid.
  std::vector<std::pair<std::int64_t, double>> fast;
  for (std::int64_t t = 0; t <= 320; t += 40) {
    fast.emplace_back(t, static_cast<double>(t));
  }
  const std::vector<TimeSeries> in{
      series("slow", {{0, 0.0}, {100, 1.0}, {200, 2.0}, {300, 3.0}}),
      series("fast", fast)};
  const AlignedSensors out = align_auto(in);
  EXPECT_EQ(out.interval_ms, 40);
  EXPECT_EQ(out.start_timestamp, 0);
  ASSERT_EQ(out.matrix.cols(), 8u);  // 0, 40, ..., 280 within [0, 300].
  EXPECT_DOUBLE_EQ(out.matrix(0, 7), 2.8);
  EXPECT_DOUBLE_EQ(out.matrix(1, 7), 280.0);
}

TEST(AlignAuto, GapBeyondInt64MaxClampsTheInterval) {
  // Neighbouring samples 1.8e19 ms apart: the median gap exceeds INT64_MAX,
  // so the interval clamps to it and the grid holds lo and lo + INT64_MAX.
  const std::int64_t lo = -9'000'000'000'000'000'000;
  const std::int64_t hi = 9'000'000'000'000'000'000;
  const std::vector<TimeSeries> in{series("a", {{lo, 1.0}, {hi, 3.0}}),
                                   series("b", {{lo, 2.0}, {hi, 4.0}})};
  const AlignedSensors out = align_auto(in);
  EXPECT_EQ(out.interval_ms, kMax);
  EXPECT_EQ(out.start_timestamp, lo);
  ASSERT_EQ(out.matrix.cols(), 2u);
  EXPECT_DOUBLE_EQ(out.matrix(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(out.matrix(1, 0), 2.0);
}

TEST(AlignAuto, NotEnoughSamplesThrows) {
  const std::vector<TimeSeries> in{series("a", {{0, 1.0}})};
  EXPECT_THROW(align_auto(in), std::invalid_argument);
}

TEST(Reorder, PermutesRowsByName) {
  const std::vector<TimeSeries> in{
      series("a", {{0, 1.0}, {100, 1.0}}),
      series("b", {{0, 2.0}, {100, 2.0}}),
      series("c", {{0, 3.0}, {100, 3.0}})};
  AlignedSensors aligned = align(in, 100);
  aligned.reorder({"c", "a", "b"});
  EXPECT_EQ(aligned.names, (std::vector<std::string>{"c", "a", "b"}));
  EXPECT_DOUBLE_EQ(aligned.matrix(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(aligned.matrix(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(aligned.matrix(2, 0), 2.0);
}

TEST(Reorder, Validation) {
  const std::vector<TimeSeries> in{
      series("a", {{0, 1.0}, {100, 1.0}}),
      series("b", {{0, 2.0}, {100, 2.0}})};
  AlignedSensors aligned = align(in, 100);
  EXPECT_THROW(aligned.reorder({"a"}), std::invalid_argument);
  EXPECT_THROW(aligned.reorder({"a", "nope"}), std::invalid_argument);
  EXPECT_THROW(aligned.reorder({"a", "a"}), std::invalid_argument);
}

TEST(Reorder, RejectsDuplicateSourceNames) {
  AlignedSensors aligned;
  aligned.matrix = common::Matrix(2, 1);
  aligned.names = {"x", "x"};
  EXPECT_THROW(aligned.reorder({"x", "x"}), std::invalid_argument);
}

}  // namespace
}  // namespace csm::data
