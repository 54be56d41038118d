#include "core/smoothing.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace csm::core {
namespace {

TEST(BlockRange, EvenDivisionIsDisjoint) {
  // n=8, l=4: blocks of exactly 2, no overlap.
  for (std::size_t i = 0; i < 4; ++i) {
    const BlockRange r = block_range(i, 4, 8);
    EXPECT_EQ(r.begin, 2 * i);
    EXPECT_EQ(r.end, 2 * i + 2);
  }
}

TEST(BlockRange, UnevenDivisionOverlapsBoundaries) {
  // n=10, l=4 (n%l=2): Eq. 2 makes neighbouring blocks share a boundary
  // sensor — "partially overlapping ranges".
  const BlockRange r0 = block_range(0, 4, 10);
  const BlockRange r1 = block_range(1, 4, 10);
  EXPECT_EQ(r0.begin, 0u);
  EXPECT_EQ(r0.end, 3u);
  EXPECT_EQ(r1.begin, 2u);  // Overlaps r0 at sensor 2.
  EXPECT_LT(r1.begin, r0.end);
}

TEST(BlockRange, CoversAllSensors) {
  for (std::size_t n : {5u, 7u, 16u, 23u, 100u}) {
    for (std::size_t l : {1u, 2u, 3u, 5u, 8u}) {
      std::set<std::size_t> covered;
      for (std::size_t i = 0; i < l; ++i) {
        const BlockRange r = block_range(i, l, n);
        EXPECT_LT(r.begin, r.end);
        EXPECT_LE(r.end, n);
        for (std::size_t k = r.begin; k < r.end; ++k) covered.insert(k);
      }
      EXPECT_EQ(covered.size(), n) << "n=" << n << " l=" << l;
    }
  }
}

TEST(BlockRange, FirstAndLastAnchored) {
  EXPECT_EQ(block_range(0, 7, 30).begin, 0u);
  EXPECT_EQ(block_range(6, 7, 30).end, 30u);
}

TEST(BlockRange, MoreBlocksThanSensors) {
  // l > n duplicates sensors rather than producing empty blocks.
  for (std::size_t i = 0; i < 10; ++i) {
    const BlockRange r = block_range(i, 10, 4);
    EXPECT_LT(r.begin, r.end);
    EXPECT_LE(r.end, 4u);
  }
}

TEST(BlockRange, Validation) {
  EXPECT_THROW(block_range(0, 0, 5), std::invalid_argument);
  EXPECT_THROW(block_range(0, 5, 0), std::invalid_argument);
  EXPECT_THROW(block_range(5, 5, 10), std::invalid_argument);
}

TEST(Smooth, RealChannelIsBlockMean) {
  // Two blocks over four sensors; values constant per sensor.
  common::Matrix sorted{{1.0, 1.0}, {3.0, 3.0}, {5.0, 5.0}, {7.0, 7.0}};
  const Signature sig = smooth(sorted, 2);
  ASSERT_EQ(sig.length(), 2u);
  EXPECT_DOUBLE_EQ(sig.real()[0], 2.0);  // Mean of rows {0,1}.
  EXPECT_DOUBLE_EQ(sig.real()[1], 6.0);  // Mean of rows {2,3}.
}

TEST(Smooth, ImagChannelIsDerivativeMean) {
  // One block; each row rises by 1 per step -> mean backward diff is
  // (0 + 1 + 1) / 3 per row.
  common::Matrix sorted{{0.0, 1.0, 2.0}, {5.0, 6.0, 7.0}};
  const Signature sig = smooth(sorted, 1);
  EXPECT_NEAR(sig.imag()[0], 2.0 / 3.0, 1e-12);
}

TEST(Smooth, ExplicitDerivativesUsed) {
  common::Matrix sorted{{1.0, 1.0}};
  common::Matrix derivs{{0.5, 0.5}};
  const Signature sig = smooth(sorted, derivs, 1);
  EXPECT_DOUBLE_EQ(sig.imag()[0], 0.5);
  EXPECT_DOUBLE_EQ(sig.real()[0], 1.0);
}

TEST(Smooth, SignatureLengthEqualsRequestedBlocks) {
  common::Matrix sorted(12, 5, 1.0);
  EXPECT_EQ(smooth(sorted, 5).length(), 5u);
  EXPECT_EQ(smooth(sorted, 12).length(), 12u);
  EXPECT_EQ(smooth(sorted, 1).length(), 1u);
}

TEST(Smooth, ConstantWindowHasZeroImag) {
  common::Matrix sorted(4, 6, 0.7);
  const Signature sig = smooth(sorted, 2);
  for (double v : sig.imag()) EXPECT_DOUBLE_EQ(v, 0.0);
  for (double v : sig.real()) EXPECT_DOUBLE_EQ(v, 0.7);
}

TEST(Smooth, Validation) {
  EXPECT_THROW(smooth(common::Matrix(), 2), std::invalid_argument);
  common::Matrix s(2, 2);
  EXPECT_THROW(smooth(s, 0), std::invalid_argument);
  common::Matrix wrong_derivs(3, 2);
  EXPECT_THROW(smooth(s, wrong_derivs, 1), std::invalid_argument);
}

TEST(Smooth, CsAllAveragesOverTimeOnly) {
  // l == n: every block is one sensor; real channel = per-sensor window
  // mean.
  common::Matrix sorted{{0.0, 1.0}, {1.0, 0.0}};
  const Signature sig = smooth(sorted, 2);
  EXPECT_DOUBLE_EQ(sig.real()[0], 0.5);
  EXPECT_DOUBLE_EQ(sig.real()[1], 0.5);
}

TEST(StreamSmoother, Validation) {
  const std::vector<std::size_t> perm{1, 0};
  const std::vector<stats::MinMaxBounds> bounds{{0.0, 1.0}, {0.0, 2.0}};
  EXPECT_THROW(StreamSmoother({}, {}, 1, 3), std::invalid_argument);
  EXPECT_THROW(StreamSmoother(perm, {bounds.data(), 1}, 1, 3),
               std::invalid_argument);
  EXPECT_THROW(StreamSmoother(perm, bounds, 0, 3), std::invalid_argument);
  EXPECT_THROW(StreamSmoother(perm, bounds, 1, 0), std::invalid_argument);

  StreamSmoother smoother(perm, bounds, 1, 3);
  EXPECT_THROW(smoother.push(std::vector<double>{1.0}), std::invalid_argument);
  const std::vector<double> column{0.5, 1.0};
  smoother.push(column);
  smoother.push(column);
  EXPECT_THROW(smoother.emit(false), std::logic_error);  // 2 of wl = 3.
  smoother.push(column);
  EXPECT_THROW(smoother.emit(true), std::logic_error);  // No seed column.
  const Signature sig = smoother.emit(false);
  EXPECT_DOUBLE_EQ(sig.real()[0], 0.5);  // Rows normalise to 0.5 and 0.5.
  EXPECT_DOUBLE_EQ(sig.imag()[0], 0.0);
  smoother.push(column);
  EXPECT_DOUBLE_EQ(smoother.emit(true).imag()[0], 0.0);
}

}  // namespace
}  // namespace csm::core
