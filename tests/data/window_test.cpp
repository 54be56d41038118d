#include "data/window.hpp"

#include <gtest/gtest.h>

namespace csm::data {
namespace {

TEST(WindowSpec, CountBasicCases) {
  const WindowSpec w{10, 5};
  EXPECT_EQ(w.count(9), 0u);    // Too short.
  EXPECT_EQ(w.count(10), 1u);   // Exactly one window.
  EXPECT_EQ(w.count(14), 1u);   // No room to step.
  EXPECT_EQ(w.count(15), 2u);
  EXPECT_EQ(w.count(100), 19u);
}

TEST(WindowSpec, NonOverlappingWindows) {
  const WindowSpec w{10, 10};
  EXPECT_EQ(w.count(100), 10u);
  EXPECT_EQ(w.start(3), 30u);
}

TEST(WindowSpec, DegenerateSpecsCountZero) {
  EXPECT_EQ((WindowSpec{0, 5}).count(100), 0u);
  EXPECT_EQ((WindowSpec{5, 0}).count(100), 0u);
}

TEST(WindowSpec, ValidateThrows) {
  EXPECT_THROW((WindowSpec{0, 1}).validate(), std::invalid_argument);
  EXPECT_THROW((WindowSpec{1, 0}).validate(), std::invalid_argument);
  EXPECT_NO_THROW((WindowSpec{1, 1}).validate());
}

TEST(WindowSpec, EveryCountedWindowFitsAndTheNextDoesNot) {
  // Callers cut window w as columns [start(w), start(w) + length): every
  // counted window must lie inside the matrix, and one more would not, so
  // a tail shorter than a window is dropped.
  for (const WindowSpec spec : {WindowSpec{3, 2}, WindowSpec{3, 3},
                                WindowSpec{5, 1}, WindowSpec{4, 7}}) {
    for (std::size_t t = 0; t <= 40; ++t) {
      const std::size_t n = spec.count(t);
      if (n > 0) {
        EXPECT_LE(spec.start(n - 1) + spec.length, t);
      }
      EXPECT_GT(spec.start(n) + spec.length, t)
          << "length " << spec.length << ", step " << spec.step << ", t "
          << t;
    }
  }
}

}  // namespace
}  // namespace csm::data
