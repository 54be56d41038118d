#include "common/timer.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace csm::common {
namespace {

TEST(Timer, SecondsNeverDecrease) {
  const Timer timer;
  double last = timer.seconds();
  EXPECT_GE(last, 0.0);
  for (int i = 0; i < 1000; ++i) {
    const double now = timer.seconds();
    EXPECT_GE(now, last);
    last = now;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.seconds(), 0.02);  // The clock is steady, sleeps count.
}

TEST(Timer, ResetRestartsTheClock) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double before = timer.seconds();
  EXPECT_GE(before, 0.02);
  const Timer started_before_reset;
  timer.reset();
  // Read `timer` first: it restarted after `started_before_reset` was built
  // and is read before it, so it cannot show more time whatever the load.
  // Without the reset it would show at least 20 ms more.
  const double after = timer.seconds();
  EXPECT_LE(after, started_before_reset.seconds());
}

}  // namespace
}  // namespace csm::common
