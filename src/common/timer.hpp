// Minimal wall-clock stopwatch used by the experiment harness to report
// dataset-generation and cross-validation times (Fig. 3a) independent of
// google-benchmark.
#pragma once

#include <chrono>

namespace csm::common {

/// Steady-clock stopwatch. Starts on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace csm::common
