#include "stats/drift.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/ring_matrix.hpp"
#include "common/rng.hpp"

namespace csm::stats {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Window-stationary two-factor stream: per-window means and pair
// correlations are constant up to sampling noise, so two disjoint windows
// of the same process must score near zero against each other.
common::Matrix factor_matrix(std::size_t n, std::size_t t,
                             std::uint64_t seed) {
  common::Rng rng(seed);
  common::Matrix s(n, t);
  for (std::size_t c = 0; c < t; ++c) {
    const double z1 = rng.gaussian();
    const double z2 = rng.gaussian();
    for (std::size_t r = 0; r < n; ++r) {
      const double a = std::cos(0.4 * static_cast<double>(r));
      const double b = std::sin(0.4 * static_cast<double>(r));
      s(r, c) = 1.0 + 0.25 * static_cast<double>(r) + a * z1 + b * z2 +
                0.3 * rng.gaussian();
    }
  }
  return s;
}

TEST(DriftReference, SummarisesMomentsAndSamplesPairs) {
  common::Matrix w(2, 4);
  w(0, 0) = 1.0; w(0, 1) = 2.0; w(0, 2) = 3.0; w(0, 3) = 4.0;
  w(1, 0) = 10.0; w(1, 1) = 10.0; w(1, 2) = 10.0; w(1, 3) = 10.0;
  const DriftReference ref = make_drift_reference(common::MatrixView(w));
  ASSERT_EQ(ref.n_sensors(), 2u);
  EXPECT_DOUBLE_EQ(ref.mean[0], 2.5);
  EXPECT_DOUBLE_EQ(ref.mean[1], 10.0);
  EXPECT_NEAR(ref.sd[0], std::sqrt(1.25), 1e-12);  // Population stddev.
  EXPECT_DOUBLE_EQ(ref.sd[1], 0.0);
  // Only one distinct pair exists for n=2.
  ASSERT_EQ(ref.pairs.size(), 1u);
  EXPECT_NE(ref.pairs[0].i, ref.pairs[0].j);
}

TEST(DriftReference, PairSampleIsSeededAndCapped) {
  const common::Matrix w = factor_matrix(16, 32, 7);
  const DriftReference a = make_drift_reference(common::MatrixView(w), 10, 3);
  const DriftReference b = make_drift_reference(common::MatrixView(w), 10, 3);
  const DriftReference c = make_drift_reference(common::MatrixView(w), 10, 4);
  EXPECT_LE(a.pairs.size(), 10u);
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (std::size_t k = 0; k < a.pairs.size(); ++k) {
    EXPECT_EQ(a.pairs[k].i, b.pairs[k].i);
    EXPECT_EQ(a.pairs[k].j, b.pairs[k].j);
    EXPECT_DOUBLE_EQ(a.pairs[k].r, b.pairs[k].r);
  }
  // A different seed watches a different pair sample (16 choose 2 = 120
  // pairs, 10 sampled: a collision across all ten is vanishingly unlikely).
  bool any_difference = false;
  for (std::size_t k = 0; k < c.pairs.size() && !any_difference; ++k) {
    any_difference = c.pairs[k].i != a.pairs[k].i ||
                     c.pairs[k].j != a.pairs[k].j;
  }
  EXPECT_TRUE(any_difference);
}

TEST(DriftScore, StationaryWindowsScoreLow) {
  const common::Matrix s = factor_matrix(12, 400, 11);
  const common::Matrix ref_window = s.sub_cols(0, 60);
  const DriftReference ref =
      make_drift_reference(common::MatrixView(ref_window));
  for (std::size_t at : {60u, 120u, 300u}) {
    const common::Matrix w = s.sub_cols(at, 60);
    EXPECT_LT(drift_score(common::MatrixView(w), ref), 0.35)
        << "window at " << at;
  }
}

TEST(DriftScore, DetectsMeanShift) {
  const common::Matrix s = factor_matrix(12, 120, 13);
  const common::Matrix ref_window = s.sub_cols(0, 60);
  const DriftReference ref =
      make_drift_reference(common::MatrixView(ref_window));
  common::Matrix shifted = s.sub_cols(60, 60);
  for (std::size_t r = 0; r < shifted.rows(); ++r) {
    for (std::size_t c = 0; c < shifted.cols(); ++c) {
      shifted(r, c) += 5.0;  // Several reference sds on every sensor.
    }
  }
  EXPECT_GT(drift_score(common::MatrixView(shifted), ref), 1.0);
}

TEST(DriftScore, DetectsCorrelationShiftWithStableLevels) {
  // Replace the correlated factor structure with independent noise matched
  // to each sensor's reference moments: means and sds stay put, pair
  // correlations collapse to ~0, and only the Pearson half can see it.
  const common::Matrix s = factor_matrix(12, 60, 17);
  const DriftReference ref = make_drift_reference(common::MatrixView(s));
  common::Rng rng(99);
  common::Matrix independent(12, 60);
  for (std::size_t r = 0; r < 12; ++r) {
    for (std::size_t c = 0; c < 60; ++c) {
      independent(r, c) = ref.mean[r] + ref.sd[r] * rng.gaussian();
    }
  }
  const double score = drift_score(common::MatrixView(independent), ref);
  // The factor model's sampled pairs carry substantial |r|; losing all of
  // it moves the Pearson half well above stationary noise.
  EXPECT_GT(score, 0.25);
}

TEST(DriftScore, SkipsNonFiniteSamples) {
  const common::Matrix s = factor_matrix(8, 120, 19);
  const common::Matrix ref_window = s.sub_cols(0, 60);
  const DriftReference ref =
      make_drift_reference(common::MatrixView(ref_window));
  common::Matrix gappy = s.sub_cols(60, 60);
  for (std::size_t c = 0; c < gappy.cols(); c += 5) {
    gappy(2, c) = kNaN;
    gappy(5, c) = std::numeric_limits<double>::infinity();
  }
  const double score = drift_score(common::MatrixView(gappy), ref);
  EXPECT_TRUE(std::isfinite(score));
  EXPECT_LT(score, 0.35);  // The finite samples are still in-regime.
}

TEST(DriftScore, AllNaNSensorStaysFinite) {
  const common::Matrix s = factor_matrix(6, 120, 23);
  const DriftReference ref =
      make_drift_reference(common::MatrixView(s.sub_cols(0, 60)));
  common::Matrix dead = s.sub_cols(60, 60);
  for (std::size_t c = 0; c < dead.cols(); ++c) dead(3, c) = kNaN;
  EXPECT_TRUE(std::isfinite(drift_score(common::MatrixView(dead), ref)));
}

TEST(DriftScore, ReferenceWithNaNWindowStaysFinite) {
  common::Matrix w = factor_matrix(6, 60, 29);
  for (std::size_t c = 0; c < w.cols(); ++c) w(1, c) = kNaN;
  const DriftReference ref = make_drift_reference(common::MatrixView(w));
  EXPECT_DOUBLE_EQ(ref.mean[1], 0.0);
  EXPECT_DOUBLE_EQ(ref.sd[1], 0.0);
  const common::Matrix probe = factor_matrix(6, 60, 31);
  EXPECT_TRUE(std::isfinite(drift_score(common::MatrixView(probe), ref)));
}

TEST(DriftErrors, RejectsDegenerateInputs) {
  const common::Matrix w = factor_matrix(4, 30, 37);
  EXPECT_THROW(make_drift_reference(common::MatrixView(w), 0),
               std::invalid_argument);
  common::Matrix empty;
  EXPECT_THROW(make_drift_reference(common::MatrixView(empty)),
               std::invalid_argument);

  const DriftReference ref = make_drift_reference(common::MatrixView(w));
  const common::Matrix wrong = factor_matrix(5, 30, 41);
  EXPECT_THROW(drift_score(common::MatrixView(wrong), ref),
               std::invalid_argument);
  EXPECT_THROW(drift_score(common::MatrixView(w), DriftReference{}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// DriftTracker: the streaming scorer against the window-rescan reference.
// ---------------------------------------------------------------------------

constexpr double kEps = std::numeric_limits<double>::epsilon();
// drift.cpp's floor on the reference sd the mean shift divides by.
constexpr double kSdFloor = 1e-9;

struct TrackerCase {
  std::size_t n = 0;
  std::size_t wl = 0;
  std::size_t ws = 0;
  std::size_t cap = 0;
  bool gaps = false;       ///< Random NaN / inf runs in every row.
  bool dead_row = false;   ///< One sensor NaN throughout.
  bool flat_rows = false;  ///< Sensors stuck at 48.65 and at 5e10.
};

std::string describe(const TrackerCase& tc) {
  return "n=" + std::to_string(tc.n) + " wl=" + std::to_string(tc.wl) +
         " ws=" + std::to_string(tc.ws) + " cap=" + std::to_string(tc.cap) +
         (tc.gaps ? " gaps" : "") + (tc.dead_row ? " dead" : "") +
         (tc.flat_rows ? " flat" : "");
}

// n x t stream with random per-sensor levels, two shared factors and noise
// (so pair correlations span [-1, 1]), plus the case's adversarial rows.
common::Matrix tracker_stream(const TrackerCase& tc, std::size_t t,
                              std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> level(tc.n), a(tc.n), b(tc.n);
  for (std::size_t r = 0; r < tc.n; ++r) {
    level[r] = 100.0 * (rng.uniform() - 0.5);
    a[r] = rng.gaussian();
    b[r] = rng.gaussian();
  }
  common::Matrix s(tc.n, t);
  for (std::size_t c = 0; c < t; ++c) {
    const double z1 = rng.gaussian();
    const double z2 = rng.gaussian();
    for (std::size_t r = 0; r < tc.n; ++r) {
      s(r, c) = level[r] + a[r] * z1 + b[r] * z2 + 0.5 * rng.gaussian();
    }
  }
  if (tc.flat_rows) {
    for (std::size_t c = 0; c < t; ++c) {
      s(0, c) = 48.65;  // Not representable: sums of it round.
      s(1, c) = 5e10;   // Representable: sums of it are exact.
    }
  }
  if (tc.gaps) {
    for (std::size_t r = 0; r < tc.n; ++r) {
      for (std::size_t c = 0; c < t; ++c) {
        if (rng.uniform() >= 0.02) continue;
        const double bad = rng.uniform() < 0.8
                               ? kNaN
                               : std::numeric_limits<double>::infinity();
        const std::size_t len = 1 + rng.uniform_int(12);
        for (std::size_t k = c; k < std::min(t, c + len); ++k) s(r, k) = bad;
      }
    }
  }
  if (tc.dead_row) {
    for (std::size_t c = 0; c < t; ++c) s(tc.n - 1, c) = kNaN;
  }
  return s;
}

// The recursive-summation error bound, (k - 1) eps sum |x|, loosened to
// 2 k eps max|x| per implementation: the most the two windows' means (and,
// through them, sds) may differ by for sensor `r` of `w`.
double moment_bound(const common::MatrixView& w, std::size_t r) {
  double peak = 0.0;
  for (std::size_t c = 0; c < w.cols(); ++c) {
    if (std::isfinite(w(r, c))) peak = std::max(peak, std::abs(w(r, c)));
  }
  return 4.0 * static_cast<double>(w.cols()) * kEps * peak;
}

// Feeds the case's stream through a DriftTracker and through a ring whose
// capacity (wl + 3) puts the wrap point inside most windows, and compares
// every completed window with the rescan. Tolerances, per window:
//
//  * Each mean and sd may differ by moment_bound: both sides are sums of
//    at most wl finite samples, rounded in different orders.
//  * Each Pearson may differ by 1e-12: the co-moments carry relative error
//    O(wl eps) on this well-conditioned data (levels within about 100 sds
//    of zero), and r is their ratio; a pair with a flat row is exactly 0
//    on the tracker side and within ~wl eps * level / sd of 0 on the
//    rescan.
//  * The scores then differ by at most what the shared formula makes of
//    those differences: half the mean over scored sensors of
//    |mean difference| / max(ref sd, kSdFloor), plus half the mean over
//    pairs of |Pearson difference|. For a flat sensor at 48.65 the floor
//    turns its ulp-level mean difference into ~1e-5, which is why the
//    score bound is computed from the measured differences rather than
//    fixed.
void check_against_rescan(const TrackerCase& tc, std::uint64_t seed) {
  SCOPED_TRACE(describe(tc));
  const std::size_t t = 12 * std::max(tc.wl, tc.ws) + 40;
  const common::Matrix data = tracker_stream(tc, t, seed);
  DriftTracker tracker(tc.n, tc.wl, tc.ws, tc.cap, seed);
  common::RingMatrix ring(tc.n, tc.wl + 3);
  DriftReference ref;
  std::vector<double> column(tc.n);
  std::size_t windows = 0;
  for (std::size_t c = 0; c < t; ++c) {
    for (std::size_t r = 0; r < tc.n; ++r) column[r] = data(r, c);
    ring.push(column);
    const bool due = c + 1 >= tc.wl && (c + 1 - tc.wl) % tc.ws == 0;
    ASSERT_EQ(tracker.push(column), due) << "column " << c;
    if (!due) continue;
    ++windows;
    const common::MatrixView view = ring.latest_view(tc.wl);
    const DriftReference rescan = make_drift_reference(view, tc.cap, seed);
    const DriftReference own = tracker.reference();
    if (ref.empty()) ref = rescan;

    ASSERT_EQ(own.pairs.size(), rescan.pairs.size());
    double mean_bound = 0.0;
    std::size_t mean_terms = 0;
    std::vector<bool> scored(tc.n, false);  // Any finite sample in window.
    for (std::size_t r = 0; r < tc.n; ++r) {
      const double tol = moment_bound(view, r);
      EXPECT_LE(std::abs(own.mean[r] - rescan.mean[r]), tol) << "sensor " << r;
      EXPECT_LE(std::abs(own.sd[r] - rescan.sd[r]), tol) << "sensor " << r;
      for (std::size_t col = 0; col < view.cols(); ++col) {
        scored[r] = scored[r] || std::isfinite(view(r, col));
      }
      if (!scored[r]) continue;
      mean_bound += std::abs(own.mean[r] - rescan.mean[r]) /
                    std::max(ref.sd[r], kSdFloor);
      ++mean_terms;
    }
    double pair_bound = 0.0;
    for (std::size_t k = 0; k < own.pairs.size(); ++k) {
      ASSERT_EQ(own.pairs[k].i, rescan.pairs[k].i);
      ASSERT_EQ(own.pairs[k].j, rescan.pairs[k].j);
      const double dr = std::abs(own.pairs[k].r - rescan.pairs[k].r);
      EXPECT_LE(dr, 1e-12) << "pair " << own.pairs[k].i << ","
                           << own.pairs[k].j;
      pair_bound += dr;
    }
    double bound = mean_terms > 0 ? mean_bound / mean_terms : 0.0;
    if (!own.pairs.empty()) {
      bound = 0.5 * (bound + pair_bound / own.pairs.size());
    }
    const double expected = drift_score(view, ref);
    const double got = tracker.score(ref);
    EXPECT_LE(std::abs(got - expected), bound + 4 * kEps * expected)
        << "window " << windows;
    // The tracker's shifted sums keep a flat row exactly flat, gaps or not.
    if (tc.flat_rows && scored[0]) {
      EXPECT_EQ(own.mean[0], 48.65);
      EXPECT_EQ(own.sd[0], 0.0);
    }
    if (tc.flat_rows && scored[1]) {
      EXPECT_EQ(own.mean[1], 5e10);
      EXPECT_EQ(own.sd[1], 0.0);
    }
    // A window against a reference built from its own summary: exactly 0.
    EXPECT_EQ(tracker.score(own), 0.0) << "window " << windows;
  }
  EXPECT_GE(windows, 10u);
}

TEST(DriftTracker, MatchesRescanOnRandomShapes) {
  // Table I's shapes in samples (fault 60/10, application 30/5, power
  // 10/5, infrastructure 30/6, cross-arch 30/2), gcd 1 (30/7), and ws > wl
  // (12/30 with gcd 6, 7/11 with gcd 1).
  const std::size_t shapes[][2] = {{60, 10}, {30, 5}, {10, 5}, {30, 6},
                                   {30, 2},  {30, 7}, {12, 30}, {7, 11}};
  common::Rng rng(2024);
  std::size_t index = 0;
  for (const auto& shape : shapes) {
    for (int variant = 0; variant < 3; ++variant, ++index) {
      TrackerCase tc;
      tc.n = 2 + rng.uniform_int(129);  // 2..130 sensors.
      tc.wl = shape[0];
      tc.ws = shape[1];
      const std::size_t all = tc.n * (tc.n - 1) / 2;
      // Alternate a cap above n(n-1)/2 (every pair watched) with one below
      // it (a seeded sample).
      tc.cap = index % 2 == 0 ? all + 5 : std::max<std::size_t>(1, all / 3);
      tc.cap = std::min<std::size_t>(tc.cap, 300);
      tc.gaps = variant >= 1;
      tc.dead_row = variant == 2 && tc.n > 3;
      tc.flat_rows = variant != 1 && tc.n > 3;
      check_against_rescan(tc, 100 + index);
    }
  }
  // A single sensor watches no pairs; its score is the mean shift alone.
  TrackerCase single;
  single.n = 1;
  single.wl = 30;
  single.ws = 5;
  single.cap = kDefaultDriftPairs;
  single.gaps = true;
  check_against_rescan(single, 99);
}

TEST(DriftTracker, StationaryStreamWithFlatSensorsScoresLow) {
  // The stationary factor stream with one sensor stuck at 48.65 and one at
  // 5e10: the flat rows add exactly zero to both halves, so every window
  // scores like the plain stream does.
  common::Matrix s = factor_matrix(10, 600, 43);
  for (std::size_t c = 0; c < s.cols(); ++c) {
    s(3, c) = 48.65;
    s(7, c) = 5e10;
  }
  DriftTracker tracker(10, 60, 10);
  DriftReference ref;
  std::vector<double> column(10);
  double worst = 0.0;
  for (std::size_t c = 0; c < s.cols(); ++c) {
    for (std::size_t r = 0; r < 10; ++r) column[r] = s(r, c);
    if (!tracker.push(column)) continue;
    if (ref.empty()) {
      ref = tracker.reference();
      continue;
    }
    worst = std::max(worst, tracker.score(ref));
  }
  EXPECT_LT(worst, 0.35);
}

TEST(DriftTracker, RejectsMisuse) {
  EXPECT_THROW(DriftTracker(0, 30, 5), std::invalid_argument);
  EXPECT_THROW(DriftTracker(4, 0, 5), std::invalid_argument);
  EXPECT_THROW(DriftTracker(4, 30, 0), std::invalid_argument);
  EXPECT_THROW(DriftTracker(4, 30, 5, 0), std::invalid_argument);

  DriftTracker tracker(4, 6, 2);
  const std::vector<double> column(4, 1.0);
  const std::vector<double> short_column(3, 1.0);
  EXPECT_THROW(tracker.push(short_column), std::invalid_argument);
  EXPECT_THROW(tracker.reference(), std::logic_error);
  EXPECT_THROW(tracker.score(DriftReference{}), std::logic_error);
  for (int c = 0; c < 6; ++c) tracker.push(column);
  EXPECT_NO_THROW(tracker.reference());
  // A reference over other sensors or other pairs is not this window's.
  const common::Matrix w5 = factor_matrix(5, 6, 3);
  EXPECT_THROW(tracker.score(make_drift_reference(common::MatrixView(w5))),
               std::invalid_argument);
  const common::Matrix w4 = factor_matrix(4, 6, 3);
  EXPECT_THROW(
      tracker.score(make_drift_reference(common::MatrixView(w4), 2, 9)),
      std::invalid_argument);
}

}  // namespace
}  // namespace csm::stats
