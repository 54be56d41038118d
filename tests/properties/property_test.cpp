// Property-based suites: parameterised sweeps over shapes and seeds that
// assert the library's structural invariants rather than specific values.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/pca.hpp"
#include "baselines/registry.hpp"
#include "common/ring_matrix.hpp"
#include "common/rng.hpp"
#include "core/method_stream.hpp"
#include "core/pipeline.hpp"
#include "core/smoothing.hpp"
#include "core/training.hpp"
#include "ml/splits.hpp"
#include "stats/correlation.hpp"
#include "stats/divergence.hpp"
#include "stats/finite_diff.hpp"
#include "stats/interpolate.hpp"
#include "stats/normalize.hpp"

namespace csm {
namespace {

common::Matrix random_matrix(std::size_t n, std::size_t t,
                             std::uint64_t seed) {
  common::Rng rng(seed);
  common::Matrix m(n, t);
  for (std::size_t r = 0; r < n; ++r) {
    const double offset = rng.uniform(-5.0, 5.0);
    const double scale = rng.uniform(0.5, 20.0);
    const double freq = rng.uniform(0.01, 0.3);
    for (std::size_t c = 0; c < t; ++c) {
      m(r, c) = offset +
                scale * std::sin(freq * static_cast<double>(c)) +
                0.3 * rng.gaussian();
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// Block scheme properties (Eq. 2) over an (n, l) grid.

class BlockSchemeProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

const std::vector<std::size_t> kBlockSensorCounts = {1,  2,  5,   10, 16,
                                                     47, 52, 128, 831};
const std::vector<std::size_t> kBlockCounts = {1, 2, 5, 10, 20, 40, 160};

TEST_P(BlockSchemeProperty, CoversEverySensorExactly) {
  const auto [n, l] = GetParam();
  std::vector<int> coverage(n, 0);
  for (std::size_t i = 0; i < l; ++i) {
    const core::BlockRange r = core::block_range(i, l, n);
    ASSERT_LE(r.end, n);
    ASSERT_LT(r.begin, r.end);
    for (std::size_t k = r.begin; k < r.end; ++k) ++coverage[k];
  }
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_GE(coverage[k], 1) << "sensor " << k << " uncovered";
  }
}

TEST_P(BlockSchemeProperty, RangesAreMonotone) {
  const auto [n, l] = GetParam();
  for (std::size_t i = 1; i < l; ++i) {
    const core::BlockRange prev = core::block_range(i - 1, l, n);
    const core::BlockRange cur = core::block_range(i, l, n);
    EXPECT_LE(prev.begin, cur.begin);
    EXPECT_LE(prev.end, cur.end);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BlockSchemeProperty,
    ::testing::Combine(::testing::ValuesIn(kBlockSensorCounts),
                       ::testing::ValuesIn(kBlockCounts)));

// The overlap properties hold only when no sensor is duplicated, i.e. for
// the (n, l) grid points with l <= n; the suite is instantiated on exactly
// those.
class BlockOverlapProperty : public BlockSchemeProperty {};

std::vector<std::tuple<std::size_t, std::size_t>> overlap_grid() {
  std::vector<std::tuple<std::size_t, std::size_t>> out;
  for (const std::size_t n : kBlockSensorCounts) {
    for (const std::size_t l : kBlockCounts) {
      if (l <= n) out.emplace_back(n, l);
    }
  }
  return out;
}

TEST_P(BlockOverlapProperty, OverlapAtMostOneSensor) {
  const auto [n, l] = GetParam();
  for (std::size_t i = 1; i < l; ++i) {
    const core::BlockRange prev = core::block_range(i - 1, l, n);
    const core::BlockRange cur = core::block_range(i, l, n);
    // Eq. 2 shares at most the single boundary sensor.
    EXPECT_LE(prev.end - cur.begin, 1u);
  }
}

TEST_P(BlockOverlapProperty, OverlapExactlyMatchesEq2) {
  // Quantify the "partially overlapping ranges" of Eq. 2: consecutive
  // blocks i-1 and i share exactly one boundary sensor iff l does not
  // divide i*n, and never more than one. In particular the blocks tile the
  // sensor rows disjointly whenever l | n.
  const auto [n, l] = GetParam();
  std::size_t total_overlap = 0;
  std::size_t total_size = 0;
  for (std::size_t i = 0; i < l; ++i) {
    total_size += core::block_range(i, l, n).size();
    if (i == 0) continue;
    const core::BlockRange prev = core::block_range(i - 1, l, n);
    const core::BlockRange cur = core::block_range(i, l, n);
    const std::size_t overlap =
        prev.end > cur.begin ? prev.end - cur.begin : 0;
    EXPECT_EQ(overlap, (i * n) % l != 0 ? 1u : 0u)
        << "blocks " << i - 1 << "/" << i << " of l=" << l << " n=" << n;
    total_overlap += overlap;
  }
  // Coverage accounting: sizes sum to n plus one sensor per overlap, and
  // disjoint tiling is recovered exactly when l | n.
  EXPECT_EQ(total_size, n + total_overlap);
  if (n % l == 0) {
    EXPECT_EQ(total_overlap, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, BlockOverlapProperty,
                         ::testing::ValuesIn(overlap_grid()));

// ---------------------------------------------------------------------------
// Training properties over random matrices.

class TrainingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrainingProperty, PermutationValidAndDeterministic) {
  const common::Matrix s = random_matrix(24, 150, GetParam());
  const core::CsModel a = core::train(s);
  const core::CsModel b = core::train(s);
  EXPECT_EQ(a.permutation(), b.permutation());
  std::set<std::size_t> seen(a.permutation().begin(), a.permutation().end());
  EXPECT_EQ(seen.size(), 24u);
}

TEST_P(TrainingProperty, SortedOutputAlwaysInUnitInterval) {
  const common::Matrix s = random_matrix(16, 120, GetParam());
  const core::CsModel model = core::train(s);
  const common::Matrix sorted = model.sort(s);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_GE(sorted.data()[i], 0.0);
    EXPECT_LE(sorted.data()[i], 1.0);
  }
}

TEST_P(TrainingProperty, NeighborCorrelationImprovedBySorting) {
  // The greedy ordering must, on average, place more-correlated rows next
  // to each other than the raw order does.
  const common::Matrix s = random_matrix(20, 200, GetParam());
  const common::Matrix shifted = stats::shifted_correlation_matrix(s);
  const core::CsModel model = core::train(s);
  const auto& p = model.permutation();
  double sorted_adjacency = 0.0, raw_adjacency = 0.0;
  for (std::size_t i = 1; i < p.size(); ++i) {
    sorted_adjacency += shifted(p[i - 1], p[i]);
    raw_adjacency += shifted(i - 1, i);
  }
  EXPECT_GE(sorted_adjacency, raw_adjacency - 1e-9);
}

TEST_P(TrainingProperty, SignatureInvariantToSensorOrder) {
  // Portability property: permuting the input sensors (and retraining)
  // must not change the *set* of achievable signatures materially. We check
  // the stronger, exact property that sorting undoes a relabeling when the
  // permutation applied is the model's own inverse ordering.
  const common::Matrix s = random_matrix(12, 150, GetParam());
  const core::CsModel model = core::train(s);
  const common::Matrix sorted_once = model.sort(s);

  // Re-train on the already sorted matrix: the dominant sensor group should
  // stay grouped, so re-sorting changes adjacency structure by little. We
  // assert the weaker invariant that the re-trained permutation is valid
  // and the resort stays within [0, 1].
  const core::CsModel model2 = core::train(sorted_once);
  const common::Matrix sorted_twice = model2.sort(sorted_once);
  for (std::size_t i = 0; i < sorted_twice.size(); ++i) {
    EXPECT_GE(sorted_twice.data()[i], 0.0);
    EXPECT_LE(sorted_twice.data()[i], 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrainingProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------------
// Smoothing properties.

class SmoothingProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

const std::vector<std::size_t> kSmoothingSensorCounts = {8, 12, 20, 40};
const std::vector<std::size_t> kSmoothingBlockCounts = {1, 2,  4, 5,
                                                        8, 10, 13};

TEST_P(SmoothingProperty, RealChannelBoundedByWindowExtrema) {
  const auto [n, l] = GetParam();
  const common::Matrix s = random_matrix(n, 60, n * 131 + l);
  const auto bounds = stats::row_bounds(s);
  const common::Matrix norm = stats::normalize_rows(s, bounds);
  const core::Signature sig = core::smooth(norm, l);
  for (double v : sig.real()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SmoothingProperty,
    ::testing::Combine(::testing::ValuesIn(kSmoothingSensorCounts),
                       ::testing::ValuesIn(kSmoothingBlockCounts)));

// Exact only for disjoint equal blocks, i.e. the grid points where l | n.
class DisjointSmoothingProperty : public SmoothingProperty {};

std::vector<std::tuple<std::size_t, std::size_t>> disjoint_grid() {
  std::vector<std::tuple<std::size_t, std::size_t>> out;
  for (const std::size_t n : kSmoothingSensorCounts) {
    for (const std::size_t l : kSmoothingBlockCounts) {
      if (n % l == 0) out.emplace_back(n, l);
    }
  }
  return out;
}

TEST_P(DisjointSmoothingProperty,
       MeanOfSignatureEqualsMeanOfMatrixWhenDisjoint) {
  const auto [n, l] = GetParam();
  const common::Matrix s = random_matrix(n, 40, n * 7 + l);
  const core::Signature sig = core::smooth(s, l);
  double sig_mean = 0.0;
  for (double v : sig.real()) sig_mean += v;
  sig_mean /= static_cast<double>(l);
  double mat_mean = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) mat_mean += s.data()[i];
  mat_mean /= static_cast<double>(s.size());
  EXPECT_NEAR(sig_mean, mat_mean, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grid, DisjointSmoothingProperty,
                         ::testing::ValuesIn(disjoint_grid()));

// ---------------------------------------------------------------------------
// One summation order: the one CS kernel, whether run one-shot over a window
// view (CsPipeline::transform_window) or fed a stream (StreamSmoother),
// equals the materialised Eqs. 2-3 reference to the byte — memcmp, so NaN
// compares too — whatever the block scheme (n % l != 0, l == n, l > n),
// seeding and layout (row-major windows, ring views straddling the wrap), on
// windows holding NaN gaps, infinities and a degenerate (hi <= lo) sensor.

using OneOrderParam = std::tuple<std::size_t, std::size_t>;  // (n, l).

class OneOrderProperty : public ::testing::TestWithParam<OneOrderParam> {
 protected:
  static constexpr std::size_t kWl = 12;

  // A model over n sensors with a scrambled permutation, bounds from a
  // clean prefix and, when n > 1, sensor 1 made degenerate.
  static core::CsModel model_for(std::size_t n, std::uint64_t seed) {
    common::Rng rng(seed);
    std::vector<stats::MinMaxBounds> bounds =
        stats::row_bounds(random_matrix(n, 40, seed + 1));
    if (n > 1) bounds[1] = {0.5, 0.5};
    return core::CsModel(rng.permutation(n), std::move(bounds));
  }

  // Live data with NaN gaps, +-inf samples and a NaN in the degenerate
  // sensor, spread over several sensors and columns.
  static common::Matrix live_for(std::size_t n, std::size_t t,
                                 std::uint64_t seed) {
    common::Matrix m = random_matrix(n, t, seed + 2);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (std::size_t c = 15; c < 18; ++c) m(n / 2, c) = nan;  // A gap.
    m(n - 1, 30) = nan;
    m(0, 22) = inf;
    m(n / 3, 41) = -inf;
    if (n > 1) m(1, 27) = nan;
    return m;
  }

  // smooth(sort(window), backward_diff_rows[_seeded](...), l).
  static core::Signature reference(const core::CsModel& model,
                                   const common::Matrix& window,
                                   const std::vector<double>* seed,
                                   std::size_t l) {
    const common::Matrix sorted = model.sort(window);
    if (!seed) return core::smooth(sorted, stats::backward_diff_rows(sorted), l);
    common::Matrix seed_col(seed->size(), 1);
    for (std::size_t r = 0; r < seed->size(); ++r) seed_col(r, 0) = (*seed)[r];
    const common::Matrix sorted_seed = model.sort(seed_col);
    return core::smooth(
        sorted, stats::backward_diff_rows_seeded(sorted, sorted_seed.col(0)),
        l);
  }
};

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<OneOrderParam> one_order_grid() {
  // Per n: an l with n % l != 0 (overlapping boundary rows; none exists for
  // n = 1), l == n, and l > n.
  return {{1, 1},  {1, 3},   {6, 4},   {6, 6},   {6, 9},    {52, 20},
          {52, 52}, {52, 60}, {128, 20}, {128, 128}, {128, 131}};
}

TEST_P(OneOrderProperty, EveryPathEqualsTheReferenceByteForByte) {
  const auto [n, l] = GetParam();
  const std::uint64_t seed = n * 31 + l;
  const core::CsModel model = model_for(n, seed);
  const core::CsPipeline pipeline(model, core::CsOptions{l, false});
  const common::Matrix live = live_for(n, 60, seed);

  // Row-major windows, unseeded and seeded with the column before them.
  for (std::size_t first = 0; first + kWl <= live.cols(); first += 5) {
    const common::Matrix window = live.sub_cols(first, kWl);
    EXPECT_TRUE(same_bytes(
        pipeline.transform_window(window).flatten(),
        reference(model, window, nullptr, l).flatten()))
        << "row-major unseeded window at " << first;
    if (first == 0) continue;
    const std::vector<double> seed_vals = live.col(first - 1);
    const std::span<const double> seed_span(seed_vals);
    EXPECT_TRUE(same_bytes(
        pipeline.transform_window(window, &seed_span).flatten(),
        reference(model, window, &seed_vals, l).flatten()))
        << "row-major seeded window at " << first;
  }

  // Ring views of capacity wl + 3, so most windows straddle the wrap, and a
  // stream smoother fed the same columns.
  common::RingMatrix ring(n, kWl + 3);
  core::StreamSmoother smoother(model.permutation(), model.bounds(), l, kWl);
  std::size_t straddling = 0;
  for (std::size_t c = 0; c < live.cols(); ++c) {
    const std::vector<double> column = live.col(c);
    ring.push(column);
    smoother.push(column);
    if (ring.size() < kWl) continue;
    const common::MatrixView view = ring.latest_view(kWl);
    if (view.n_col_segments() == 2) ++straddling;
    const common::Matrix window = view.materialize();
    const std::vector<double> unseeded =
        reference(model, window, nullptr, l).flatten();
    EXPECT_TRUE(same_bytes(pipeline.transform_window(view).flatten(),
                           unseeded))
        << "ring unseeded window ending at " << c;
    EXPECT_TRUE(same_bytes(smoother.emit(false).flatten(), unseeded))
        << "smoother unseeded window ending at " << c;
    if (ring.size() == kWl) continue;
    const std::span<const double> seed_span = ring.newest(kWl);
    const std::vector<double> seed_vals(seed_span.begin(), seed_span.end());
    const std::vector<double> seeded =
        reference(model, window, &seed_vals, l).flatten();
    EXPECT_TRUE(same_bytes(
        pipeline.transform_window(view, &seed_span).flatten(), seeded))
        << "ring seeded window ending at " << c;
    EXPECT_TRUE(same_bytes(smoother.emit(true).flatten(), seeded))
        << "smoother seeded window ending at " << c;
  }
  EXPECT_GT(straddling, 10u);
}

// A NaN sample poisons exactly the blocks holding its sensor's sorted row,
// in both channels; a NaN seed only their imaginary channel; a NaN in a
// degenerate sensor nothing. No other block turns NaN.
TEST_P(OneOrderProperty, NanPoisonsExactlyTheBlocksOfItsRow) {
  const auto [n, l] = GetParam();
  const std::uint64_t seed = n * 37 + l;
  const core::CsModel model = model_for(n, seed);
  const core::CsPipeline pipeline(model, core::CsOptions{l, false});
  const common::Matrix clean = random_matrix(n, kWl, seed + 3);
  const std::vector<double> clean_seed = random_matrix(n, 1, seed + 4).col(0);
  const double nan = std::numeric_limits<double>::quiet_NaN();

  std::vector<std::size_t> sorted_row(n);  // perm^-1.
  for (std::size_t rr = 0; rr < n; ++rr) {
    sorted_row[model.permutation()[rr]] = rr;
  }
  const auto nan_blocks = [&](const std::span<const double> channel) {
    std::vector<bool> out;
    for (double v : channel) out.push_back(std::isnan(v));
    return out;
  };
  const auto blocks_of_row = [&](std::size_t rr) {
    std::vector<bool> out(l, false);
    for (std::size_t i = 0; i < l; ++i) {
      const core::BlockRange r = core::block_range(i, l, n);
      out[i] = r.begin <= rr && rr < r.end;
    }
    return out;
  };
  const std::vector<bool> none(l, false);
  const std::span<const double> clean_span(clean_seed);
  const core::Signature baseline =
      pipeline.transform_window(clean, &clean_span);

  for (std::size_t s = 0; s < n; ++s) {
    const bool degenerate = n > 1 && s == 1;
    const std::vector<bool> expect =
        degenerate ? none : blocks_of_row(sorted_row[s]);
    for (const std::size_t c : {std::size_t{0}, kWl / 2, kWl - 1}) {
      common::Matrix window = clean;
      window(s, c) = nan;
      for (const bool seeded : {false, true}) {
        const core::Signature sig = pipeline.transform_window(
            window, seeded ? &clean_span : nullptr);
        EXPECT_EQ(nan_blocks(sig.real()), expect)
            << "sensor " << s << " column " << c << " seeded " << seeded;
        EXPECT_EQ(nan_blocks(sig.imag()), expect)
            << "sensor " << s << " column " << c << " seeded " << seeded;
      }
    }
    std::vector<double> nan_seed = clean_seed;
    nan_seed[s] = nan;
    const std::span<const double> nan_span(nan_seed);
    const core::Signature sig = pipeline.transform_window(clean, &nan_span);
    EXPECT_EQ(nan_blocks(sig.real()), none) << "seed NaN at sensor " << s;
    EXPECT_EQ(nan_blocks(sig.imag()), expect) << "seed NaN at sensor " << s;
    if (degenerate) {
      EXPECT_TRUE(same_bytes(sig.flatten(), baseline.flatten()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, OneOrderProperty,
                         ::testing::ValuesIn(one_order_grid()));

// ---------------------------------------------------------------------------
// Streaming equivalence: with retraining disabled, a MethodStream driving
// the CS method must produce the same signatures as the offline pipeline
// over the same data, for any history length — including ones small enough
// that the ring buffer wraps many times mid-stream.

class StreamEquivalenceProperty
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(StreamEquivalenceProperty, StreamMatchesOfflinePipeline) {
  const auto [n, history, seed] = GetParam();
  const std::size_t t = 160;
  const common::Matrix s = random_matrix(n, t, seed);
  const auto pipeline = std::make_shared<const core::CsPipeline>(
      core::train(s), core::CsOptions{5, false});

  core::StreamOptions opts;
  opts.window_length = 20;
  opts.window_step = 7;
  opts.history_length = history;  // retrain_interval stays 0.
  core::MethodStream stream(
      std::make_shared<const core::CsSignatureMethod>(pipeline), opts);
  const auto streamed = stream.push_all(s);

  const auto offline = pipeline->transform(
      s, data::WindowSpec{opts.window_length, opts.window_step});
  ASSERT_EQ(streamed.size(), offline.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    const std::vector<double> expected = offline[i].flatten();
    ASSERT_EQ(streamed[i].size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_NEAR(streamed[i][k], expected[k], 1e-12)
          << "signature " << i << " feature " << k;
    }
  }
}

// Stream and offline run one smoother, so beyond the tolerance above they
// agree to the byte.
TEST_P(StreamEquivalenceProperty, StreamMatchesOfflinePipelineByteForByte) {
  const auto [n, history, seed] = GetParam();
  const common::Matrix s = random_matrix(n, 160, seed);
  const auto pipeline = std::make_shared<const core::CsPipeline>(
      core::train(s), core::CsOptions{5, false});
  core::StreamOptions opts;
  opts.window_length = 20;
  opts.window_step = 7;
  opts.history_length = history;
  core::MethodStream stream(
      std::make_shared<const core::CsSignatureMethod>(pipeline), opts);
  const auto streamed = stream.push_all(s);
  const auto offline = pipeline->transform(
      s, data::WindowSpec{opts.window_length, opts.window_step});
  ASSERT_EQ(streamed.size(), offline.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_TRUE(same_bytes(streamed[i], offline[i].flatten()))
        << "signature " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StreamEquivalenceProperty,
    ::testing::Combine(::testing::Values(4, 11, 24),
                       // wl + 1 (minimum legal, wraps every push once full),
                       // a mid-size ring, and one larger than the stream.
                       ::testing::Values(21, 40, 1024),
                       ::testing::Values(3, 17)));

// ---------------------------------------------------------------------------
// View-vs-copy streaming equivalence: for EVERY registry method, the
// zero-copy MethodStream path (windows read in place as ring-segment
// MatrixViews) must emit byte-identical feature vectors to the seed's
// copy-based path, which assembled each window with copy_latest into a
// dense matrix before calling compute_streaming. The reference below
// reproduces that copy-based loop verbatim. Randomised wl/ws/history
// combinations include history = wl + 1, where every window straddles the
// ring wrap point once the buffer is full. Only legal combinations
// (history > wl) are instantiated.

using ViewVsCopyParam = std::tuple<std::string, std::size_t, std::size_t,
                                   std::size_t, std::uint64_t>;

class ViewVsCopyStreamProperty
    : public ::testing::TestWithParam<ViewVsCopyParam> {};

std::vector<ViewVsCopyParam> view_vs_copy_grid() {
  std::vector<ViewVsCopyParam> out;
  for (const char* spec : {"cs:blocks=5", "cs:blocks=3,real-only", "tuncer",
                           "bodik", "lan:wr=7", "pca:components=3"}) {
    for (const std::size_t wl : {12, 20}) {
      for (const std::size_t ws : {5, 9}) {
        // 13 = wl + 1 for wl = 12.
        for (const std::size_t history : {13, 21, 64}) {
          if (history <= wl) continue;
          for (const std::uint64_t seed : {29, 71}) {
            out.emplace_back(spec, wl, ws, history, seed);
          }
        }
      }
    }
  }
  return out;
}

TEST_P(ViewVsCopyStreamProperty, ViewPathIsByteIdenticalToCopyPath) {
  const auto [spec, wl, ws, history, seed] = GetParam();
  const std::size_t n = 6;
  const common::Matrix train_data = random_matrix(n, 90, seed);
  const common::Matrix live = random_matrix(n, 170, seed + 1000);

  const std::shared_ptr<const core::SignatureMethod> method(
      baselines::default_registry().create(spec)->fit(train_data));

  core::StreamOptions opts;
  opts.window_length = wl;
  opts.window_step = ws;
  opts.history_length = history;
  core::MethodStream view_stream(method, opts, n);
  const auto viewed = view_stream.push_all(live);

  // Seed copy-based reference: ring ingest, copy_latest window assembly,
  // a span over the ring's seed column.
  std::vector<std::vector<double>> copied;
  common::RingMatrix ring(n, history);
  common::Matrix window(n, wl);
  std::size_t next_emit_at = wl;
  for (std::size_t c = 0; c < live.cols(); ++c) {
    std::vector<double> column(n);
    for (std::size_t r = 0; r < n; ++r) column[r] = live(r, c);
    ring.push(column);
    if (c + 1 < next_emit_at) continue;
    next_emit_at += ws;
    ring.copy_latest(wl, window);
    if (ring.size() > wl) {
      const std::span<const double> prev = ring.newest(wl);
      copied.push_back(method->compute_streaming(window, &prev));
    } else {
      copied.push_back(method->compute_streaming(window, nullptr));
    }
  }

  ASSERT_EQ(viewed.size(), copied.size());
  for (std::size_t i = 0; i < viewed.size(); ++i) {
    // operator== on vector<double> is exact: byte-identical or bust.
    EXPECT_EQ(viewed[i], copied[i]) << spec << " signature " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, ViewVsCopyStreamProperty,
                         ::testing::ValuesIn(view_vs_copy_grid()));

// Retraining reads the ring history through history_view(); training from
// the view must reproduce the materialised to_matrix() training bit for bit
// (both compare their models member-wise), including when the retained
// history straddles the wrap.
TEST(TrainFromViewProperty, RingHistoryViewTrainsIdenticallyToMaterialised) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const std::size_t n = 7;
    const common::Matrix data = random_matrix(n, 150, seed);
    common::RingMatrix ring(n, 64);  // 150 pushes -> wraps twice.
    std::vector<double> column(n);
    for (std::size_t c = 0; c < data.cols(); ++c) {
      for (std::size_t r = 0; r < n; ++r) column[r] = data(r, c);
      ring.push(column);
    }
    const common::Matrix materialised = ring.to_matrix();
    EXPECT_EQ(core::train(ring.history_view()), core::train(materialised));
    const baselines::PcaModel from_view =
        baselines::PcaModel::fit(ring.history_view(), 3);
    const baselines::PcaModel from_copy =
        baselines::PcaModel::fit(materialised, 3);
    EXPECT_EQ(from_view.means(), from_copy.means());
    EXPECT_EQ(from_view.inv_std(), from_copy.inv_std());
    EXPECT_EQ(from_view.components(), from_copy.components());
    EXPECT_EQ(from_view.explained_variance(), from_copy.explained_variance());
  }
}

// ---------------------------------------------------------------------------
// JS divergence properties: monotone fidelity in block count.

TEST(CompressionProperty, JsDivergenceDecreasesWithBlocks) {
  const common::Matrix s = random_matrix(32, 400, 77);
  const core::CsModel model = core::train(s);
  const common::Matrix sorted = model.sort(s);
  double prev = 1.1;
  for (std::size_t l : {2u, 8u, 32u}) {
    const core::CsPipeline p(model, core::CsOptions{l, false});
    const auto sigs = p.transform(s, data::WindowSpec{20, 10});
    auto [re, im] = core::signature_heatmaps(sigs);
    const common::Matrix up = stats::resize_rows_nearest(re, 32);
    const double js = stats::js_divergence_2d(sorted, up);
    EXPECT_LT(js, prev + 0.02) << "fidelity should not degrade with l=" << l;
    prev = js;
  }
}

// ---------------------------------------------------------------------------
// Stratified K-fold properties across class skew and fold counts.

class SplitProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SplitProperty, EverySampleTestedExactlyOnce) {
  const auto [k, skew] = GetParam();
  std::vector<int> labels;
  for (std::size_t c = 0; c < 3; ++c) {
    labels.insert(labels.end(), 20 + skew * c * 10, static_cast<int>(c));
  }
  common::Rng rng(k * 100 + skew);
  const auto folds = ml::stratified_kfold(labels, k, rng);
  std::vector<int> tested(labels.size(), 0);
  for (const auto& fold : folds) {
    for (std::size_t idx : fold.test_indices) ++tested[idx];
  }
  for (std::size_t i = 0; i < labels.size(); ++i) EXPECT_EQ(tested[i], 1);
}

TEST_P(SplitProperty, FoldSizesNearUniform) {
  const auto [k, skew] = GetParam();
  std::vector<int> labels;
  for (std::size_t c = 0; c < 3; ++c) {
    labels.insert(labels.end(), 20 + skew * c * 10, static_cast<int>(c));
  }
  common::Rng rng(k * 991 + skew);
  const auto folds = ml::stratified_kfold(labels, k, rng);
  const double ideal =
      static_cast<double>(labels.size()) / static_cast<double>(k);
  for (const auto& fold : folds) {
    EXPECT_NEAR(static_cast<double>(fold.test_indices.size()), ideal,
                3.0);  // Round-robin dealing is within 1 per class.
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, SplitProperty,
                         ::testing::Combine(::testing::Values(2, 5, 10),
                                            ::testing::Values(0, 1, 3)));

}  // namespace
}  // namespace csm
