// Cheap per-window correlation-drift statistic for adaptive retraining.
//
// Section III-C2 of the paper observes that component correlations drift
// over time and prescribes "repeat training whenever required"; the open
// question is *when* it is required. A full refit-and-compare is O(n^2 t) —
// far too heavy to run per emitted window — so this header provides a
// two-part surrogate over n sensors and p sampled sensor pairs:
//
//   * per-sensor standardized mean shift against the reference window
//     (catches level changes and dead/railed sensors), and
//   * mean absolute Pearson shift over a seeded sample of sensor pairs
//     (catches re-mixed correlation structure even when levels are stable).
//
// A stationary stream scores around sampling noise (~1/sqrt(wl)); a regime
// change scores well above it. core::MethodStream's RetrainPolicy::kOnDrift
// compares the score against StreamOptions::drift_threshold. Both halves
// skip non-finite samples so the adversarial scenarios (NaN gaps, dropouts)
// degrade the estimate instead of poisoning it.
//
// Two implementations share the one score formula:
//
//   * drift_score(view, ref) rescans a window: two passes per sensor and two
//     per pair, O((n + p) wl) per window. It is the reference the tracker is
//     tested against.
//   * DriftTracker is what a streaming kOnDrift stream runs. Consecutive
//     windows overlap, so it summarises each chunk of g = gcd(wl, ws)
//     columns once, when the chunk closes: per sensor the finite count, mean
//     and centred second moment, per watched pair the jointly-finite count,
//     both means and the centred co-moments. That is O(n + p) per sample. A
//     window is the wl/g chunks it spans, merged pairwise (Chan et al.) in a
//     two-stack sliding aggregate: about 2 ws/g + 1 merges of O(n + p) each
//     per window, however many chunks the window spans. Raw power sums never
//     appear, so a flat sensor's moments stay exactly zero instead of
//     turning into rounding noise that Pearson would blow up to anywhere in
//     [-1, 1].
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix_view.hpp"

namespace csm::stats {

/// Default cap on sampled sensor pairs in a DriftReference.
inline constexpr std::size_t kDefaultDriftPairs = 64;

/// Frozen summary of an in-regime window: per-sensor moments plus the
/// reference correlation of a seeded pair sample. Rebuilt after every
/// drift-triggered retrain so the stream tracks the new regime.
struct DriftReference {
  /// One sampled sensor pair and its reference Pearson coefficient.
  struct Pair {
    std::uint32_t i = 0;
    std::uint32_t j = 0;
    double r = 0.0;
  };

  std::vector<double> mean;  ///< Per-sensor mean over the reference window.
  std::vector<double> sd;    ///< Per-sensor population stddev (same window).
  std::vector<Pair> pairs;   ///< Seeded pair sample with reference Pearson.

  bool empty() const noexcept { return mean.empty(); }
  std::size_t n_sensors() const noexcept { return mean.size(); }
};

/// Summarises `window` (n_sensors x wl, any MatrixView layout) into a
/// DriftReference. At most `max_pairs` distinct sensor pairs are sampled
/// with an Rng seeded by `seed` (all n*(n-1)/2 pairs when they fit the
/// cap), so the same seed always watches the same pairs. Non-finite
/// samples are skipped; a sensor with no finite samples gets mean 0 / sd 0.
/// Throws std::invalid_argument on an empty window or max_pairs == 0.
DriftReference make_drift_reference(const common::MatrixView& window,
                                    std::size_t max_pairs = kDefaultDriftPairs,
                                    std::uint64_t seed = 0);

/// Drift score of `window` against `ref`: the average of
///   (1/n) sum_s |mean_s(window) - ref.mean[s]| / max(ref.sd[s], eps)  and
///   (1/p) sum_(i,j) |pearson_ij(window) - ref.pairs[k].r|.
/// Dimensionless and >= 0. The window's sensor count must match the
/// reference's (std::invalid_argument otherwise); ref must not be empty.
double drift_score(const common::MatrixView& window, const DriftReference& ref);

/// Incremental drift statistics over a column stream windowed at (wl, ws):
/// each pushed sample is summarised once, in the chunk of gcd(wl, ws)
/// columns it belongs to, and each completed window is the combination of
/// its wl / gcd(wl, ws) chunk summaries. score() and reference() then read
/// the newest completed window without touching its samples again — the
/// same statistic as drift_score(view, ref) and make_drift_reference(view)
/// over that window, up to rounding in the last bits (see drift.cpp).
///
/// Windows complete exactly where core::MethodStream emits: after wl
/// columns, then every ws. Columns no window covers (ws > wl) are skipped
/// at push time. The tracker watches, from the first column on, the pairs
/// make_drift_reference picks for n sensors with the same cap and seed.
class DriftTracker {
 public:
  /// Throws std::invalid_argument on a zero sensor count, window length,
  /// window step or pair cap.
  DriftTracker(std::size_t n_sensors, std::size_t window_length,
               std::size_t window_step,
               std::size_t max_pairs = kDefaultDriftPairs,
               std::uint64_t seed = 0);

  /// Feeds the next column (one value per sensor; std::invalid_argument
  /// otherwise). Returns true when this column completes a window, whose
  /// summary score() and reference() read from then on.
  bool push(std::span<const double> column);

  /// drift_score of the newest completed window against `ref`, which must
  /// cover this tracker's sensors and watch its pairs (as
  /// make_drift_reference with the same cap and seed does, or
  /// reference()); std::invalid_argument otherwise. std::logic_error
  /// before the first window completes.
  double score(const DriftReference& ref) const;

  /// DriftReference of the newest completed window (std::logic_error
  /// before the first window completes). Scoring that same window against
  /// it gives exactly 0.
  DriftReference reference() const;

 private:
  void close_chunk();
  void require_window(const char* who) const;
  double* record(std::size_t k) noexcept {
    return records_.data() + k * record_size_;
  }
  const double* record(std::size_t k) const noexcept {
    return records_.data() + k * record_size_;
  }
  /// Ring slot of the k-th chunk counted from the oldest.
  std::size_t ring_slot(std::size_t k) const noexcept {
    const std::size_t s = oldest_ + k;
    return s >= chunks_ ? s - chunks_ : s;
  }

  std::size_t n_ = 0;
  std::size_t wl_ = 0;
  std::size_t ws_ = 0;
  std::size_t g_ = 0;       ///< Columns per chunk.
  std::size_t chunks_ = 0;  ///< Chunks per window (wl / g).
  std::size_t pushed_ = 0;  ///< Columns pushed so far.
  bool has_window_ = false;
  std::vector<DriftReference::Pair> pairs_;

  /// The open chunk's columns (column-major, g x n) and how many are in.
  std::vector<double> stage_;
  std::size_t staged_ = 0;
  /// Chunk-close workspace: per-sensor shift, then the chunk's centred
  /// samples.
  std::vector<double> work_;

  /// Summary records, 3n + 6p doubles each (per-sensor count, mean, M2;
  /// per-pair count, two means, three co-moments), one block per field so
  /// merges run unit-stride across sensors and pairs: `chunks_` ring slots
  /// holding the window's chunks oldest first from `oldest_` — `front_`
  /// suffix aggregates, then `back_` raw chunk summaries — then the back
  /// stack's aggregate, then the newest completed window.
  std::vector<double> records_;
  std::size_t record_size_ = 0;
  std::size_t oldest_ = 0;
  std::size_t front_ = 0;
  std::size_t back_ = 0;
};

}  // namespace csm::stats
