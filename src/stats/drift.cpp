#include "stats/drift.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace csm::stats {
namespace {

// Floor on the reference stddev when standardizing mean shifts: a sensor
// that was perfectly flat in the reference window would otherwise turn any
// noise into an infinite score.
constexpr double kSdFloor = 1e-9;

struct Moments {
  double mean = 0.0;
  double sd = 0.0;
  std::size_t finite = 0;
};

// Mean / population stddev of one sensor row, over finite samples only.
Moments row_moments(const common::MatrixView& m, std::size_t r) {
  Moments out;
  double sum = 0.0;
  for (std::size_t c = 0; c < m.cols(); ++c) {
    const double v = m(r, c);
    if (!std::isfinite(v)) continue;
    sum += v;
    ++out.finite;
  }
  if (out.finite == 0) return out;
  out.mean = sum / static_cast<double>(out.finite);
  double ss = 0.0;
  for (std::size_t c = 0; c < m.cols(); ++c) {
    const double v = m(r, c);
    if (!std::isfinite(v)) continue;
    const double d = v - out.mean;
    ss += d * d;
  }
  out.sd = std::sqrt(ss / static_cast<double>(out.finite));
  return out;
}

// Pearson from `n` jointly finite samples' centred co-moments; 0 when fewer
// than three samples survive or either row is flat (the same "no linear
// information" convention as stats::pearson).
double pearson_from(std::size_t n, double sxx, double syy, double sxy) {
  if (n < 3) return 0.0;
  const double denom = std::sqrt(sxx) * std::sqrt(syy);
  if (denom == 0.0 || !std::isfinite(denom)) return 0.0;
  return std::clamp(sxy / denom, -1.0, 1.0);
}

// Pearson over the columns where BOTH sensors are finite.
double masked_pearson(const common::MatrixView& m, std::size_t i,
                      std::size_t j) {
  double sx = 0.0, sy = 0.0;
  std::size_t n = 0;
  for (std::size_t c = 0; c < m.cols(); ++c) {
    const double x = m(i, c);
    const double y = m(j, c);
    if (!std::isfinite(x) || !std::isfinite(y)) continue;
    sx += x;
    sy += y;
    ++n;
  }
  if (n < 3) return 0.0;
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxx = 0.0, syy = 0.0, sxy = 0.0;
  for (std::size_t c = 0; c < m.cols(); ++c) {
    const double x = m(i, c);
    const double y = m(j, c);
    if (!std::isfinite(x) || !std::isfinite(y)) continue;
    const double dx = x - mx;
    const double dy = y - my;
    sxx += dx * dx;
    syy += dy * dy;
    sxy += dx * dy;
  }
  return pearson_from(n, sxx, syy, sxy);
}

// The drift score formula, shared by drift_score(view, ref) and
// DriftTracker::score: `sensor(s)` yields sensor s's window moments (mean
// and finite count), `pair_r(k)` the window Pearson of ref.pairs[k].
template <class SensorFn, class PairFn>
double score_window(const DriftReference& ref, SensorFn sensor,
                    PairFn pair_r) {
  double mean_part = 0.0;
  std::size_t mean_terms = 0;
  for (std::size_t r = 0; r < ref.n_sensors(); ++r) {
    const Moments m = sensor(r);
    if (m.finite == 0) continue;  // All-NaN sensor: no level evidence.
    mean_part += std::abs(m.mean - ref.mean[r]) / std::max(ref.sd[r], kSdFloor);
    ++mean_terms;
  }
  if (mean_terms > 0) mean_part /= static_cast<double>(mean_terms);

  if (ref.pairs.empty()) return mean_part;
  double corr_part = 0.0;
  for (std::size_t k = 0; k < ref.pairs.size(); ++k) {
    corr_part += std::abs(pair_r(k) - ref.pairs[k].r);
  }
  corr_part /= static_cast<double>(ref.pairs.size());
  return 0.5 * (mean_part + corr_part);
}

// The sensor pairs a reference over n sensors watches (r = 0): every pair
// in (i, j) order when they fit the cap, else a seeded rejection sample.
// Shared by make_drift_reference and DriftTracker, so both watch the same
// pairs for the same cap and seed.
std::vector<DriftReference::Pair> sample_drift_pairs(std::size_t n,
                                                     std::size_t max_pairs,
                                                     std::uint64_t seed) {
  std::vector<DriftReference::Pair> pairs;
  if (n < 2) return pairs;  // No pairs to watch; mean shifts still score.
  const std::size_t all_pairs = n * (n - 1) / 2;
  if (all_pairs <= max_pairs) {
    pairs.reserve(all_pairs);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        pairs.push_back({static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j), 0.0});
      }
    }
    return pairs;
  }
  // Seeded rejection sample of distinct pairs: the same seed watches the
  // same pairs run-to-run, which the determinism tests pin.
  common::Rng rng(seed);
  std::vector<std::uint64_t> taken;
  taken.reserve(max_pairs);
  pairs.reserve(max_pairs);
  while (pairs.size() < max_pairs) {
    std::size_t i = static_cast<std::size_t>(rng.uniform_int(n));
    std::size_t j = static_cast<std::size_t>(rng.uniform_int(n));
    if (i == j) continue;
    if (i > j) std::swap(i, j);
    const std::uint64_t key = static_cast<std::uint64_t>(i) << 32 | j;
    if (std::find(taken.begin(), taken.end(), key) != taken.end()) continue;
    taken.push_back(key);
    pairs.push_back({static_cast<std::uint32_t>(i),
                     static_cast<std::uint32_t>(j), 0.0});
  }
  return pairs;
}

}  // namespace

DriftReference make_drift_reference(const common::MatrixView& window,
                                    std::size_t max_pairs,
                                    std::uint64_t seed) {
  if (window.empty()) {
    throw std::invalid_argument("make_drift_reference: empty window");
  }
  if (max_pairs == 0) {
    throw std::invalid_argument("make_drift_reference: max_pairs must be > 0");
  }
  const std::size_t n = window.rows();
  DriftReference ref;
  ref.mean.resize(n);
  ref.sd.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const Moments m = row_moments(window, r);
    ref.mean[r] = m.mean;
    ref.sd[r] = m.sd;
  }
  ref.pairs = sample_drift_pairs(n, max_pairs, seed);
  for (DriftReference::Pair& p : ref.pairs) {
    p.r = masked_pearson(window, p.i, p.j);
  }
  return ref;
}

double drift_score(const common::MatrixView& window,
                   const DriftReference& ref) {
  if (ref.empty()) {
    throw std::invalid_argument("drift_score: empty reference");
  }
  if (window.rows() != ref.n_sensors()) {
    throw std::invalid_argument(
        "drift_score: window sensor count does not match the reference");
  }
  return score_window(
      ref, [&](std::size_t r) { return row_moments(window, r); },
      [&](std::size_t k) {
        return masked_pearson(window, ref.pairs[k].i, ref.pairs[k].j);
      });
}

// DriftTracker numerics. A chunk is summarised by a two-pass over its staged
// columns, shifted by one of the row's own finite samples: a flat row's
// chunk mean is then exactly its value and its centred samples exactly 0.
// Chunk summaries combine with Chan et al.'s pairwise update
//   n = na + nb,  d = mean_b - mean_a,  mean = mean_a + d nb/n,
//   M2 = M2_a + M2_b + d^2 na nb/n
// (and likewise for the co-moments), in which every term is a centred
// quantity; merging equal means adds exactly zero, so a flat row stays
// exactly flat. drift_score's two-pass scan computes the same statistics in
// a different summation order, so the two agree to rounding in the last
// bits. The difference shows most on a flat sensor, whose reference sd sits
// at kSdFloor: drift_score's mean of a non-representable constant may be an
// ulp off the value, and the floor magnifies that ulp by 1e9 relative to
// the value.
//
// The window is a sliding aggregate over its wl/g chunks, kept as two
// stacks so the merges per window do not grow with wl/g: the older chunks
// ("front") hold suffix aggregates — slot k summarises chunk k through the
// newest front chunk — and the newer ones ("back") stay raw, with their
// running aggregate in a separate record. Evicting the oldest chunk drops
// the front's first slot; when the front runs empty, the back is folded
// into suffix aggregates in place. The window is the front's first slot
// merged with the back aggregate. Per window that is about 2 ws/g + 1
// merges, each O(n + p) and unit-stride over the records' fields.
namespace {

// Layout of one summary record: per-sensor count, mean, M2 (n each), then
// per-pair count, mean x, mean y, Cxx, Cyy, Cxy (p each).
struct RecordLayout {
  std::size_t n, p;
  std::size_t size() const noexcept { return 3 * n + 6 * p; }
  std::size_t s_count() const noexcept { return 0; }
  std::size_t s_mean() const noexcept { return n; }
  std::size_t s_m2() const noexcept { return 2 * n; }
  std::size_t p_count() const noexcept { return 3 * n; }
  std::size_t p_mx() const noexcept { return 3 * n + p; }
  std::size_t p_my() const noexcept { return 3 * n + 2 * p; }
  std::size_t p_cxx() const noexcept { return 3 * n + 3 * p; }
  std::size_t p_cyy() const noexcept { return 3 * n + 4 * p; }
  std::size_t p_cxy() const noexcept { return 3 * n + 5 * p; }
};

// Chan et al.'s pairwise update of `len` (count, mean, M2) lanes:
// a <- a merged with b. Counts are whole numbers, so max(n, 1) only guards
// the empty + empty case, where nb = 0 anyway; an empty side contributes
// exactly nothing.
void merge_moments(std::size_t len, double* __restrict an,
                   double* __restrict am, double* __restrict aq,
                   const double* __restrict bn, const double* __restrict bm,
                   const double* __restrict bq) {
  for (std::size_t s = 0; s < len; ++s) {
    const double na = an[s];
    const double n = na + bn[s];
    const double f = bn[s] / std::max(n, 1.0);
    const double d = bm[s] - am[s];
    am[s] += d * f;
    aq[s] += bq[s] + d * d * na * f;
    an[s] = n;
  }
}

// The same update for `len` (count, mean x, mean y, Cxx, Cyy, Cxy) lanes.
void merge_comoments(std::size_t len, double* __restrict an,
                     double* __restrict ax, double* __restrict ay,
                     double* __restrict axx, double* __restrict ayy,
                     double* __restrict axy, const double* __restrict bn,
                     const double* __restrict bx, const double* __restrict by,
                     const double* __restrict bxx,
                     const double* __restrict byy,
                     const double* __restrict bxy) {
  for (std::size_t k = 0; k < len; ++k) {
    const double na = an[k];
    const double n = na + bn[k];
    const double f = bn[k] / std::max(n, 1.0);
    const double dx = bx[k] - ax[k];
    const double dy = by[k] - ay[k];
    const double w = na * f;
    ax[k] += dx * f;
    ay[k] += dy * f;
    axx[k] += bxx[k] + dx * dx * w;
    ayy[k] += byy[k] + dy * dy * w;
    axy[k] += bxy[k] + dx * dy * w;
    an[k] = n;
  }
}

// acc <- acc merged with b, both whole records (distinct).
void merge_into(const RecordLayout& l, double* acc, const double* b) {
  merge_moments(l.n, acc + l.s_count(), acc + l.s_mean(), acc + l.s_m2(),
                b + l.s_count(), b + l.s_mean(), b + l.s_m2());
  merge_comoments(l.p, acc + l.p_count(), acc + l.p_mx(), acc + l.p_my(),
                  acc + l.p_cxx(), acc + l.p_cyy(), acc + l.p_cxy(),
                  b + l.p_count(), b + l.p_mx(), b + l.p_my(), b + l.p_cxx(),
                  b + l.p_cyy(), b + l.p_cxy());
}

// Finite test that vectorises (false for NaN and +-inf).
inline bool is_finite(double x) noexcept {
  return std::abs(x) <= std::numeric_limits<double>::max();
}

}  // namespace

DriftTracker::DriftTracker(std::size_t n_sensors, std::size_t window_length,
                           std::size_t window_step, std::size_t max_pairs,
                           std::uint64_t seed)
    : n_(n_sensors), wl_(window_length), ws_(window_step) {
  if (n_ == 0 || wl_ == 0 || ws_ == 0 || max_pairs == 0) {
    throw std::invalid_argument(
        "DriftTracker: sensor count, window length, window step and pair "
        "cap must be > 0");
  }
  pairs_ = sample_drift_pairs(n_, max_pairs, seed);
  g_ = std::gcd(wl_, ws_);
  chunks_ = wl_ / g_;
  record_size_ = RecordLayout{n_, pairs_.size()}.size();
  stage_.resize(g_ * n_);
  work_.resize(n_ + g_ * n_);
  // chunks_ ring slots, then the back aggregate, then the window.
  records_.resize((chunks_ + 2) * record_size_);
}

bool DriftTracker::push(std::span<const double> column) {
  if (column.size() != n_) {
    throw std::invalid_argument("DriftTracker::push: wrong column length");
  }
  const std::size_t t = pushed_++;
  // With ws > wl the stream skips ws - wl columns between windows; chunks
  // align with both, so whole chunks are skipped.
  if (t % ws_ < wl_) {
    std::copy(column.begin(), column.end(), stage_.begin() + staged_ * n_);
    if (++staged_ == g_) {
      close_chunk();
      staged_ = 0;
    }
  }
  if (pushed_ < wl_ || (pushed_ - wl_) % ws_ != 0) return false;
  // g divides wl and ws, so the newest chunk has just closed and the
  // stacks hold exactly this window's chunks.
  double* window = record(chunks_ + 1);
  const double* back = record(chunks_);
  if (front_ == 0) {
    std::copy_n(back, record_size_, window);
  } else {
    std::copy_n(record(oldest_), record_size_, window);
    if (back_ > 0) merge_into(RecordLayout{n_, pairs_.size()}, window, back);
  }
  has_window_ = true;
  return true;
}

void DriftTracker::close_chunk() {
  const RecordLayout l{n_, pairs_.size()};
  if (front_ + back_ == chunks_) {
    // Evict the oldest chunk; fold the back into suffix aggregates first
    // when the front has run empty.
    if (front_ == 0) {
      for (std::size_t k = back_ - 1; k-- > 0;) {
        merge_into(l, record(ring_slot(k)), record(ring_slot(k + 1)));
      }
      front_ = back_;
      back_ = 0;
    }
    oldest_ = ring_slot(1);
    --front_;
  }
  double* out = record(ring_slot(front_ + back_));

  // Sensors: shifted two-pass over the staged columns, one simple loop per
  // step so each vectorises across sensors. The shift is each row's last
  // finite sample in the chunk.
  const std::size_t n = n_;
  const std::size_t g = g_;
  double* count = out + l.s_count();
  double* mean = out + l.s_mean();
  double* m2 = out + l.s_m2();
  double* shift = work_.data();
  double* dev = shift + n;  // g x n, column-major; 0 where non-finite.
  std::fill_n(count, n, 0.0);
  std::fill_n(shift, n, 0.0);
  std::fill_n(mean, n, 0.0);
  std::fill_n(m2, n, 0.0);
  for (std::size_t c = 0; c < g; ++c) {
    const double* x = stage_.data() + c * n;
    for (std::size_t s = 0; s < n; ++s) {
      const double v = x[s];
      const double k = shift[s];
      shift[s] = is_finite(v) ? v : k;
    }
    for (std::size_t s = 0; s < n; ++s) {
      count[s] += is_finite(x[s]) ? 1.0 : 0.0;
    }
  }
  for (std::size_t c = 0; c < g; ++c) {
    const double* x = stage_.data() + c * n;
    for (std::size_t s = 0; s < n; ++s) {
      const double v = x[s];
      const double d = v - shift[s];
      mean[s] += is_finite(v) ? d : 0.0;  // Shifted sum for now.
    }
  }
  for (std::size_t s = 0; s < n; ++s) {
    mean[s] = shift[s] + mean[s] / std::max(count[s], 1.0);
  }
  for (std::size_t c = 0; c < g; ++c) {
    const double* x = stage_.data() + c * n;
    double* d = dev + c * n;
    for (std::size_t s = 0; s < n; ++s) {
      const double v = x[s];
      const double m = mean[s];
      const double e = is_finite(v) ? v - m : 0.0;
      d[s] = e;
      m2[s] += e * e;
    }
  }

  // Pairs.
  const std::size_t p = pairs_.size();
  const double full = static_cast<double>(g);
  for (std::size_t k = 0; k < p; ++k) {
    const std::size_t i = pairs_[k].i;
    const std::size_t j = pairs_[k].j;
    double pn = 0.0, mx = 0.0, my = 0.0, sxx = 0.0, syy = 0.0, sxy = 0.0;
    if (count[i] == full && count[j] == full) {
      // Both rows finite throughout: the pair's moments are the rows'.
      for (std::size_t c = 0; c < g; ++c) {
        sxy += dev[c * n + i] * dev[c * n + j];
      }
      pn = full;
      mx = mean[i];
      my = mean[j];
      sxx = m2[i];
      syy = m2[j];
    } else {
      // A gap in either row: the same shifted two-pass over the jointly
      // finite columns only.
      double kx = 0.0, ky = 0.0, sx = 0.0, sy = 0.0;
      for (std::size_t c = 0; c < g; ++c) {
        const double x = stage_[c * n + i];
        const double y = stage_[c * n + j];
        if (!is_finite(x) || !is_finite(y)) continue;
        if (pn == 0.0) {
          kx = x;
          ky = y;
        }
        sx += x - kx;
        sy += y - ky;
        pn += 1.0;
      }
      if (pn > 0.0) {
        mx = kx + sx / pn;
        my = ky + sy / pn;
      }
      for (std::size_t c = 0; c < g; ++c) {
        const double x = stage_[c * n + i];
        const double y = stage_[c * n + j];
        if (!is_finite(x) || !is_finite(y)) continue;
        const double dx = x - mx;
        const double dy = y - my;
        sxx += dx * dx;
        syy += dy * dy;
        sxy += dx * dy;
      }
    }
    out[l.p_count() + k] = pn;
    out[l.p_mx() + k] = mx;
    out[l.p_my() + k] = my;
    out[l.p_cxx() + k] = sxx;
    out[l.p_cyy() + k] = syy;
    out[l.p_cxy() + k] = sxy;
  }

  // Onto the back stack.
  double* back = record(chunks_);
  if (back_ == 0) {
    std::copy_n(out, record_size_, back);
  } else {
    merge_into(l, back, out);
  }
  ++back_;
}

void DriftTracker::require_window(const char* who) const {
  if (!has_window_) {
    throw std::logic_error(std::string(who) +
                           ": no window has completed yet");
  }
}

double DriftTracker::score(const DriftReference& ref) const {
  require_window("DriftTracker::score");
  if (ref.n_sensors() != n_) {
    throw std::invalid_argument(
        "DriftTracker::score: reference sensor count does not match");
  }
  if (ref.pairs.size() != pairs_.size() ||
      !std::equal(ref.pairs.begin(), ref.pairs.end(), pairs_.begin(),
                  [](const DriftReference::Pair& a,
                     const DriftReference::Pair& b) {
                    return a.i == b.i && a.j == b.j;
                  })) {
    throw std::invalid_argument(
        "DriftTracker::score: reference watches different pairs");
  }
  const RecordLayout l{n_, pairs_.size()};
  const double* w = record(chunks_ + 1);
  return score_window(
      ref,
      [&](std::size_t r) {
        return Moments{w[l.s_mean() + r], 0.0,
                       static_cast<std::size_t>(w[l.s_count() + r])};
      },
      [&](std::size_t k) {
        return pearson_from(static_cast<std::size_t>(w[l.p_count() + k]),
                            w[l.p_cxx() + k], w[l.p_cyy() + k],
                            w[l.p_cxy() + k]);
      });
}

DriftReference DriftTracker::reference() const {
  require_window("DriftTracker::reference");
  const RecordLayout l{n_, pairs_.size()};
  const double* w = record(chunks_ + 1);
  DriftReference ref;
  ref.mean.assign(w + l.s_mean(), w + l.s_mean() + n_);  // 0 if all-NaN.
  ref.sd.resize(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    const double count = w[l.s_count() + r];
    ref.sd[r] = count == 0.0 ? 0.0 : std::sqrt(w[l.s_m2() + r] / count);
  }
  ref.pairs = pairs_;
  for (std::size_t k = 0; k < ref.pairs.size(); ++k) {
    ref.pairs[k].r = pearson_from(static_cast<std::size_t>(w[l.p_count() + k]),
                                  w[l.p_cxx() + k], w[l.p_cyy() + k],
                                  w[l.p_cxy() + k]);
  }
  return ref;
}

}  // namespace csm::stats
