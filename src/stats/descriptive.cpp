#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

namespace csm::stats {

double mean(std::span<const double> x) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (double v : x) acc += v;
  return acc / static_cast<double>(x.size());
}

double variance(std::span<const double> x) {
  if (x.size() < 2) return 0.0;
  const double m = mean(x);
  double acc = 0.0;
  for (double v : x) {
    const double d = v - m;
    acc += d * d;
  }
  return acc / static_cast<double>(x.size());
}

double stddev(std::span<const double> x) { return std::sqrt(variance(x)); }

double covariance(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("covariance: length mismatch");
  }
  if (x.size() < 2) return 0.0;
  const double mx = mean(x);
  const double my = mean(y);
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += (x[i] - mx) * (y[i] - my);
  }
  return acc / static_cast<double>(x.size());
}

namespace {

// One pass: the extremum by a strict compare, which keeps the first of
// equal elements as std::min_element does, and a NaN check. A NaN has no
// rank, so whenever x holds one the answer is NaN, wherever it sits.
template <typename Beats>
double extremum(std::span<const double> x, Beats beats) {
  double best = x[0];
  bool nan = false;
  for (double v : x) {
    nan |= std::isnan(v);
    best = beats(v, best) ? v : best;
  }
  return nan ? std::numeric_limits<double>::quiet_NaN() : best;
}

// Percentile of an already sorted buffer, linear interpolation between ranks.
double sorted_percentile(const std::vector<double>& sorted, double q) {
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

double min(std::span<const double> x) {
  if (x.empty()) throw std::invalid_argument("min: empty input");
  return extremum(x, std::less<>());
}

double max(std::span<const double> x) {
  if (x.empty()) throw std::invalid_argument("max: empty input");
  return extremum(x, std::greater<>());
}

double percentile(std::span<const double> x, double q) {
  return percentiles(x, std::span<const double>(&q, 1)).front();
}

std::vector<double> percentiles(std::span<const double> x,
                                std::span<const double> qs) {
  if (x.empty()) throw std::invalid_argument("percentiles: empty input");
  // The copy to sort also looks for a NaN: it has no rank, and it breaks
  // the strict weak ordering std::sort needs.
  std::vector<double> sorted(x.size());
  bool nan = false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sorted[i] = x[i];
    nan |= std::isnan(x[i]);
  }
  if (!nan) std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(qs.size());
  for (double q : qs) {
    if (q < 0.0 || q > 100.0) {
      throw std::invalid_argument("percentiles: q outside [0, 100]");
    }
    out.push_back(nan ? std::numeric_limits<double>::quiet_NaN()
                      : sorted_percentile(sorted, q));
  }
  return out;
}

double sum_of_changes(std::span<const double> x) {
  if (x.size() < 2) return 0.0;
  return x.back() - x.front();
}

double abs_sum_of_changes(std::span<const double> x) {
  if (x.size() < 2) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    acc += std::abs(x[i] - x[i - 1]);
  }
  return acc;
}

}  // namespace csm::stats
