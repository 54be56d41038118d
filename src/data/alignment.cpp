#include "data/alignment.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "stats/interpolate.hpp"

namespace csm::data {

void AlignedSensors::reorder(const std::vector<std::string>& order) {
  if (order.size() != names.size()) {
    throw std::invalid_argument("AlignedSensors::reorder: name count differs");
  }
  std::unordered_map<std::string, std::size_t> row_of;
  row_of.reserve(names.size());
  for (std::size_t r = 0; r < names.size(); ++r) {
    if (!row_of.emplace(names[r], r).second) {
      throw std::invalid_argument(
          "AlignedSensors::reorder: duplicate sensor name '" + names[r] + "'");
    }
  }
  std::vector<std::size_t> perm;
  perm.reserve(order.size());
  std::vector<bool> used(names.size(), false);
  for (const std::string& name : order) {
    const auto it = row_of.find(name);
    if (it == row_of.end()) {
      throw std::invalid_argument("AlignedSensors::reorder: unknown sensor '" +
                                  name + "'");
    }
    if (used[it->second]) {
      throw std::invalid_argument(
          "AlignedSensors::reorder: sensor '" + name + "' listed twice");
    }
    used[it->second] = true;
    perm.push_back(it->second);
  }
  matrix = matrix.permute_rows(perm);
  names = order;
}

AlignedSensors align(const std::vector<TimeSeries>& series,
                     std::int64_t interval_ms) {
  if (series.empty()) {
    throw std::invalid_argument("align: no sensor series");
  }
  if (interval_ms <= 0) {
    throw std::invalid_argument("align: non-positive interval");
  }
  std::int64_t start = std::numeric_limits<std::int64_t>::min();
  std::int64_t end = std::numeric_limits<std::int64_t>::max();
  for (const TimeSeries& s : series) {
    if (s.empty()) {
      throw std::invalid_argument("align: empty series '" + s.name + "'");
    }
    if (!s.is_sorted()) {
      throw std::invalid_argument("align: unsorted series '" + s.name + "'");
    }
    start = std::max(start, s.first_timestamp());
    end = std::min(end, s.last_timestamp());
  }
  if (end < start) {
    throw std::invalid_argument("align: series time ranges do not overlap");
  }
  // Unsigned: the span of two int64 timestamps can exceed INT64_MAX, and so
  // can a grid offset below.
  const std::uint64_t span =
      static_cast<std::uint64_t>(end) - static_cast<std::uint64_t>(start);
  const auto step = static_cast<std::uint64_t>(interval_ms);
  if (span / step >= std::numeric_limits<std::size_t>::max()) {
    throw std::length_error("align: too many grid columns");
  }
  const auto cols = static_cast<std::size_t>(span / step) + 1;

  AlignedSensors out;
  out.matrix = common::Matrix(series.size(), cols);
  out.start_timestamp = start;
  out.interval_ms = interval_ms;
  out.names.reserve(series.size());
  for (std::size_t r = 0; r < series.size(); ++r) {
    out.names.push_back(series[r].name);
    const std::vector<double> xs = series[r].timestamps_as_double();
    const std::vector<double> ys = series[r].values();
    auto row = out.matrix.row(r);
    for (std::size_t c = 0; c < cols; ++c) {
      // Grid point c lies in [start, end], so the wrapped sum converts back
      // to its exact int64 timestamp.
      const auto t = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(start) + c * step);
      row[c] = stats::interp_linear(xs, ys, static_cast<double>(t));
    }
  }
  return out;
}

AlignedSensors align_auto(const std::vector<TimeSeries>& series) {
  // Unsigned: neighbouring int64 timestamps can lie more than INT64_MAX
  // apart. An unsorted pair wraps to a huge gap, but align() rejects an
  // unsorted series whatever the interval.
  std::vector<std::uint64_t> gaps;
  for (const TimeSeries& s : series) {
    for (std::size_t i = 1; i < s.samples.size(); ++i) {
      gaps.push_back(static_cast<std::uint64_t>(s.samples[i].timestamp) -
                     static_cast<std::uint64_t>(s.samples[i - 1].timestamp));
    }
  }
  if (gaps.empty()) {
    throw std::invalid_argument("align_auto: not enough samples");
  }
  auto mid = gaps.begin() + static_cast<std::ptrdiff_t>(gaps.size() / 2);
  std::nth_element(gaps.begin(), mid, gaps.end());
  const std::uint64_t longest = std::numeric_limits<std::int64_t>::max();
  const std::uint64_t interval = std::clamp<std::uint64_t>(*mid, 1, longest);
  return align(series, static_cast<std::int64_t>(interval));
}

}  // namespace csm::data
