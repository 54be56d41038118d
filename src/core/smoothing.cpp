#include "core/smoothing.hpp"

#include <stdexcept>

#include "stats/finite_diff.hpp"

namespace csm::core {

BlockRange block_range(std::size_t i, std::size_t l, std::size_t n) {
  if (l == 0 || n == 0) {
    throw std::invalid_argument("block_range: zero blocks or sensors");
  }
  if (i >= l) throw std::invalid_argument("block_range: block index >= l");
  // Eq. 2, 0-based: begin = floor(i*n/l); end (exclusive) = ceil((i+1)*n/l).
  const std::size_t begin = i * n / l;
  const std::size_t end = ((i + 1) * n + l - 1) / l;
  return BlockRange{begin, end};
}

namespace {

/// One sensor row's two sums of the one order: its normalised values and
/// its backward differences, each summed in time order.
struct RowSums {
  double re = 0.0;
  double im = 0.0;
};

/// The block half of the one order, shared by the kernel and the reference:
/// block i adds the sums of its sorted rows in ascending order, starting
/// from 0, and divides by rows * wl. `range(i)` gives block i's rows;
/// `row_sums(rr)` gives sorted row rr's sums. Consecutive blocks share at
/// most one row (the last of one is the first of the next), so caching the
/// last row asks row_sums for every row exactly once.
template <typename Range, typename Sums>
Signature fold_blocks(std::size_t l, std::size_t wl, Range&& range,
                      Sums&& row_sums) {
  Signature sig(l);
  const double cols = static_cast<double>(wl);
  std::size_t next_row = 0;  // Rows below this one have been summed.
  RowSums last;              // Sums of row next_row - 1.
  for (std::size_t i = 0; i < l; ++i) {
    const BlockRange r = range(i);
    double re = 0.0;
    double im = 0.0;
    for (std::size_t rr = r.begin; rr < r.end; ++rr) {
      if (rr == next_row) {
        last = row_sums(rr);
        ++next_row;
      }
      re += last.re;
      im += last.im;
    }
    const double count = static_cast<double>(r.size()) * cols;
    sig.real()[i] = re / count;
    sig.imag()[i] = im / count;
  }
  return sig;
}

/// Advances n rows' sums by the column `u` that follows `prev`.
void add_column(std::size_t n, const double* __restrict prev,
                const double* __restrict u, double* __restrict re,
                double* __restrict im) {
  for (std::size_t r = 0; r < n; ++r) {
    re[r] += u[r];
    im[r] += u[r] - prev[r];
  }
}

/// Advances n rows' sums by the columns `u` then `v` that follow `prev`,
/// in that order.
void add_two_columns(std::size_t n, const double* __restrict prev,
                     const double* __restrict u, const double* __restrict v,
                     double* __restrict re, double* __restrict im) {
  for (std::size_t r = 0; r < n; ++r) {
    re[r] = re[r] + u[r] + v[r];
    im[r] = im[r] + (u[r] - prev[r]) + (v[r] - u[r]);
  }
}

}  // namespace

Signature smooth(const common::Matrix& sorted, const common::Matrix& derivs,
                 std::size_t l) {
  if (sorted.empty()) throw std::invalid_argument("smooth: empty window");
  if (derivs.rows() != sorted.rows() || derivs.cols() != sorted.cols()) {
    throw std::invalid_argument("smooth: derivative shape mismatch");
  }
  if (l == 0) throw std::invalid_argument("smooth: zero blocks");
  const std::size_t n = sorted.rows();
  const auto range = [&](std::size_t i) { return block_range(i, l, n); };
  return fold_blocks(l, sorted.cols(), range, [&](std::size_t rr) {
    const std::span<const double> x = sorted.row(rr);
    const std::span<const double> d = derivs.row(rr);
    RowSums s{x[0], d[0]};
    for (std::size_t c = 1; c < x.size(); ++c) {
      s.re += x[c];
      s.im += d[c];
    }
    return s;
  });
}

Signature smooth(const common::Matrix& sorted, std::size_t l) {
  return smooth(sorted, stats::backward_diff_rows(sorted), l);
}

StreamSmoother::StreamSmoother(std::span<const std::size_t> permutation,
                               std::span<const stats::MinMaxBounds> bounds,
                               std::size_t l, std::size_t window_length)
    : permutation_(permutation), wl_(window_length) {
  const std::size_t n = permutation.size();
  if (n == 0 || bounds.size() != n) {
    throw std::invalid_argument(
        "StreamSmoother: empty or mismatched permutation/bounds");
  }
  if (l == 0) throw std::invalid_argument("StreamSmoother: zero blocks");
  if (wl_ == 0) {
    throw std::invalid_argument("StreamSmoother: zero window length");
  }
  lo_.reserve(n);
  hi_.reserve(n);
  for (const stats::MinMaxBounds& b : bounds) {
    lo_.push_back(b.lo);
    hi_.push_back(b.hi);
  }
  blocks_.reserve(l);
  for (std::size_t i = 0; i < l; ++i) blocks_.push_back(block_range(i, l, n));
  ring_.resize(n * (wl_ + 1));
  sum_re_.resize(n);
  sum_im_.resize(n);
}

void StreamSmoother::push(std::span<const double> column) {
  const std::size_t n = rows();
  if (column.size() != n) {
    throw std::invalid_argument("StreamSmoother::push: wrong column length");
  }
  double* slot = ring_.data() + head_ * n;
  // Contiguous across rows with the bounds as arrays, so this loop
  // vectorises; each value is exactly MinMaxBounds::normalize's.
  for (std::size_t r = 0; r < n; ++r) {
    slot[r] = stats::MinMaxBounds{lo_[r], hi_[r]}.normalize(column[r]);
  }
  head_ = head_ == wl_ ? 0 : head_ + 1;
  if (size_ <= wl_) ++size_;
}

const double* StreamSmoother::column(std::size_t i) const noexcept {
  const std::size_t capacity = wl_ + 1;
  const std::size_t start = size_ == capacity ? head_ : 0;
  const std::size_t slot = start + i;
  return ring_.data() + (slot >= capacity ? slot - capacity : slot) * rows();
}

Signature StreamSmoother::emit(bool seeded) {
  if (size_ < wl_ + (seeded ? 1 : 0)) {
    throw std::logic_error("StreamSmoother::emit: window not complete");
  }
  const std::size_t n = rows();
  const std::size_t first = size_ - wl_;
  double* re = sum_re_.data();
  double* im = sum_im_.data();
  // The row half of the one order for all rows at once: one pass per
  // column, oldest first, each row's sums advancing in time order.
  const double* prev = column(first);
  if (seeded) {
    const double* seed = column(first - 1);
    for (std::size_t r = 0; r < n; ++r) {
      re[r] = prev[r];
      im[r] = prev[r] - seed[r];
    }
  } else {
    for (std::size_t r = 0; r < n; ++r) {
      re[r] = prev[r];
      im[r] = 0.0;
    }
  }
  // Two columns per pass halve the trips the sums make through memory.
  std::size_t c = 1;
  for (; c + 1 < wl_; c += 2) {
    const double* v = column(first + c + 1);
    add_two_columns(n, prev, column(first + c), v, re, im);
    prev = v;
  }
  if (c < wl_) add_column(n, prev, column(first + c), re, im);
  return fold_blocks(
      blocks_.size(), wl_, [&](std::size_t i) { return blocks_[i]; },
      [&](std::size_t rr) {
        const std::size_t orig = permutation_[rr];
        return RowSums{re[orig], im[orig]};
      });
}

}  // namespace csm::core
