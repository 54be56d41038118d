// CS smoothing stage (Section III-C3, Eqs. 2-3).
//
// The sorted, normalised window is collapsed into l complex blocks. Block i
// (1-based in the paper) aggregates sensor rows [b_i, e_i] with
//   b_i = 1 + floor((i-1) * n / l),   e_i = ceil(i * n / l);
// when n % l != 0 neighbouring blocks share one boundary sensor ("partially
// overlapping ranges") and the extended blocks spread uniformly over the
// signature thanks to the modulo's periodicity. The real channel averages the
// window values of the block's sensors, the imaginary channel averages their
// backward first-order derivatives. Complexity O(wl * n).
//
// One summation order defines a signature, and both implementations in this
// header reduce that way, so they agree to the byte:
//   1. per sorted sensor row, the normalised values are summed in time order,
//      and so are their backward differences — a chain whose first term is
//      u_0 - seed when the window is seeded and 0 otherwise;
//   2. block i adds its rows' two sums in sorted-row order, starting from 0,
//      and divides each by rows * wl.
// StreamSmoother is the one production kernel: a stream's emit,
// CsPipeline::transform and CsPipeline::transform_window all run it, and
// smooth() is the materialised reference the tests hold it to. The per-row
// sums do not depend on how a window is laid out in memory, so a row-major
// matrix and a ring view straddling the wrap give the same bytes. A NaN
// sample poisons both sums of its row, hence both channels of every block
// containing that row; a NaN seed poisons only the derivative sum.
// Degenerate sensors (hi <= lo) normalise to 0 whatever they read.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "core/signature.hpp"
#include "stats/normalize.hpp"

namespace csm::core {

/// Half-open row range [begin, end) of block `i` (0-based) out of `l` blocks
/// over `n` sensors — the 0-based translation of Eq. 2.
struct BlockRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const noexcept { return end - begin; }
  bool operator==(const BlockRange&) const = default;
};

/// Throws std::invalid_argument if l == 0, n == 0 or i >= l.
BlockRange block_range(std::size_t i, std::size_t l, std::size_t n);

/// The materialised Eqs. 2-3 reference: smooths a sorted, normalised window
/// and its derivative matrix into an l-block signature. `sorted` and
/// `derivs` must have identical shapes.
Signature smooth(const common::Matrix& sorted, const common::Matrix& derivs,
                 std::size_t l);

/// Convenience overload computing the derivative matrix internally with
/// backward differences (first column derivative = 0).
Signature smooth(const common::Matrix& sorted, std::size_t l);

/// The CS kernel over a stream of raw sensor columns. Each pushed column is
/// normalised once, into a ring of the newest wl + 1 normalised columns kept
/// in original row order; emit() then only sums cached values, vectorised
/// across rows and in time order per row. emit(seeded) returns exactly the
/// bytes of
///   smooth(sort(window), backward_diff_rows[_seeded](...), l)
/// for the newest wl raw columns, where sort() min-max-normalises every row
/// with `bounds` and permutes rows by `permutation`, seeded (when `seeded`)
/// with the raw column pushed before them. The permutation's storage must
/// outlive the smoother.
class StreamSmoother {
 public:
  /// Throws std::invalid_argument on an empty or mismatched
  /// permutation/bounds, l == 0 or a zero window length.
  StreamSmoother(std::span<const std::size_t> permutation,
                 std::span<const stats::MinMaxBounds> bounds, std::size_t l,
                 std::size_t window_length);

  std::size_t rows() const noexcept { return lo_.size(); }

  /// Normalises one raw column (length rows()) into the ring, dropping the
  /// oldest column once wl + 1 are held. Throws std::invalid_argument on a
  /// wrong length.
  void push(std::span<const double> column);

  /// Smooths the newest wl columns, seeding the derivative chain with the
  /// column before them when `seeded`. Throws std::logic_error if fewer
  /// than wl (wl + 1 when seeded) columns are held.
  Signature emit(bool seeded);

 private:
  /// Normalised column `i` of the ring (0 = oldest held).
  const double* column(std::size_t i) const noexcept;

  std::span<const std::size_t> permutation_;
  std::vector<double> lo_;  ///< Normalisation bounds, original row order.
  std::vector<double> hi_;
  std::vector<BlockRange> blocks_;  ///< Eq. 2 ranges, computed once.
  std::size_t wl_ = 0;
  std::vector<double> ring_;  ///< rows x (wl + 1), one column per slot.
  std::size_t head_ = 0;      ///< Next slot to write.
  std::size_t size_ = 0;      ///< Columns held: min(pushed, wl + 1).
  std::vector<double> sum_re_;  ///< Per-row sums at emit, original order.
  std::vector<double> sum_im_;
};

}  // namespace csm::core
